package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func TestBinaryRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Kind: KindSubmit, ID: "d1", Quality: 0.4, Cost: 0.3, Latency: 0.2, K: 3, Sub: 17, Epoch: 1, Req: 2.5},
		{Kind: KindSubmit, ID: "", K: 1, Epoch: 9, Infeasible: true},
		{Kind: KindSubmit, ID: "über-request/π", Quality: -1.5, K: 2, Sub: 1 << 40, Epoch: 1 << 50},
		{Kind: KindRevoke, ID: "d1", Epoch: 2},
		{Kind: KindAvailability, W: 0.35, Epoch: 3},
		{Kind: KindAvailability, W: 0, Epoch: 0},
	}
	for _, rec := range recs {
		rec.Seq = 7
		frame, err := EncodeRecordBinary(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DecodeRecordBinary(frame)
		if err != nil {
			t.Fatalf("decode %q: %v", frame, err)
		}
		if n != len(frame) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(frame))
		}
		if got != rec {
			t.Fatalf("round trip: got %+v, want %+v", got, rec)
		}
		// Decoding with trailing data (the next record) consumes only the
		// frame.
		got2, n2, err := DecodeRecordBinary(append(append([]byte{}, frame...), frame...))
		if err != nil || n2 != len(frame) || got2 != rec {
			t.Fatalf("decode with successor: %+v, %d, %v", got2, n2, err)
		}
	}
}

func TestBinaryEncodeRejectsUnknownKind(t *testing.T) {
	if _, err := EncodeRecordBinary(Record{Kind: "explode"}); !errors.Is(err, ErrKind) {
		t.Fatalf("unknown kind encoded: %v", err)
	}
}

func TestBinaryDecodeRejects(t *testing.T) {
	frame, err := EncodeRecordBinary(Record{Seq: 1, Kind: KindSubmit, ID: "a", K: 1, Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	flipByte := func(i int) []byte {
		out := append([]byte{}, frame...)
		out[i] ^= 0x01
		return out
	}
	huge := append([]byte{}, frame...)
	huge[1], huge[2], huge[3], huge[4] = 0xff, 0xff, 0xff, 0x7f // length field
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrTorn},
		{"torn header", frame[:5], ErrTorn},
		{"torn payload", frame[:len(frame)-2], ErrTorn},
		{"not binary", []byte("00aa"), ErrCRC},
		{"flipped payload byte", flipByte(len(frame) - 1), ErrCRC},
		{"flipped crc byte", flipByte(5), ErrCRC},
		{"implausible length", huge, ErrCRC},
	}
	for _, tc := range cases {
		if _, _, err := DecodeRecordBinary(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}

	// CRC-valid frames with payloads this build does not speak: frame
	// crafted payloads with a correct checksum.
	good := frame[binHeaderSize:]
	payloadCases := []struct {
		name string
		in   []byte
		want error
	}{
		{"wrong version", frameOf(append([]byte{99}, good[1:]...)), ErrVersion},
		{"v2 binary claim", frameOf(append([]byte{2}, good[1:]...)), ErrVersion},
		{"unknown kind code", frameOf(append([]byte{FormatVersion, 9}, good[2:]...)), ErrKind},
		{"unknown flag bits", frameOf([]byte{FormatVersion, binKindAvailability, 1, 1, 0x80, 0, 0, 0, 0, 0, 0, 0, 0}), ErrKind},
		{"trailing bytes", frameOf(append(append([]byte{}, good...), 0x00)), ErrKind},
		{"truncated fields", frameOf(good[:4]), ErrKind},
	}
	for _, tc := range payloadCases {
		if _, _, err := DecodeRecordBinary(tc.in); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// v2Record is a submit record under the JSON field names v1/v2 builds
// wrote.
type v2Record struct {
	V       int     `json:"v"`
	Seq     uint64  `json:"seq"`
	Kind    string  `json:"kind"`
	ID      string  `json:"id,omitempty"`
	Quality float64 `json:"quality,omitempty"`
	Cost    float64 `json:"cost,omitempty"`
	Latency float64 `json:"latency,omitempty"`
	K       int     `json:"k,omitempty"`
	Sub     uint64  `json:"sub,omitempty"`
	Epoch   uint64  `json:"epoch"`
}

// v2Lines renders n submit records, seqs first.., as the JSON lines a
// v2 build appended: a hex CRC32-C, a space, the JSON payload, a newline.
func v2Lines(tb testing.TB, first uint64, n int) []byte {
	tb.Helper()
	var out []byte
	for seq := first; seq < first+uint64(n); seq++ {
		r := submitRec(fmt.Sprintf("d%d", seq), seq-1, seq)
		payload, err := json.Marshal(v2Record{
			V: 2, Seq: seq, Kind: r.Kind, ID: r.ID,
			Quality: r.Quality, Cost: r.Cost, Latency: r.Latency, K: r.K,
			Sub: r.Sub, Epoch: r.Epoch,
		})
		if err != nil {
			tb.Fatal(err)
		}
		out = appendFrame(out, payload)
	}
	return out
}

// appendFrame appends payload to dst in the JSON-line framing v1/v2
// builds wrote: a hex CRC32-C, a space, the payload, a newline.
func appendFrame(dst, payload []byte) []byte {
	dst = fmt.Appendf(dst, "%08x ", crc32.Checksum(payload, castagnoli))
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// frameOf wraps payload in a v3 frame with a valid length and CRC.
func frameOf(payload []byte) []byte {
	f := append(beginFrame(nil), payload...)
	endFrame(f, 0)
	return f
}

// v4Frame is an intact frame of a format version this build does not
// read: a submit record's payload with its version byte set to 4.
func v4Frame(seq uint64) []byte {
	rec := submitRec("future", seq-1, seq)
	rec.Seq = seq
	payload := AppendRecordBinary(nil, rec)[binHeaderSize:]
	return frameOf(append([]byte{4}, payload[1:]...))
}

// binFrames renders n submit records, seqs first.., as v3 frames.
func binFrames(first uint64, n int) []byte {
	var out []byte
	for seq := first; seq < first+uint64(n); seq++ {
		rec := submitRec(fmt.Sprintf("d%d", seq), seq-1, seq)
		rec.Seq = seq
		out = AppendRecordBinary(out, rec)
	}
	return out
}

// TestV2SegmentRefused: a record in the v1/v2 JSON-line framing is intact
// data this build does not read. Wherever it sits, Scan and Open refuse
// it with ErrVersion, naming its segment and offset, and every segment
// stays byte-identical: the record is never truncated as a torn tail.
func TestV2SegmentRefused(t *testing.T) {
	head := binFrames(1, 2)
	damaged := v2Lines(t, 1, 3)
	damaged[12] ^= 1 // inside the first line's payload: its CRC fails
	unterminated := v2Lines(t, 3, 1)
	unterminated = unterminated[:len(unterminated)-1]
	cases := []struct {
		name string
		segs map[uint64][]byte
		off  int // offset in the first segment that the refusal names
	}{
		{"JSON segment last", map[uint64][]byte{1: v2Lines(t, 1, 3)}, 0},
		{"JSON segment before a binary one", map[uint64][]byte{1: v2Lines(t, 1, 2), 3: binFrames(3, 2)}, 0},
		{"JSON line after a binary head", map[uint64][]byte{1: slices.Concat(head, v2Lines(t, 3, 2))}, len(head)},
		{"JSON segment with a damaged first line", map[uint64][]byte{1: damaged}, bytes.IndexByte(damaged, '\n') + 1},
		{"JSON line that lost its newline", map[uint64][]byte{1: slices.Concat(head, unterminated)}, len(head)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for first, data := range tc.segs {
				if err := os.WriteFile(filepath.Join(dir, segmentName(first)), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			where := fmt.Sprintf("%s: record at offset %d", segmentName(1), tc.off)
			if _, err := Scan(dir); !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), where) {
				t.Fatalf("scan: %v, want ErrVersion at %s", err, where)
			}
			if l, _, err := Open(dir, Options{}); !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), where) {
				if err == nil {
					l.Close()
				}
				t.Fatalf("open: %v, want ErrVersion at %s", err, where)
			}
			for first, want := range tc.segs {
				if got, err := os.ReadFile(filepath.Join(dir, segmentName(first))); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s changed under the refused open (read err %v)", segmentName(first), err)
				}
			}
		})
	}
}

// TestIntactUnreadableFrameRefused: a frame that passes its length and
// CRC checks but that this build does not read cannot be a torn append,
// which leaves a frame cut short or failing its CRC. At the tail of the
// last segment too, Scan and Open refuse it with its typed error, naming
// the segment and offset, and the segment stays byte-identical.
func TestIntactUnreadableFrameRefused(t *testing.T) {
	head := binFrames(1, 2)
	header := encodeCheckpoint(Checkpoint{Seq: 2, Epoch: 2, NextSub: 2})
	whole := encodeCheckpoint(Checkpoint{Seq: 2, Epoch: 2, NextSub: 2, Requests: []CheckpointRequest{submitRec("d1", 1, 0)}})
	cases := []struct {
		name string
		seg  []byte
		off  int
		want error
	}{
		{"version-4 frame at the tail", slices.Concat(head, v4Frame(3)), len(head), ErrVersion},
		{"two version-4 frames at the tail", slices.Concat(head, v4Frame(3), v4Frame(4)), len(head), ErrVersion},
		{"checkpoint header frame at the tail", slices.Concat(head, header), len(head), ErrKind},
		{"checkpoint header frame inside a segment", slices.Concat(head, header, binFrames(3, 1)), len(head), ErrKind},
		{"checkpoint file as a segment", whole, 0, ErrKind},
		{"garbage before an intact frame at the tail", slices.Concat(head, []byte{0}, v4Frame(3)), len(head), ErrCRC},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, segmentName(1))
			if err := os.WriteFile(path, tc.seg, 0o644); err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("%s: record at offset %d", segmentName(1), tc.off)
			if _, err := Scan(dir); !errors.Is(err, tc.want) || !strings.Contains(err.Error(), where) {
				t.Fatalf("scan: %v, want %v at %s", err, tc.want, where)
			}
			if l, _, err := Open(dir, Options{}); !errors.Is(err, tc.want) || !strings.Contains(err.Error(), where) {
				if err == nil {
					l.Close()
				}
				t.Fatalf("open: %v, want %v at %s", err, tc.want, where)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, tc.seg) {
				t.Fatalf("segment changed under the refused open (read err %v)", err)
			}
		})
	}
}

// jsonCheckpoint and jsonCheckpointRequest are a checkpoint under the
// JSON field names builds before the frame checkpoint wrote, one JSON
// line per file.
type jsonCheckpoint struct {
	V            int                     `json:"v"`
	Seq          uint64                  `json:"seq"`
	Epoch        uint64                  `json:"epoch"`
	Availability float64                 `json:"availability"`
	NextSub      uint64                  `json:"next_sub"`
	Requests     []jsonCheckpointRequest `json:"requests"`
}

type jsonCheckpointRequest struct {
	ID      string  `json:"id"`
	Quality float64 `json:"quality"`
	Cost    float64 `json:"cost"`
	Latency float64 `json:"latency"`
	K       int     `json:"k"`
	Sub     uint64  `json:"sub"`
	Req     float64 `json:"req,omitempty"`
}

// jsonCheckpointLine renders a one-request checkpoint at seq as the JSON
// line a build of format version v wrote.
func jsonCheckpointLine(tb testing.TB, v int, seq uint64) []byte {
	tb.Helper()
	payload, err := json.Marshal(jsonCheckpoint{
		V: v, Seq: seq, Epoch: seq, Availability: 0.7, NextSub: seq,
		Requests: []jsonCheckpointRequest{{ID: "d1", Quality: 0.4, Cost: 0.3, Latency: 0.2, K: 3, Sub: seq - 1, Req: 1.5}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return appendFrame(nil, payload)
}

// TestJSONCheckpointRefused: a checkpoint in the JSON-line framing of
// earlier builds holds state this build does not read. Scan and Open
// refuse it with ErrVersion naming the file, rather than skipping it as
// corrupt, and leave every file byte-identical.
func TestJSONCheckpointRefused(t *testing.T) {
	for _, v := range []int{2, 3} {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) {
			dir := t.TempDir()
			files := map[string][]byte{
				checkpointName(5): jsonCheckpointLine(t, v, 5),
				segmentName(6):    binFrames(6, 2),
			}
			for name, data := range files {
				if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := Scan(dir); !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), checkpointName(5)) {
				t.Fatalf("scan: %v, want ErrVersion naming %s", err, checkpointName(5))
			}
			if l, _, err := Open(dir, Options{}); !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), checkpointName(5)) {
				if err == nil {
					l.Close()
				}
				t.Fatalf("open: %v, want ErrVersion naming %s", err, checkpointName(5))
			}
			for name, want := range files {
				if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s changed under the refused open (read err %v)", name, err)
				}
			}
		})
	}
}

// TestCheckpointDecode: a checkpoint round-trips through its frames, and
// each way a file can fail to be one is refused with ErrCheckpoint.
func TestCheckpointDecode(t *testing.T) {
	cp := Checkpoint{Seq: 9, Epoch: 12, Availability: 0.65, NextSub: 11, Requests: []CheckpointRequest{
		{Kind: KindSubmit, ID: "a", Quality: 0.4, Cost: 0.3, Latency: 0.2, K: 3, Sub: 2, Req: 1.25},
		{Kind: KindSubmit, ID: "b", Quality: 0.9, Cost: 0.1, Latency: 0.1, K: 1, Sub: 10, Infeasible: true},
	}}
	data := encodeCheckpoint(cp)
	got, err := decodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != cp.Seq || got.Epoch != cp.Epoch || got.Availability != cp.Availability ||
		got.NextSub != cp.NextSub || !slices.Equal(got.Requests, cp.Requests) {
		t.Fatalf("round trip: got %+v, want %+v", got, cp)
	}
	// The encoder stores only what re-admission reads.
	stray := cp
	stray.Requests = []CheckpointRequest{{Kind: KindRevoke, Seq: 4, Epoch: 5, W: 0.5, ID: "a", K: 3, Sub: 2, Req: 1.25, Quality: 0.4, Cost: 0.3, Latency: 0.2}, cp.Requests[1]}
	if !bytes.Equal(encodeCheckpoint(stray), data) {
		t.Fatal("encoder kept a request's kind, seq, epoch or w")
	}

	header, _, err := readFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	withHeader := func(edit func(p []byte) []byte) []byte {
		return slices.Concat(frameOf(edit(slices.Clone(header))), data[binHeaderSize+len(header):])
	}
	firstOnly := data[:len(data)-len(AppendRecordBinary(nil, cp.Requests[1]))] // header and request 0
	revoke := AppendRecordBinary(nil, Record{Kind: KindRevoke, ID: "a"})
	numbered := AppendRecordBinary(nil, Record{Kind: KindSubmit, ID: "a", K: 1, Seq: 3})
	cases := []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"torn header", data[:5]},
		{"header version 4", withHeader(func(p []byte) []byte { p[0] = 4; return p })},
		{"header with a record kind", withHeader(func(p []byte) []byte { p[1] = binKindSubmit; return p })},
		{"header trailing byte", withHeader(func(p []byte) []byte { return append(p, 0) })},
		{"header cut short", withHeader(func(p []byte) []byte { return p[:len(p)-1] })},
		{"count past the bytes", withHeader(func(p []byte) []byte {
			return binary.AppendUvarint(p[:len(p)-1], uint64(len(data)))
		})},
		{"missing request", firstOnly},
		{"torn request", data[:len(data)-1]},
		{"revoke frame", slices.Concat(firstOnly, revoke)},
		{"numbered submit", slices.Concat(firstOnly, numbered)},
		{"trailing bytes", slices.Concat(data, []byte{0})},
		{"trailing frame", slices.Concat(data, revoke)},
		{"JSON line", jsonCheckpointLine(t, FormatVersion, 9)},
	}
	for _, tc := range cases {
		if _, err := decodeCheckpoint(tc.in); !errors.Is(err, ErrCheckpoint) {
			t.Errorf("%s: got %v, want ErrCheckpoint", tc.name, err)
		}
	}
}

// TestTornBinaryTailTruncated: a crash mid-binary-append leaves a prefix
// of a frame; recovery truncates exactly it, keeping every complete
// record, at several cut points (inside the header, inside the payload).
func TestTornBinaryTailTruncated(t *testing.T) {
	for _, chop := range []int{1, 5, 8, 12} {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 3, 0)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		segs, _, _ := listDir(dir)
		path := filepath.Join(dir, segmentName(segs[0]))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		next, err := EncodeRecordBinary(Record{Seq: 4, Kind: KindRevoke, ID: "d1", Epoch: 4})
		if err != nil {
			t.Fatal(err)
		}
		if chop >= len(next) {
			t.Fatalf("chop %d beyond frame of %d bytes", chop, len(next))
		}
		if err := os.WriteFile(path, append(data, next[:chop]...), 0o644); err != nil {
			t.Fatal(err)
		}

		l, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("chop %d: %v", chop, err)
		}
		if rec.LastSeq != 3 || rec.TornBytes != chop || len(rec.Tail) != 3 {
			t.Fatalf("chop %d: %+v", chop, rec)
		}
		appendN(t, l, 1, 3)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := Scan(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got.LastSeq != 4 || got.TornBytes != 0 || len(got.Tail) != 4 {
			t.Fatalf("chop %d after repair: %+v", chop, got)
		}
	}
}

// TestManualSyncDurability: under SyncManual nothing is durable until
// Sync, and DurableSeq tracks exactly the fsynced prefix.
func TestManualSyncDurability(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SyncManual: true})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 0)
	if got := l.Syncs(); got != 0 {
		t.Fatalf("manual log fsynced on its own: %d", got)
	}
	if l.LastSeq() != 3 || l.DurableSeq() != 0 {
		t.Fatalf("seq %d durable %d, want 3/0", l.LastSeq(), l.DurableSeq())
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if l.DurableSeq() != 3 || l.Syncs() != 1 {
		t.Fatalf("after Sync: durable %d syncs %d", l.DurableSeq(), l.Syncs())
	}
	if err := l.Sync(); err != nil { // nothing pending
		t.Fatal(err)
	}
	if l.Syncs() != 1 {
		t.Fatalf("idle Sync fsynced anyway: %d", l.Syncs())
	}
	appendN(t, l, 2, 3)
	if err := l.Close(); err != nil { // Close flushes the un-synced tail
		t.Fatal(err)
	}
	got, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastSeq != 5 || len(got.Tail) != 5 {
		t.Fatalf("manual-sync log lost records: %+v", got)
	}
}

// TestSyncFailureDiscardsBatch: a failed group-commit Sync must leave no
// trace of the batch it covered — including records the bufio writer
// already spilled into the file — because every op in the batch is about
// to be told 503. The segment rolls back to the durable prefix.
func TestSyncFailureDiscardsBatch(t *testing.T) {
	dir := t.TempDir()
	fail := false
	l, _, err := Open(dir, Options{SyncManual: true, TestSyncHook: func() error {
		if fail {
			return errors.New("injected sync failure")
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2, 0)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Second batch: enough records to overflow the 4 KiB bufio buffer so
	// some spill into the file before the failing sync.
	big := bytes.Repeat([]byte("x"), 600)
	for i := 0; i < 10; i++ {
		if _, err := l.Append(Record{Kind: KindRevoke, ID: string(big), Epoch: uint64(3 + i)}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	fail = true
	if err := l.Sync(); err == nil {
		t.Fatal("injected sync failure did not surface")
	}
	if !l.Broken() {
		t.Fatal("failed sync left the log unbroken")
	}
	if l.DurableSeq() != 2 {
		t.Fatalf("durable seq after failed sync: %d", l.DurableSeq())
	}
	if _, err := l.Append(Record{Kind: KindRevoke, ID: "x", Epoch: 99}); err == nil {
		t.Fatal("broken log accepted an append")
	}
	l.Close()

	got, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastSeq != 2 || len(got.Tail) != 2 || got.TornBytes != 0 {
		t.Fatalf("failed batch left a trace: %+v", got)
	}
}
