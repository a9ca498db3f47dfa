package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzWALDecodeV3 hammers the record decoder: arbitrary bytes must
// decode to a record whose re-encoding is byte-identical to the consumed
// frame, or fail with a typed error — never panic, never accept two
// different byte strings for the same record. (Byte comparison rather than
// struct equality keeps the property honest for NaN float payloads, where
// rec != rec.)
func FuzzWALDecodeV3(f *testing.F) {
	for _, rec := range []Record{
		{Seq: 1, Kind: KindSubmit, ID: "d1", Quality: 0.4, Cost: 0.3, Latency: 0.2, K: 3, Sub: 0, Epoch: 1},
		{Seq: 2, Kind: KindSubmit, ID: "", K: 1, Epoch: 2, Infeasible: true},
		{Seq: 3, Kind: KindRevoke, ID: "d1", Epoch: 3},
		{Seq: 4, Kind: KindAvailability, W: 0.7, Epoch: 4},
	} {
		f.Add(AppendRecordBinary(nil, rec))
	}
	f.Add([]byte{})
	f.Add([]byte{magicV3})
	f.Add([]byte{magicV3, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("00000000 {}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecordBinary(data)
		if err != nil {
			return // typed rejection is always acceptable
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("accepted frame with consumed=%d of %d bytes", n, len(data))
		}
		enc := AppendRecordBinary(nil, rec)
		if !bytes.Equal(enc, data[:n]) {
			t.Fatalf("non-canonical frame accepted:\n consumed %x\nre-encode %x\nrecord %+v", data[:n], enc, rec)
		}
	})
}

// FuzzScan writes arbitrary bytes as a log's only segment, with no
// checkpoint, and holds recovery to its contract. Either the scan refuses
// with a typed error, and Open refuses too and leaves the segment as it
// was, or the scan accounts for every byte: its records, re-encoded and
// joined in order, are exactly the segment minus its last TornBytes, and
// Open followed by Close leaves exactly that prefix on disk.
func FuzzScan(f *testing.F) {
	seg := binFrames(1, 3)
	f.Add(seg)
	f.Add([]byte{})
	f.Add(seg[:len(seg)-4])                                           // torn payload
	f.Add(slices.Concat(seg, []byte{magicV3, 7}))                     // torn header
	f.Add(slices.Concat(binFrames(1, 1), []byte{0}, binFrames(2, 1))) // mid-log garbage
	f.Add(binFrames(2, 2))                                            // gap at the head
	f.Add(AppendRecordBinary(nil, Record{Kind: KindRevoke, ID: "x"})) // seq 0
	f.Add(v2Lines(f, 1, 3))
	f.Add(slices.Concat(binFrames(1, 2), v2Lines(f, 3, 1)))
	// Intact frames this build does not read at the tail: another
	// version, and a checkpoint header.
	f.Add(slices.Concat(binFrames(1, 2), v4Frame(3)))
	f.Add(slices.Concat(binFrames(1, 2), encodeCheckpoint(Checkpoint{Seq: 2, Epoch: 2, NextSub: 2})))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Scan(dir)
		if err != nil {
			typed := false
			for _, want := range []error{ErrTorn, ErrCRC, ErrKind, ErrVersion, ErrSequence} {
				typed = typed || errors.Is(err, want)
			}
			if !typed {
				t.Fatalf("untyped refusal: %v", err)
			}
			if l, _, err := Open(dir, Options{}); err == nil {
				l.Close()
				t.Fatal("Open recovered a segment Scan refused")
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("refused Open changed the segment (read err %v)", err)
			}
			return
		}
		if rec.TornBytes < 0 || rec.TornBytes > len(data) || rec.LastSeq != uint64(len(rec.Tail)) {
			t.Fatalf("scan accounting: %d torn of %d bytes, last seq %d, %d records",
				rec.TornBytes, len(data), rec.LastSeq, len(rec.Tail))
		}
		keep := data[:len(data)-rec.TornBytes]
		var enc []byte
		for _, r := range rec.Tail {
			enc = AppendRecordBinary(enc, r)
		}
		if !bytes.Equal(enc, keep) {
			t.Fatalf("records re-encode to %x, want the untorn prefix %x", enc, keep)
		}
		l, _, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open refused a segment Scan recovered: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, keep) {
			t.Fatalf("after Open and Close the segment is %x, want %x (read err %v)", got, keep, err)
		}
	})
}

// FuzzCheckpoint hammers the checkpoint decoder: arbitrary bytes must
// fail with an error wrapping ErrCheckpoint, or decode to a checkpoint
// whose encoding is byte-identical to the input — never panic, and never
// size an allocation by a request count the bytes cannot back.
func FuzzCheckpoint(f *testing.F) {
	three := encodeCheckpoint(Checkpoint{Seq: 7, Epoch: 9, Availability: 0.6, NextSub: 5, Requests: []CheckpointRequest{
		submitRec("a", 0, 0), submitRec("b", 2, 0), {ID: "c", Quality: 0.9, K: 1, Sub: 4, Infeasible: true},
	}})
	f.Add(encodeCheckpoint(Checkpoint{}))
	f.Add(three)
	f.Add(three[:len(three)-3])
	huge := []byte{FormatVersion, ckptHeaderKind, 1, 1}
	huge = binary.LittleEndian.AppendUint64(huge, 0)
	huge = binary.AppendUvarint(append(huge, 1), 1<<40)
	f.Add(frameOf(huge))
	f.Add(jsonCheckpointLine(f, FormatVersion, 7))

	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := decodeCheckpoint(data)
		if err != nil {
			if !errors.Is(err, ErrCheckpoint) {
				t.Fatalf("refusal does not wrap ErrCheckpoint: %v", err)
			}
			return
		}
		if enc := encodeCheckpoint(cp); !bytes.Equal(enc, data) {
			t.Fatalf("non-canonical checkpoint accepted:\n    input %x\nre-encode %x", data, enc)
		}
	})
}
