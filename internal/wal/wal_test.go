package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Broken reports whether an append or sync has failed since Open. A
// broken log rejects further appends and Close will discard (not flush)
// whatever the failed append left buffered.
func (l *Log) Broken() bool { return l.broken }

func submitRec(id string, sub uint64, epoch uint64) Record {
	return Record{Kind: KindSubmit, ID: id, Quality: 0.4, Cost: 0.3, Latency: 0.2, K: 3, Sub: sub, Epoch: epoch}
}

func appendN(t *testing.T, l *Log, n int, from uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		seq, err := l.Append(submitRec(fmt.Sprintf("d%d", from+uint64(i)), from+uint64(i), from+uint64(i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if seq != from+uint64(i)+1 {
			t.Fatalf("append assigned seq %d, want %d", seq, from+uint64(i)+1)
		}
	}
}

func TestAppendScanRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastSeq != 0 || rec.Checkpoint != nil || len(rec.Tail) != 0 {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	appendN(t, l, 5, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastSeq != 5 || len(got.Tail) != 5 || got.TornBytes != 0 {
		t.Fatalf("scan: %+v", got)
	}
	for i, r := range got.Tail {
		if r.Seq != uint64(i+1) || r.ID != fmt.Sprintf("d%d", i) {
			t.Fatalf("tail[%d] = %+v", i, r)
		}
	}

	// Reopen and keep appending: sequence continues.
	l, rec, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastSeq != 5 {
		t.Fatalf("reopen LastSeq = %d", rec.LastSeq)
	}
	appendN(t, l, 3, 5)
	if l.LastSeq() != 8 {
		t.Fatalf("LastSeq after continued appends = %d", l.LastSeq())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 10, 0)
	removed, err := l.Checkpoint(Checkpoint{
		Epoch:        4,
		Availability: 0.6,
		NextSub:      10,
		Requests:     []CheckpointRequest{{ID: "d9", Quality: 0.4, Cost: 0.3, Latency: 0.2, K: 3, Sub: 9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("checkpoint removed %d segments, want 1", removed)
	}
	appendN(t, l, 2, 10) // tail after the checkpoint
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checkpoint == nil || got.Checkpoint.Seq != 10 || got.Checkpoint.Epoch != 4 || got.Checkpoint.NextSub != 10 {
		t.Fatalf("checkpoint: %+v", got.Checkpoint)
	}
	if len(got.Checkpoint.Requests) != 1 || got.Checkpoint.Requests[0].Sub != 9 {
		t.Fatalf("checkpoint requests: %+v", got.Checkpoint.Requests)
	}
	if len(got.Tail) != 2 || got.Tail[0].Seq != 11 || got.LastSeq != 12 {
		t.Fatalf("tail after checkpoint: %+v", got)
	}

	// The pre-checkpoint segment is gone; only the post-rotation one left.
	segs, ckpts, err := listDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0] != 11 || len(ckpts) != 1 || ckpts[0] != 10 {
		t.Fatalf("dir after checkpoint: segments %v checkpoints %v", segs, ckpts)
	}
}

// TestCheckpointIdleLog: checkpointing a log with no appends since the
// last rotation (a fresh/idle tenant, or POST /admin/checkpoint twice in
// a row) must not try to recreate the current segment. Regression: found
// by driving /admin/checkpoint against a traffic-less tenant — the
// rotation hit O_EXCL on its own segment.
func TestCheckpointIdleLog(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Fresh log, zero records: checkpoint at seq 0.
	if _, err := l.Checkpoint(Checkpoint{NextSub: 0}); err != nil {
		t.Fatalf("checkpoint on fresh log: %v", err)
	}
	appendN(t, l, 3, 0)
	if _, err := l.Checkpoint(Checkpoint{NextSub: 3}); err != nil {
		t.Fatalf("checkpoint after appends: %v", err)
	}
	// Immediately again, no appends in between.
	if _, err := l.Checkpoint(Checkpoint{NextSub: 3}); err != nil {
		t.Fatalf("repeated checkpoint: %v", err)
	}
	// The log still appends and recovers cleanly after all that.
	appendN(t, l, 2, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checkpoint == nil || got.Checkpoint.Seq != 3 || len(got.Tail) != 2 || got.LastSeq != 5 {
		t.Fatalf("scan after idle checkpoints: %+v", got)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := listDir(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	path := filepath.Join(dir, segmentName(segs[0]))

	// Simulate a torn append: garbage partial record at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := `deadbeef {"v":1,"seq":5,"kind":"sub`
	if _, err := f.WriteString(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastSeq != 4 || got.TornBytes != len(torn) {
		t.Fatalf("scan with torn tail: %+v", got)
	}

	// Open truncates the torn bytes and appends cleanly after them.
	l, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastSeq != 4 || rec.TornBytes != len(torn) {
		t.Fatalf("open with torn tail: %+v", rec)
	}
	appendN(t, l, 1, 4)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastSeq != 5 || got.TornBytes != 0 || len(got.Tail) != 5 {
		t.Fatalf("scan after repair: %+v", got)
	}
}

func TestCorruptionMidLogRejected(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 0)
	if _, err := l.Checkpoint(Checkpoint{NextSub: 3}); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt a record in the middle of the (single remaining) segment by
	// flipping one payload byte of the first line.
	segs, _, _ := listDir(dir)
	path := filepath.Join(dir, segmentName(segs[len(segs)-1]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// The corrupt record is NOT the tail: two intact (acknowledged)
	// records follow it. That is disk corruption, not a crash artifact,
	// and recovery must refuse rather than silently drop acked records.
	if _, err := Scan(dir); err == nil || !errors.Is(err, ErrCRC) {
		t.Fatalf("mid-log corruption scanned without CRC error: %v", err)
	}
}

// TestSequenceGapRejected: a CRC-valid record that breaks the contiguous
// seq run is corruption, not a record to skip. Besides a gap, that holds
// for seq 0 and for a seq that falls back below the checkpoint once the
// tail began: records the checkpoint covers are skipped only ahead of the
// tail, where a crash before segment deletion leaves them.
func TestSequenceGapRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		ckpt int      // records appended before a checkpoint; 0 takes none
		seqs []uint64 // hand-appended after two more records
	}{
		{"gap", 0, []uint64{9, 10}},
		{"seq 0", 0, []uint64{0}},
		{"below the checkpoint after the tail", 3, []uint64{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, tc.ckpt, 0)
			if tc.ckpt > 0 {
				if _, err := l.Checkpoint(Checkpoint{NextSub: uint64(tc.ckpt)}); err != nil {
					t.Fatal(err)
				}
			}
			appendN(t, l, 2, uint64(tc.ckpt))
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			segs, _, _ := listDir(dir)
			path := filepath.Join(dir, segmentName(segs[len(segs)-1]))

			// Hand-append CRC-valid records with the broken sequence numbers;
			// a gapped record is followed by another valid record so the gap
			// is not a tail fault.
			var extra []byte
			for _, seq := range tc.seqs {
				extra = AppendRecordBinary(extra, Record{Seq: seq, Kind: KindRevoke, ID: "x", Epoch: 1})
			}
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(extra); err != nil {
				t.Fatal(err)
			}
			f.Close()

			if _, err := Scan(dir); !errors.Is(err, ErrSequence) {
				t.Fatalf("broken sequence scanned without error: %v", err)
			}
		})
	}
}

// TestSyncBatching: under SyncManual each Sync makes everything appended
// since the previous one durable in one fsync — the batch a commit round
// covers — an idle Sync costs nothing, and every record recovers.
func TestSyncBatching(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SyncManual: true})
	if err != nil {
		t.Fatal(err)
	}
	// Batches of 4, 4 and 2 records, one explicit Sync each.
	for i, n := range []int{4, 4, 2} {
		from := uint64(4 * i)
		appendN(t, l, n, from)
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if got, want := l.DurableSeq(), from+uint64(n); got != want {
			t.Fatalf("batch %d: durable seq %d, want %d", i, got, want)
		}
	}
	if got := l.Syncs(); got != 3 {
		t.Fatalf("syncs = %d, want 3 (one per batch)", got)
	}
	if err := l.Sync(); err != nil { // nothing pending: no extra fsync
		t.Fatal(err)
	}
	if got := l.Syncs(); got != 3 {
		t.Fatalf("idle Sync fsynced anyway: %d", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.LastSeq != 10 || len(got.Tail) != 10 {
		t.Fatalf("batched log lost records: %+v", got)
	}
}

// TestOpenExclusiveLock: two live appenders on one directory would
// truncate and interleave each other's log; the second Open must fail
// with ErrLocked, and the lock must die with the holder (Close).
func TestOpenExclusiveLock(t *testing.T) {
	dir := t.TempDir()
	l1, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open on a live dir: %v, want ErrLocked", err)
	}
	// Scan stays read-only and lock-free.
	if _, err := Scan(dir); err != nil {
		t.Fatalf("scan under lock: %v", err)
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}
	l2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after close: %v", err)
	}
	l2.Close()
}

func TestCheckpointFallbackOnCorruptNewest(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2, 0)
	if _, err := l.Checkpoint(Checkpoint{NextSub: 2, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Plant a corrupt "newer" checkpoint; recovery must fall back to the
	// valid one and still replay the tail after it.
	if err := os.WriteFile(filepath.Join(dir, checkpointName(99)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checkpoint == nil || got.Checkpoint.Seq != 2 || len(got.Tail) != 2 || got.LastSeq != 4 {
		t.Fatalf("fallback scan: %+v", got)
	}
}

// TestUnreadableSoleCheckpointRefused: a checkpoint deletes the segments
// it covers, so when the only checkpoint is unreadable, the oldest
// segment left starts past every seq the scan can account for.
// Recovering without the checkpoint would serve an empty tenant and
// restart the sequence at 1 inside a segment named for seq 6; recovery
// refuses with ErrSequence instead, naming that segment.
func TestUnreadableSoleCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, 0)
	if _, err := l.Checkpoint(Checkpoint{NextSub: 5, Epoch: 5}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpointName(5))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 1
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Scan(dir); !errors.Is(err, ErrSequence) || !strings.Contains(err.Error(), segmentName(6)) {
		t.Fatalf("scan over an unreadable sole checkpoint: %v, want ErrSequence naming %s", err, segmentName(6))
	}
	if l, _, err := Open(dir, Options{}); !errors.Is(err, ErrSequence) {
		if err == nil {
			l.Close()
		}
		t.Fatalf("open over an unreadable sole checkpoint: %v, want ErrSequence", err)
	}
}

// TestAppendRefusesOversizedRecord: a record whose frame payload is over
// the cap the scan reads is refused before any byte is written. Written,
// it would read back as corruption and be truncated as a torn tail at the
// next open, losing a record the caller was told is logged. The refusal
// leaves the log usable, and the next record takes the refused one's seq.
func TestAppendRefusesOversizedRecord(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 2, 0)
	before, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}

	big := submitRec(strings.Repeat("x", maxBinaryPayload), 2, 2)
	if seq, err := l.Append(big); !errors.Is(err, errTooLarge) {
		t.Fatalf("oversized append = seq %d, %v; want errTooLarge", seq, err)
	}
	if l.Broken() || l.LastSeq() != 2 {
		t.Fatalf("after the refusal: broken %v, LastSeq %d", l.Broken(), l.LastSeq())
	}
	after, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	if after.LastSeq != before.LastSeq || len(after.Tail) != len(before.Tail) || after.TornBytes != 0 {
		t.Fatalf("scan after the refusal: %+v, before: %+v", after, before)
	}

	appendN(t, l, 1, 2)
	if got, err := Scan(dir); err != nil || got.LastSeq != 3 || got.TornBytes != 0 {
		t.Fatalf("scan after the next append: %+v, %v", got, err)
	}
}
