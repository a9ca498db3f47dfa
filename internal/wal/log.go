package wal

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
)

// ErrLocked reports a directory whose log another live process holds
// open.
var ErrLocked = errors.New("wal: directory is locked by another process")

// ErrSequence marks a log whose record sequence numbers are not the
// contiguous, strictly increasing run the appender writes — corruption
// that recovery refuses to paper over.
var ErrSequence = errors.New("wal: broken record sequence")

// Options tunes a Log.
type Options struct {
	// SyncManual makes Append only buffer: the owner decides when records
	// become durable by calling Sync. The server opens every tenant log
	// this way — its commit scheduler syncs once per coalesced batch
	// (in a round other tenants' logs may join), and the tenant loop
	// acknowledges nothing before that Sync returns. Without it every
	// Append fsyncs before it returns.
	SyncManual bool
	// TestSyncHook, when non-nil, runs at the start of every fsync,
	// before the buffered records are flushed to the file. Sleeping inside
	// models fsync latency; returning an error fails the sync — the Sync
	// call under SyncManual (the server's commit round), the triggering
	// append otherwise — with the buffered records still unflushed: the
	// log marks itself broken and rolls back to its durable prefix, so a
	// failed record can never resurface at recovery. Fault-injection
	// schedules for chaos/conformance testing hang off this hook;
	// production configs leave it nil.
	TestSyncHook func() error
	// TestWriteHook, when non-nil, runs at the start of every Append,
	// before the record's bytes reach the buffered writer. Returning an
	// error fails the append exactly like a disk write failure: the log
	// marks itself broken and rolls the segment back to its durable
	// prefix — destroying any records buffered (or spilled but not yet
	// fsynced) past it, which under manual sync can include earlier
	// records of the same coalesced batch. That rollback is precisely
	// the hazard the hook exists to exercise: TestSyncHook never fires
	// inside a manual-sync Append, so append-path failures need their
	// own injection point. Production configs leave it nil.
	TestWriteHook func() error
}

// Recovered is the result of scanning a tenant's log directory: the state
// to rebuild (checkpoint + tail) and what the scan observed.
type Recovered struct {
	// Checkpoint is the newest decodable checkpoint, nil when none.
	Checkpoint *Checkpoint
	// Tail holds the records after the checkpoint, in sequence order.
	Tail []Record
	// LastSeq is the last durable sequence number (the checkpoint's when
	// the tail is empty, 0 for a fresh directory).
	LastSeq uint64
	// TornBytes counts bytes dropped from the tail of the last segment —
	// the single torn record an interrupted append may leave.
	TornBytes int
	// Segments is the number of segment files scanned.
	Segments int
}

// scanState carries what Open needs beyond Recovered to resume appending.
type scanState struct {
	rec Recovered
	// lastSegPath is the segment to keep appending to ("" when a fresh
	// segment must be created); lastSegFirst is its name's first seq.
	lastSegPath  string
	lastSegFirst uint64
	// validOffset is the byte offset of the end of the last intact record
	// in lastSegPath; everything after it is torn and must be truncated.
	validOffset int64
}

// Scan reads a tenant's log directory without modifying it: newest valid
// checkpoint, replay tail, torn-tail accounting. `stratrec recover` uses
// it for read-only inspection; Open builds on it.
func Scan(dir string) (Recovered, error) {
	st, err := scan(dir)
	return st.rec, err
}

func scan(dir string) (scanState, error) {
	var st scanState
	segs, ckpts, err := listDir(dir)
	if err != nil {
		return st, err
	}
	cp, err := latestCheckpoint(dir, ckpts)
	if err != nil {
		return st, err
	}
	st.rec.Checkpoint = cp
	var cpSeq uint64
	if cp != nil {
		cpSeq = cp.Seq
	}
	st.rec.LastSeq = cpSeq

	// Segment names carry their first seq, and a checkpoint deletes only
	// the segments it covers, so the oldest segment starts at or before
	// the first seq the checkpoint does not cover. A later start means
	// the checkpoint that covered the gap is unreadable, and recovering
	// without it would silently empty the tenant.
	if len(segs) > 0 && segs[0] > cpSeq+1 {
		return st, fmt.Errorf("%w: %s starts at seq %d, and no readable checkpoint covers seqs %d..%d",
			ErrSequence, segmentName(segs[0]), segs[0], cpSeq+1, segs[0]-1)
	}

	want := cpSeq + 1 // next tail sequence number we accept
	for si, first := range segs {
		path := filepath.Join(dir, segmentName(first))
		last := si == len(segs)-1
		if last {
			st.lastSegPath = path
			st.lastSegFirst = first
			st.validOffset = 0
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return st, err
		}
		st.rec.Segments++
		off := int64(0)
		for off < int64(len(data)) {
			rec, size, derr := DecodeRecordBinary(data[off:])
			if derr != nil {
				if at := jsonLineFrom(data, int(off)); at >= 0 {
					// An intact record in the framing older builds wrote:
					// refuse it rather than drop it as a torn tail.
					return st, fmt.Errorf("%w: %s: record at offset %d is a v1/v2 JSON line; this build reads only v%d binary frames",
						ErrVersion, segmentName(first), at, FormatVersion)
				}
				torn := errors.Is(derr, ErrTorn) || errors.Is(derr, ErrCRC)
				if last && torn && !frameFollows(data, off) {
					// The one legitimate fault: a torn append at the very
					// tail — a frame cut short or failing its CRC, with no
					// intact frame after it. Everything before it is
					// intact.
					st.rec.TornBytes = len(data) - int(off)
					return st, nil
				}
				// An intact frame this build cannot read is not a crash
				// artifact, and an unreadable record with intact frames
				// after it is disk corruption: refuse to recover a log
				// with a hole in it.
				return st, fmt.Errorf("wal: %s: record at offset %d: %w", segmentName(first), off, derr)
			}
			// Records the checkpoint covers precede the tail only in a
			// segment a crash kept from deletion; every other record,
			// seq 0 and regressions included, must be the next seq.
			covered := rec.Seq >= 1 && rec.Seq <= cpSeq && want == cpSeq+1
			if !covered {
				if rec.Seq != want {
					return st, fmt.Errorf("%w: %s offset %d: want seq %d, got %d",
						ErrSequence, segmentName(first), off, want, rec.Seq)
				}
				want++
				st.rec.Tail = append(st.rec.Tail, rec)
				st.rec.LastSeq = rec.Seq
			}
			off += int64(size)
			if last {
				st.validOffset = off
			}
		}
	}
	return st, nil
}

// jsonLineFrom returns the offset of the first intact v1/v2 JSON-line
// record that starts at off or right after a later newline, or -1 when
// there is none. A line is intact when the bytes up to its newline (or
// the end of data, should the newline itself be lost) pass the CRC check
// of the JSON-line frame. Probing past off keeps a JSON segment whose
// first line is damaged from passing for one long torn tail.
func jsonLineFrom(data []byte, off int) int {
	for {
		line, _, more := bytes.Cut(data[off:], []byte("\n"))
		if isJSONLine(line) {
			return off
		}
		if !more {
			return -1
		}
		off += len(line) + 1
	}
}

// frameFollows reports whether any intact frame — one that passes its
// length and CRC checks, whatever its payload — exists after the broken
// record starting at off, distinguishing a torn tail (nothing intact
// follows) from mid-log corruption. A torn frame gives no way to know
// where the next record would have started, so every magic byte after
// off is probed.
func frameFollows(data []byte, off int64) bool {
	for i := int(off) + 1; i < len(data); i++ {
		if data[i] == magicV3 {
			if _, _, err := readFrame(data[i:]); err == nil {
				return true
			}
		}
	}
	return false
}

// Log is an open, append-ready write-ahead log for one tenant. It is not
// goroutine-safe: exactly one appender (the tenant's single-writer event
// loop) owns it. The atomic counters exist only so metrics gauges can
// read them from other goroutines.
type Log struct {
	dir  string
	opts Options

	f        *os.File
	w        *bufio.Writer
	lock     *os.File // flock-held .lock file: one live appender per dir
	pending  int      // records appended since the last fsync
	segFirst uint64   // first seq of the current segment (its name)
	enc      []byte   // reusable binary-encoding scratch (appender only)
	// logicalOff is the end of everything written to the current segment,
	// buffered bytes included; durableOff is the prefix covered by the
	// last successful fsync. Under manual sync a whole coalesced batch
	// sits between the two, and on a sync failure the segment is rolled
	// back to durableOff: every record past it belongs to mutations whose
	// callers will be told the write failed, so none of those bytes —
	// buffered or already spilled to the file by the bufio writer — may
	// survive to resurface at recovery.
	logicalOff int64
	durableOff int64
	// broken is set on the first append/sync failure. The bytes past
	// durableOff then belong to records whose appends failed — mutations
	// the callers were never acknowledged for — so the failure handler
	// discards the buffer and truncates the file back to durableOff
	// instead of flushing: flushing would make unacknowledged records
	// durable and recovery would resurrect writes the clients were told
	// were shed.
	broken bool

	seq        atomic.Uint64 // last assigned sequence number
	durableSeq atomic.Uint64 // last sequence number covered by an fsync
	appends    atomic.Uint64
	syncs      atomic.Uint64
}

// Open scans dir (creating it if needed), truncates a torn tail, and
// returns the log ready to append, together with the recovered state the
// caller must replay before accepting new mutations. Open takes an
// exclusive advisory lock (flock) on the directory, held until Close and
// released automatically if the process dies: a second live opener —
// another serve, or recover -verify against a running server — would
// otherwise truncate and interleave the live log. The read-only Scan
// deliberately does not take the lock.
func Open(dir string, opts Options) (*Log, Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovered{}, err
	}
	lock, err := acquireLock(dir)
	if err != nil {
		return nil, Recovered{}, err
	}
	opened := false
	defer func() {
		if !opened {
			lock.Close()
		}
	}()
	st, err := scan(dir)
	if err != nil {
		return nil, Recovered{}, err
	}
	l := &Log{dir: dir, opts: opts, lock: lock}
	l.seq.Store(st.rec.LastSeq)
	l.durableSeq.Store(st.rec.LastSeq)

	if st.lastSegPath != "" {
		f, err := os.OpenFile(st.lastSegPath, os.O_RDWR, 0o644)
		if err != nil {
			return nil, Recovered{}, err
		}
		if err := f.Truncate(st.validOffset); err != nil {
			f.Close()
			return nil, Recovered{}, err
		}
		if _, err := f.Seek(st.validOffset, io.SeekStart); err != nil {
			f.Close()
			return nil, Recovered{}, err
		}
		l.f = f
		l.w = bufio.NewWriter(f)
		l.segFirst = st.lastSegFirst
		l.logicalOff = st.validOffset
		l.durableOff = st.validOffset
		if st.rec.TornBytes > 0 {
			// Make the repair durable before any new append lands on top.
			if err := l.sync(); err != nil {
				f.Close()
				return nil, Recovered{}, err
			}
		}
	} else if err := l.startSegment(st.rec.LastSeq + 1); err != nil {
		return nil, Recovered{}, err
	}
	opened = true
	return l, st.rec, nil
}

// acquireLock takes a non-blocking exclusive flock on dir/.lock. The
// kernel releases it when the holder dies, so a SIGKILLed server never
// blocks its own restart.
func acquireLock(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, ".lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
	}
	return f, nil
}

// startSegment creates and opens a fresh segment named for the first
// sequence number it will hold.
func (l *Log) startSegment(firstSeq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(firstSeq)), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.segFirst = firstSeq
	l.logicalOff = 0
	l.durableOff = 0
	return syncDir(l.dir)
}

// errBroken rejects every operation after the first append/sync failure.
var errBroken = errors.New("wal: log is broken after an earlier append failure")

// errTooLarge refuses a record whose frame payload is over
// maxBinaryPayload: the scan would read such a frame as corruption and
// truncate it, losing a record the caller was told is logged.
var errTooLarge = errors.New("wal: record too large for one frame")

// Append assigns the next sequence number, frames the record in the v3
// binary encoding and writes it. Without Options.SyncManual it also
// fsyncs, so the record is durable when Append returns; under SyncManual
// the record is durable only once a later Sync returns nil. A record too
// large for one frame is refused before any byte is written, and the log
// stays usable.
func (l *Log) Append(rec Record) (uint64, error) {
	rec.Seq = l.seq.Load() + 1
	if l.broken {
		return 0, errBroken
	}
	if _, ok := binKindOf(rec.Kind); !ok {
		return 0, fmt.Errorf("%w: %q", ErrKind, rec.Kind)
	}
	l.enc = AppendRecordBinary(l.enc[:0], rec)
	if n := len(l.enc) - binHeaderSize; n > maxBinaryPayload {
		l.enc = nil // keep the refused megabyte out of the reused buffer
		return 0, fmt.Errorf("%w: %d-byte payload, at most %d", errTooLarge, n, maxBinaryPayload)
	}
	if l.opts.TestWriteHook != nil {
		if err := l.opts.TestWriteHook(); err != nil {
			l.fail()
			return 0, err
		}
	}
	if _, err := l.w.Write(l.enc); err != nil {
		l.fail()
		return 0, err
	}
	l.logicalOff += int64(len(l.enc))
	l.seq.Store(rec.Seq)
	l.appends.Add(1)
	l.pending++
	if !l.opts.SyncManual {
		if err := l.sync(); err != nil {
			return 0, err
		}
	}
	return rec.Seq, nil
}

// Sync flushes buffered records and fsyncs the segment. Under
// Options.SyncManual this is the commit point: the server's commit
// scheduler calls it once per coalesced batch, and the tenant loop
// acknowledges the batch's mutations only after it returns nil.
func (l *Log) Sync() error {
	if l.broken {
		return errBroken
	}
	if l.pending == 0 {
		return nil
	}
	return l.sync()
}

func (l *Log) sync() error {
	if l.opts.TestSyncHook != nil {
		if err := l.opts.TestSyncHook(); err != nil {
			l.fail()
			return err
		}
	}
	if err := l.w.Flush(); err != nil {
		l.fail()
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.fail()
		return err
	}
	l.pending = 0
	l.durableOff = l.logicalOff
	l.durableSeq.Store(l.seq.Load())
	l.syncs.Add(1)
	return nil
}

// fail marks the log broken and rolls the segment back to its last
// durable byte. Everything past durableOff belongs to appends whose
// callers will be told the write failed (ErrWALBroken → 503, a promise
// the mutation leaves no trace): the bufio buffer is discarded, and any
// bytes an earlier buffer spill already pushed into the file are
// truncated away — best-effort, with a best-effort fsync of the
// truncation, since the log takes no further writes either way and
// recovery's torn-tail handling covers a truncation lost to a crash.
func (l *Log) fail() {
	l.broken = true
	l.pending = 0
	l.w.Reset(l.f)
	if err := l.f.Truncate(l.durableOff); err == nil {
		l.f.Sync()
	}
	l.logicalOff = l.durableOff
}

// Checkpoint makes cp durable as of the log's current tip, rotates onto a
// fresh segment, and truncates the log: every older segment and
// checkpoint file is deleted. cp's Seq is filled in. It returns the
// number of segment files removed.
func (l *Log) Checkpoint(cp Checkpoint) (int, error) {
	if l.broken {
		// Flushing here would durably persist the unacknowledged record a
		// failed append left in the buffer.
		return 0, errors.New("wal: checkpoint refused on a broken log")
	}
	cp.Seq = l.seq.Load()
	// Everything the checkpoint claims to cover must be durable first.
	// This can run mid-coalesced-batch (an auto-checkpoint between a
	// batch's appends, including under manual sync): making the batch's
	// records-so-far durable early is always safe — durable records are
	// acknowledged records — and durableOff/durableSeq advance so a later
	// group-commit failure in the same batch knows these ops survived.
	if err := l.w.Flush(); err != nil {
		l.fail()
		return 0, err
	}
	if err := l.f.Sync(); err != nil {
		l.fail()
		return 0, err
	}
	l.pending = 0
	l.durableOff = l.logicalOff
	l.durableSeq.Store(l.seq.Load())

	// Durable checkpoint first: temp file, fsync, atomic rename, dir sync.
	tmp := filepath.Join(l.dir, "checkpoint.tmp")
	if err := writeFileSync(tmp, encodeCheckpoint(cp)); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, checkpointName(cp.Seq))); err != nil {
		return 0, err
	}
	if err := syncDir(l.dir); err != nil {
		return 0, err
	}

	// Rotate: new segment for the records after the checkpoint — unless
	// the current segment already is that segment (a checkpoint with no
	// appends since the last rotation, e.g. an idle tenant or a repeated
	// /admin/checkpoint), in which case it is kept as-is.
	if l.segFirst != cp.Seq+1 {
		if err := l.f.Close(); err != nil {
			return 0, err
		}
		if err := l.startSegment(cp.Seq + 1); err != nil {
			return 0, err
		}
	}

	// Only now is anything older garbage.
	segs, ckpts, err := listDir(l.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, first := range segs {
		if first <= cp.Seq {
			if err := os.Remove(filepath.Join(l.dir, segmentName(first))); err == nil {
				removed++
			}
		}
	}
	for _, seq := range ckpts {
		if seq < cp.Seq {
			os.Remove(filepath.Join(l.dir, checkpointName(seq)))
		}
	}
	return removed, syncDir(l.dir)
}

// LastSeq returns the last assigned sequence number. Safe from any
// goroutine.
func (l *Log) LastSeq() uint64 { return l.seq.Load() }

// DurableSeq returns the last sequence number covered by a successful
// fsync — records at or below it survive a crash; records above it are
// buffered (or page-cached) only. Without Options.SyncManual it trails
// LastSeq by at most the in-flight append; under SyncManual by everything
// appended since the last Sync (in the server, up to a whole coalesced
// batch). Safe from any goroutine.
func (l *Log) DurableSeq() uint64 { return l.durableSeq.Load() }

// Appends returns the number of records appended since Open. Safe from
// any goroutine.
func (l *Log) Appends() uint64 { return l.appends.Load() }

// Syncs returns the number of fsync batches since Open. Safe from any
// goroutine.
func (l *Log) Syncs() uint64 { return l.syncs.Load() }

// Close flushes, fsyncs and closes the segment, then releases the
// directory lock. A broken log is closed without flushing: the buffer
// holds the one record whose append failed — an unacknowledged mutation
// that must not become durable behind the client's back.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	var flushErr, syncErr error
	if !l.broken {
		flushErr = l.w.Flush()
		syncErr = l.f.Sync()
	}
	closeErr := l.f.Close()
	l.f = nil
	if l.lock != nil {
		l.lock.Close() // closing drops the flock
		l.lock = nil
	}
	if flushErr != nil {
		return flushErr
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames, creates and removes in it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	closeErr := d.Close()
	if err != nil {
		// Some filesystems refuse directory fsync; treat as best-effort.
		if errors.Is(err, os.ErrInvalid) {
			return closeErr
		}
		return err
	}
	return closeErr
}
