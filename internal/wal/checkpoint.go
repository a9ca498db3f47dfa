package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Checkpoint is a full frozen tenant state as of WAL sequence Seq: what a
// stream.Snapshot holds, minus the derived plan (which recovery recomputes
// deterministically by re-admitting the pool).
type Checkpoint struct {
	// Seq is the last WAL sequence number the checkpoint covers; records
	// with larger sequence numbers form the replay tail.
	Seq uint64
	// Epoch is the pool-generation counter at Seq, force-restored after
	// the pool is re-admitted so epoch observables survive the restart.
	Epoch uint64
	// Availability is the expected workforce W at Seq.
	Availability float64
	// NextSub is the manager's submission counter at Seq. Persisted
	// separately from the requests because the highest-numbered
	// submissions may have been revoked.
	NextSub uint64
	// Requests lists the open pool in admission order.
	Requests []CheckpointRequest
}

// CheckpointRequest is one open request inside a Checkpoint: the submit
// record that re-admits the request. Recovery re-admits it with
// stream.Manager.Resubmit under its submission number Sub and checks the
// requirement fingerprint Req/Infeasible, exactly as it replays a submit
// from the tail. Kind, Seq, Epoch and W are not stored.
type CheckpointRequest = Record

// ErrCheckpoint marks unreadable checkpoint files.
var ErrCheckpoint = errors.New("wal: bad checkpoint")

// A checkpoint file is one header frame followed by the open pool as
// submit-record frames, all in the v3 frame layout records use:
//
//	header payload  version byte (3), kind byte ckptHeaderKind, seq and
//	                epoch (uvarint), availability (float64 bits,
//	                little-endian), next submission number and request
//	                count (uvarint)
//	then            exactly count submit frames, Seq 0 and Epoch 0, in
//	                admission order, and nothing after them
//
// ckptHeaderKind is no record kind, so the record decoder refuses a
// header frame with ErrKind wherever one turns up in a log segment.
const ckptHeaderKind = 'C'

// encodeCheckpoint renders the contents of a checkpoint file.
func encodeCheckpoint(cp Checkpoint) []byte {
	dst := make([]byte, 0, 64*(len(cp.Requests)+1))
	dst = beginFrame(dst)
	dst = append(dst, FormatVersion, ckptHeaderKind)
	dst = binary.AppendUvarint(dst, cp.Seq)
	dst = binary.AppendUvarint(dst, cp.Epoch)
	dst = appendBinFloat(dst, cp.Availability)
	dst = binary.AppendUvarint(dst, cp.NextSub)
	dst = binary.AppendUvarint(dst, uint64(len(cp.Requests)))
	endFrame(dst, 0)
	for _, r := range cp.Requests {
		r.Kind, r.Seq, r.Epoch, r.W = KindSubmit, 0, 0, 0
		dst = AppendRecordBinary(dst, r)
	}
	return dst
}

// decodeCheckpoint parses and verifies a checkpoint file's contents. Every
// refusal wraps ErrCheckpoint, and whatever it accepts re-encodes
// byte-identically (FuzzCheckpoint).
func decodeCheckpoint(data []byte) (Checkpoint, error) {
	var cp Checkpoint
	p, size, err := readFrame(data)
	if err != nil {
		return cp, fmt.Errorf("%w: header: %v", ErrCheckpoint, err)
	}
	data = data[size:]
	var count uint64
	ok := len(p) >= 2 && p[0] == FormatVersion && p[1] == ckptHeaderKind
	if ok {
		cp.Seq, p, ok = readBinUvarint(p[2:])
	}
	if ok {
		cp.Epoch, p, ok = readBinUvarint(p)
	}
	if ok {
		cp.Availability, p, ok = readBinFloat(p)
	}
	if ok {
		cp.NextSub, p, ok = readBinUvarint(p)
	}
	if ok {
		count, p, ok = readBinUvarint(p)
	}
	if !ok || len(p) != 0 {
		return cp, fmt.Errorf("%w: not a v%d checkpoint header", ErrCheckpoint, FormatVersion)
	}
	// Every frame takes at least a header's bytes, so a larger count is
	// corruption; checked before the count sizes an allocation.
	if count > uint64(len(data)/binHeaderSize) {
		return cp, fmt.Errorf("%w: %d requests cannot fit in %d bytes", ErrCheckpoint, count, len(data))
	}
	cp.Requests = make([]CheckpointRequest, 0, count)
	for i := range count {
		r, size, err := DecodeRecordBinary(data)
		if err != nil {
			return cp, fmt.Errorf("%w: request %d of %d: %v", ErrCheckpoint, i, count, err)
		}
		if r.Kind != KindSubmit || r.Seq != 0 || r.Epoch != 0 {
			return cp, fmt.Errorf("%w: request %d is a %s record with seq %d and epoch %d, not a bare submit",
				ErrCheckpoint, i, r.Kind, r.Seq, r.Epoch)
		}
		cp.Requests = append(cp.Requests, r)
		data = data[size:]
	}
	if len(data) != 0 {
		return cp, fmt.Errorf("%w: %d bytes after the last request", ErrCheckpoint, len(data))
	}
	return cp, nil
}

// --- directory naming ---

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
	seqDigits  = 20 // enough for any uint64, keeps names sortable
)

func segmentName(firstSeq uint64) string {
	return segPrefix + pad(firstSeq) + segSuffix
}

func checkpointName(seq uint64) string {
	return ckptPrefix + pad(seq) + ckptSuffix
}

func pad(seq uint64) string {
	s := strconv.FormatUint(seq, 10)
	return strings.Repeat("0", seqDigits-len(s)) + s
}

// parseSeqName extracts the sequence number of a segment or checkpoint
// file name; ok is false for unrelated files.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	if len(mid) != seqDigits {
		return 0, false
	}
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listDir enumerates segment and checkpoint files, sorted ascending by
// their embedded sequence number.
func listDir(dir string) (segments, checkpoints []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeqName(e.Name(), segPrefix, segSuffix); ok {
			segments = append(segments, seq)
		}
		if seq, ok := parseSeqName(e.Name(), ckptPrefix, ckptSuffix); ok {
			checkpoints = append(checkpoints, seq)
		}
	}
	sort.Slice(segments, func(a, b int) bool { return segments[a] < segments[b] })
	sort.Slice(checkpoints, func(a, b int) bool { return checkpoints[a] < checkpoints[b] })
	return segments, checkpoints, nil
}

// latestCheckpoint loads the newest decodable checkpoint, skipping over
// corrupt ones (a corrupt newest checkpoint falls back to the previous,
// whose covering segments are only deleted after a successor is durable).
// An intact JSON-line checkpoint, the format builds before this one wrote,
// is refused with ErrVersion rather than skipped: skipping it would lose
// the state it holds.
func latestCheckpoint(dir string, seqs []uint64) (*Checkpoint, error) {
	for i := len(seqs) - 1; i >= 0; i-- {
		name := checkpointName(seqs[i])
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		cp, err := decodeCheckpoint(data)
		if err != nil {
			if isJSONLine(bytes.TrimSuffix(data, []byte("\n"))) {
				return nil, fmt.Errorf("%w: %s is a JSON-line checkpoint; this build reads only v%d frame checkpoints",
					ErrVersion, name, FormatVersion)
			}
			continue // fall back to the previous checkpoint
		}
		if cp.Seq != seqs[i] {
			continue // name/content mismatch: treat as corrupt
		}
		return &cp, nil
	}
	return nil, nil
}
