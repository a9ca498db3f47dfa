package wal

import (
	"bytes"
	"encoding/json"
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
	// V is the payload format version (FormatVersion).
	V int `json:"v"`
	// Seq is the last WAL sequence number the checkpoint covers; records
	// with larger sequence numbers form the replay tail.
	Seq uint64 `json:"seq"`
	// Epoch is the pool-generation counter at Seq, force-restored after
	// the pool is re-admitted so epoch observables survive the restart.
	Epoch uint64 `json:"epoch"`
	// Availability is the expected workforce W at Seq.
	Availability float64 `json:"availability"`
	// NextSub is the manager's submission counter at Seq. Persisted
	// separately from the requests because the highest-numbered
	// submissions may have been revoked.
	NextSub uint64 `json:"next_sub"`
	// Requests lists the open pool in admission order.
	Requests []CheckpointRequest `json:"requests"`
}

// CheckpointRequest is one open request inside a Checkpoint.
type CheckpointRequest struct {
	ID      string  `json:"id"`
	Quality float64 `json:"quality"`
	Cost    float64 `json:"cost"`
	Latency float64 `json:"latency"`
	K       int     `json:"k"`
	// Sub is the request's submission sequence number; recovery re-admits
	// with stream.Manager.Resubmit under exactly this number.
	Sub uint64 `json:"sub"`
	// Req/Infeasible carry the request's aggregated workforce requirement
	// as computed at its original admission, the same recovery fingerprint
	// submit Records carry: re-admission must recompute it bit-for-bit or
	// the checkpoint is being restored against the wrong tenant universe.
	Req        float64 `json:"req,omitempty"`
	Infeasible bool    `json:"infeasible,omitempty"`
}

// ErrCheckpoint marks unreadable or version-mismatched checkpoint files.
var ErrCheckpoint = errors.New("wal: bad checkpoint")

// EncodeCheckpoint renders the single framed line of a checkpoint file.
func EncodeCheckpoint(cp Checkpoint) ([]byte, error) {
	payload, err := json.Marshal(cp)
	if err != nil {
		return nil, err
	}
	return appendFrame(make([]byte, 0, len(payload)+frameOverhead), payload), nil
}

// DecodeCheckpoint parses and verifies a checkpoint file's contents.
func DecodeCheckpoint(data []byte) (Checkpoint, error) {
	payload, err := decodeFrame(bytes.TrimSuffix(data, []byte("\n")))
	if err != nil {
		return Checkpoint{}, fmt.Errorf("%w: %v", ErrCheckpoint, err)
	}
	var cp Checkpoint
	if err := json.Unmarshal(payload, &cp); err != nil {
		return Checkpoint{}, fmt.Errorf("%w: %v", ErrCheckpoint, err)
	}
	// v2 checkpoints carry the identical schema under the identical JSON
	// framing — only the record framing changed in v3 — so both stamps
	// decode.
	if cp.V != FormatVersion && cp.V != 2 {
		return Checkpoint{}, fmt.Errorf("%w: version %d (this build reads 2 and %d)",
			ErrCheckpoint, cp.V, FormatVersion)
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
func latestCheckpoint(dir string, seqs []uint64) (*Checkpoint, error) {
	for i := len(seqs) - 1; i >= 0; i-- {
		data, err := os.ReadFile(filepath.Join(dir, checkpointName(seqs[i])))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		cp, err := DecodeCheckpoint(data)
		if err != nil {
			continue // fall back to the previous checkpoint
		}
		if cp.Seq != seqs[i] {
			continue // name/content mismatch: treat as corrupt
		}
		return &cp, nil
	}
	return nil, nil
}
