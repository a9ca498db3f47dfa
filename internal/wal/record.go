// Package wal is the durability subsystem behind stratrec serve: a
// per-tenant append-only write-ahead log of stream events plus periodic
// snapshot checkpoints, so a tenant's open requests, availability, plan
// epoch and submission counter survive a crash or restart.
//
// # On-disk layout
//
// One directory per tenant:
//
//	<data-dir>/<tenant>/
//	    wal-00000000000000000001.log    log segment (first seq it holds)
//	    wal-00000000000000000421.log    current segment, open for append
//	    checkpoint-00000000000000000420.ckpt
//
// A log segment is a sequence of framed records in one of two framings.
// New records are written in the v3 binary framing (see binary.go):
//
//	<0xB3> <payload len, u32 LE> <crc32c, u32 LE> <payload>
//
// Older segments — and the head of the segment that was live at the
// v2→v3 upgrade — hold the v1/v2 JSON framing, one record per line:
//
//	<crc32c hex, 8 chars> <space> <JSON payload> <newline>
//
// The first byte discriminates the framings (JSON frames start with a
// lowercase-hex digit, never 0xB3), so one segment may mix them and the
// scan handles the upgrade boundary without a migration step. In both
// framings the CRC covers exactly the payload bytes, so any torn or
// corrupted record is detected before it is trusted. Payloads are
// versioned (Record.V) and carry a log-wide monotonically increasing
// sequence number assigned at append time; recovery rejects gaps and
// regressions, and tolerates exactly one torn record at the very tail of
// the last segment (the unacknowledged write a crash can leave behind),
// which is truncated away before the log reopens for append.
//
// A checkpoint file is a single framed line whose payload is a Checkpoint:
// the full tenant state (open requests in admission order with their
// submission sequence numbers, availability, plan epoch, submission
// counter) as of WAL sequence number Seq. Writing a checkpoint rotates the
// log onto a fresh segment and deletes every segment and checkpoint made
// obsolete by it, which is how the log is truncated.
//
// # Fault model
//
// By default every record is fsynced before Append returns. Under
// Options.SyncManual a record is durable once the owner's next Sync
// returns; the server acknowledges no mutation before the Sync of its
// batch, so an acknowledged mutation is never lost. A failed append or
// sync rolls the segment back to its durable prefix. Checkpoint writes go
// through a temp file, fsync, and atomic rename, and segment deletion
// happens only after the checkpoint is durable — a crash at any point
// leaves either the old checkpoint+segments or the new ones, never
// neither.
//
// # Ordering under coalesced replans
//
// The serving tenant loop drains up to a batch of pending mutations,
// applies them through the stream manager and appends one record per
// mutation, in apply order, before the batch's single view publish
// and before any reply is sent, and the batch's records are fsynced
// together before the replies: acknowledged ⇒ logged ⇒ fsynced holds per
// mutation regardless of batch size. Two
// per-record integrity anchors survive coalescing because neither
// depends on when the plan was repaired: Record.Epoch is the
// pool-generation counter (exactly one step per applied mutation), and
// submit records carry the requirement fingerprint computed at
// admission. Replay applies records one at a time and verifies both.
package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
)

// FormatVersion is the record/checkpoint payload version. Decoders reject
// other versions loudly instead of guessing.
//
// Version history:
//
//	1 — PR 4: epoch bumped only on serving-set changes; no requirement
//	    fingerprint. A v1 log's epoch trail is meaningless under the v2
//	    semantics, so v2 readers reject v1 records outright rather than
//	    reporting a spurious (or, worse, missing) epoch divergence.
//	2 — epoch is a pool-generation counter (one step per applied
//	    mutation, serving-set change or not), and submit records carry
//	    the admitted request's computed workforce requirement as a
//	    recovery fingerprint.
//	3 — same record schema as v2, binary framing (binary.go): no JSON
//	    on the append or replay hot path. v2 JSON records remain
//	    readable forever; v2 and v3 records may share a segment.
const FormatVersion = 3

// jsonFormatVersion is the newest JSON-framed record version this build
// still reads. v3 records are binary-only, so a CRC-valid JSON payload
// claiming v3 was not written by any released encoder and is rejected.
const jsonFormatVersion = 2

// Record kinds mirror the three mutations of a stream.Manager.
const (
	KindSubmit       = "submit"
	KindRevoke       = "revoke"
	KindAvailability = "availability"
)

// Record is one logged mutation. Only successful mutations are logged —
// rejected ones (validation errors, duplicate IDs, unknown IDs) never
// change state, so replaying the log can never hit an expected error.
type Record struct {
	// V is the payload format version (FormatVersion).
	V int `json:"v"`
	// Seq is the log-wide monotonic sequence number, assigned by Append.
	Seq uint64 `json:"seq"`
	// Kind is KindSubmit, KindRevoke or KindAvailability.
	Kind string `json:"kind"`
	// ID is the affected request (submit, revoke).
	ID string `json:"id,omitempty"`
	// Quality, Cost, Latency, K describe the submitted request.
	Quality float64 `json:"quality,omitempty"`
	Cost    float64 `json:"cost,omitempty"`
	Latency float64 `json:"latency,omitempty"`
	K       int     `json:"k,omitempty"`
	// Sub is the manager's submission sequence number assigned to a
	// submit — the reqIdx of the workforce.ModelProvider contract —
	// persisted so recovery re-admits the request under its original
	// model row.
	Sub uint64 `json:"sub,omitempty"`
	// W is the new expected workforce (availability).
	W float64 `json:"w,omitempty"`
	// Epoch is the pool-generation counter after the mutation was
	// applied: one step per applied mutation, whether or not the serving
	// set moved, which makes it independent of how mutations were
	// coalesced into replan batches. Recovery replays the record and
	// verifies it reaches exactly this epoch, checking that no logged
	// mutation was lost, duplicated or reordered.
	Epoch uint64 `json:"epoch"`
	// Req is the admitted request's aggregated workforce requirement as
	// computed at the original admission (submit records of feasible
	// requests; Infeasible marks the rest, since JSON cannot carry +Inf).
	// It fingerprints the catalog, the models, the aggregation mode and
	// the submission sequence: recovery recomputes the requirement and
	// demands bit-identity, so replaying a log against the wrong tenant
	// universe fails loudly at the first submit instead of rebuilding a
	// silently different plan.
	Req        float64 `json:"req,omitempty"`
	Infeasible bool    `json:"infeasible,omitempty"`
}

// Decode errors. ErrTorn marks frames that end mid-record (the one fault
// a crash legitimately produces); the others mark corruption.
var (
	ErrTorn    = errors.New("wal: torn record")
	ErrCRC     = errors.New("wal: CRC mismatch")
	ErrVersion = errors.New("wal: unsupported record version")
	ErrKind    = errors.New("wal: unknown record kind")
)

// castagnoli is the CRC32-C table (the polynomial with hardware support
// on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameOverhead is the framed-line size beyond the payload: 8 hex CRC
// chars, one space, one newline.
const frameOverhead = 10

// appendFrame appends the framed encoding of payload to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = fmt.Appendf(dst, "%08x ", crc32.Checksum(payload, castagnoli))
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// EncodeRecord renders one JSON-framed log line for the record — the
// v1/v2 framing. The live append path writes binary v3 frames
// (AppendRecordBinary); this encoder remains for tests and tools that
// fabricate upgrade-era logs.
func EncodeRecord(rec Record) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return appendFrame(make([]byte, 0, len(payload)+frameOverhead), payload), nil
}

// decodeFrame verifies one framed line (without its trailing newline) and
// returns the JSON payload. The caller decides what the payload is.
func decodeFrame(line []byte) ([]byte, error) {
	if len(line) < frameOverhead-1 { // shorter than CRC + space + "{}" can't be whole
		return nil, fmt.Errorf("%w: %d-byte frame", ErrTorn, len(line))
	}
	if line[8] != ' ' {
		return nil, fmt.Errorf("%w: malformed frame header", ErrCRC)
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return nil, fmt.Errorf("%w: unparsable CRC: %v", ErrCRC, err)
	}
	payload := line[9:]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, fmt.Errorf("%w: want %08x, got %08x", ErrCRC, want, got)
	}
	return payload, nil
}

// DecodeRecord parses and verifies one JSON-framed log line (with or
// without its trailing newline) — the v1/v2 framing the scan falls back
// to for lines that do not open with the binary magic byte. It is the
// surface FuzzWALDecode hammers: any input must either yield a valid
// record or a typed error, never a panic or a silently wrong record.
func DecodeRecord(line []byte) (Record, error) {
	line = bytes.TrimSuffix(line, []byte("\n"))
	payload, err := decodeFrame(line)
	if err != nil {
		return Record{}, err
	}
	var rec Record
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		// The CRC matched, so this is not corruption in transit but a
		// frame written by something else entirely.
		return Record{}, fmt.Errorf("%w: CRC-valid frame with bad payload: %v", ErrKind, err)
	}
	if rec.V != jsonFormatVersion {
		return Record{}, fmt.Errorf("%w: JSON frame version %d (this build reads v%d JSON and v%d binary)",
			ErrVersion, rec.V, jsonFormatVersion, FormatVersion)
	}
	switch rec.Kind {
	case KindSubmit, KindRevoke, KindAvailability:
	default:
		return Record{}, fmt.Errorf("%w: %q", ErrKind, rec.Kind)
	}
	return rec, nil
}
