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
// A log segment is a sequence of v3 binary frames (see binary.go):
//
//	<0xB3> <payload len, u32 LE> <crc32c, u32 LE> <payload>
//
// The CRC covers exactly the payload bytes, so any torn or corrupted
// record is detected before it is trusted. Payloads are versioned
// (Record.V) and carry a log-wide monotonically increasing sequence
// number assigned at append time; recovery rejects gaps and regressions,
// and tolerates exactly one torn record at the very tail of the last
// segment (the unacknowledged write a crash can leave behind), which is
// truncated away before the log reopens for append. Records in the v1/v2
// JSON-line framing that builds before v3 wrote are not read: a scan
// that meets one refuses the log with ErrVersion instead of truncating it
// as a torn tail.
//
// A checkpoint file is a single framed line,
//
//	<crc32c hex, 8 chars> <space> <JSON payload> <newline>
//
// whose payload is a Checkpoint: the full tenant state (open requests in
// admission order with their submission sequence numbers, availability,
// plan epoch, submission counter) as of WAL sequence number Seq. Writing
// a checkpoint rotates the log onto a fresh segment and deletes every
// segment and checkpoint made obsolete by it, which is how the log is
// truncated.
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
//	3 — same record schema as v2, binary framing (binary.go). This
//	    build reads v3 records only and refuses a v1/v2 JSON-line
//	    record with ErrVersion. Checkpoints keep their JSON-line
//	    framing, and v2 checkpoints stay readable.
const FormatVersion = 3

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
	V int
	// Seq is the log-wide monotonic sequence number, assigned by Append.
	Seq uint64
	// Kind is KindSubmit, KindRevoke or KindAvailability.
	Kind string
	// ID is the affected request (submit, revoke).
	ID string
	// Quality, Cost, Latency, K describe the submitted request.
	Quality float64
	Cost    float64
	Latency float64
	K       int
	// Sub is the manager's submission sequence number assigned to a
	// submit — the reqIdx of the workforce.ModelProvider contract —
	// persisted so recovery re-admits the request under its original
	// model row.
	Sub uint64
	// W is the new expected workforce (availability).
	W float64
	// Epoch is the pool-generation counter after the mutation was
	// applied: one step per applied mutation, whether or not the serving
	// set moved, which makes it independent of how mutations were
	// coalesced into replan batches. Recovery replays the record and
	// verifies it reaches exactly this epoch, checking that no logged
	// mutation was lost, duplicated or reordered.
	Epoch uint64
	// Req is the admitted request's aggregated workforce requirement as
	// computed at the original admission, on submits of feasible
	// requests. It fingerprints the catalog, the models, the aggregation
	// mode and the submission sequence: recovery recomputes the
	// requirement and demands bit-identity, so replaying a log against
	// the wrong tenant universe fails loudly at the first submit instead
	// of rebuilding a silently different plan.
	Req float64
	// Infeasible marks a submit whose requirement was +Inf at admission.
	// The binary frame carries it as a flag bit (flagInfeasible) and Req
	// stays 0, the same shape a checkpoint entry has.
	Infeasible bool
}

// Decode errors. ErrTorn marks frames that end mid-record (the one fault
// a crash legitimately produces); ErrVersion marks an intact record in a
// format this build does not read, such as a v1/v2 JSON line; the others
// mark corruption.
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
