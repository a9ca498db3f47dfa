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
// (FormatVersion) and carry a log-wide monotonically increasing sequence
// number assigned at append time; recovery rejects gaps and regressions,
// and tolerates exactly one torn record at the very tail of the last
// segment (the unacknowledged write a crash can leave behind), which is
// truncated away before the log reopens for append. Only a frame cut
// short or failing its CRC counts as torn: an intact frame this build
// does not read, such as a record of another version, is refused with
// its typed error wherever it sits. Records in the v1/v2 JSON-line
// framing that builds before v3 wrote are not read either: a scan that
// meets one refuses the log with ErrVersion instead of truncating it as
// a torn tail.
//
// A checkpoint file is written in the same frames: one header frame
// (seq, epoch, availability, submission counter, request count) followed
// by the open pool as the submit-record frames that re-admit it, in
// admission order (see checkpoint.go). It holds the full tenant state as
// of WAL sequence number Seq. Writing a checkpoint rotates the log onto a
// fresh segment and deletes every segment and checkpoint made obsolete
// by it, which is how the log is truncated. A checkpoint in the JSON-line
// framing of earlier builds is refused with ErrVersion, not skipped.
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
//	3 — same record schema as v2, binary framing (binary.go).
//	    Checkpoints are v3 frames too: a header frame and one submit
//	    frame per open request (checkpoint.go). This build reads v3
//	    only and refuses a v1/v2 JSON-line record, or a JSON-line
//	    checkpoint, with ErrVersion.
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
	// stays 0.
	Infeasible bool
}

// Decode errors. ErrTorn marks frames that end mid-record (the one fault
// a crash legitimately produces); ErrVersion marks an intact record or
// checkpoint in a format this build does not read, such as a v1/v2 JSON
// line; ErrKind marks an intact frame whose payload this build does not
// read; ErrCRC marks corruption.
var (
	ErrTorn    = errors.New("wal: torn record")
	ErrCRC     = errors.New("wal: CRC mismatch")
	ErrVersion = errors.New("wal: unsupported format version")
	ErrKind    = errors.New("wal: unknown record kind")
)

// castagnoli is the CRC32-C table (the polynomial with hardware support
// on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// isJSONLine reports whether line (without its trailing newline) is an
// intact frame of the JSON-line framing earlier builds wrote v1/v2
// records and checkpoints in: 8 hex CRC32-C chars, a space, and the
// payload the CRC covers.
func isJSONLine(line []byte) bool {
	if len(line) < 9 || line[8] != ' ' {
		return false
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return false
	}
	return crc32.Checksum(line[9:], castagnoli) == want
}
