package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
)

// TraceHeader is the per-request correlation header. A client may attach
// its own X-Trace-Id to any request; the server generates one otherwise.
// Either way the ID is echoed on the response (header and, for errors,
// the envelope's trace_id), carried on the op through admission, the
// coalescing loop, the WAL append and the group-commit round, and
// stamped on every structured log event the op produces — so one grep
// over the log explains any ack or shed a client holds.
const TraceHeader = "X-Trace-Id"

// maxTraceIDLen caps inbound trace IDs: beyond this the client-supplied
// ID is replaced rather than truncated (a truncated ID correlates with
// nothing).
const maxTraceIDLen = 64

// newTraceID returns a fresh 16-hex-char trace ID.
func newTraceID() string {
	var b [8]byte
	// crypto/rand never fails on the platforms we run on; a zero ID on a
	// hypothetical failure still correlates (uniqueness suffers, tracing
	// does not break).
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// validTraceID accepts printable-ASCII IDs up to maxTraceIDLen — enough
// for UUIDs, hex and ULIDs, while keeping log lines and headers clean.
func validTraceID(id string) bool {
	if id == "" || len(id) > maxTraceIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return false
		}
	}
	return true
}

type traceKey struct{}

// withTrace stashes a trace ID in ctx.
func withTrace(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceKey{}, id)
}

// traceFrom extracts the trace ID carried by ctx ("" when absent).
func traceFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// traceMiddleware resolves every request's trace ID — inbound header
// when present and valid, freshly generated otherwise — echoes it on the
// response immediately (so even a shed 429 carries it), and stashes it
// in the request context for handlers and the error envelope.
func traceMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(TraceHeader)
		if !validTraceID(id) {
			id = newTraceID()
		}
		w.Header().Set(TraceHeader, id)
		next.ServeHTTP(w, r.WithContext(withTrace(r.Context(), id)))
	})
}

// discardLogger is the default when Config.Logger is nil: every level
// disabled, so the hot-path Enabled guards skip attribute construction
// entirely.
func discardLogger() *slog.Logger { return slog.New(slog.DiscardHandler) }

// Structured event names. One op produces exactly one terminal event —
// "reply" (the loop's definitive answer, success or domain error) XOR
// "shed" (rejected without surviving apply: overload, deadline, tenant
// closed/draining, WAL broken) — plus debug-level progress events
// between admission and the answer. The exactly-one-terminal-event
// contract is what lets the conformance oracle correlate every ack and
// shed to a single log line by trace ID.
const (
	evAdmit      = "admit"      // op accepted into the inbox (debug)
	evShed       = "shed"       // terminal: rejected, left no durable trace
	evApply      = "apply"      // loop applied the mutation (debug)
	evAppend     = "append"     // WAL append done, seq assigned (debug)
	evCommit     = "commit"     // group-commit round made the batch durable (debug)
	evPublish    = "publish"    // view published at epoch (debug)
	evReply      = "reply"      // terminal: definitive answer sent
	evCheckpoint = "checkpoint" // checkpoint cut + WAL truncated
	evRecovery   = "recovery"   // startup recovery finished
	evDrain      = "drain"      // tenant drained and detached
	evCreate     = "create"     // tenant created at runtime
)
