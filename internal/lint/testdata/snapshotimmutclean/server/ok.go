// Package server is the snapshotimmut clean fixture: reads, value
// copies, rebinding, and read-only helpers are all legal.
package server

import "lintfix/snapshotimmutclean/stream"

type tenant struct {
	mgr *stream.Manager
}

func (t *tenant) handlePlan() (uint64, int) {
	snap := t.mgr.Snapshot()
	open := len(snap.Requests)
	// A struct value copied out of the snapshot is the caller's to
	// mutate: the copy carries no snapshot memory.
	rs := snap.Requests[0]
	rs.Serving = true
	// Rebinding the variable is not a write into the snapshot.
	snap = t.mgr.Snapshot()
	return snap.Epoch, open
}

// peek reads through snapshot memory without writing it.
func peek(rs *stream.RequestState) bool { return rs.Serving }

func (t *tenant) handlePeek(snap *stream.Snapshot) bool {
	return peek(&snap.Requests[0])
}

// handleSummary reads a view's headline numbers and one request. The
// RequestState is a copy: its own fields, Strategies included, may be
// rebound.
func (t *tenant) handleSummary(v *stream.View) (uint64, bool) {
	rs, ok := v.Request("a")
	rs.Serving = !rs.Serving
	rs.Strategies = nil
	return v.Epoch, ok && rs.Serving
}
