// Package server is the snapshotimmut flagging fixture: writes into
// published view and snapshot memory, direct and laundered.
package server

import "lintfix/snapshotimmut/stream"

type tenant struct {
	mgr *stream.Manager
}

// handlePlan mutates the snapshot it just obtained: a lock-free reader
// elsewhere observes the write mid-flight.
func (t *tenant) handlePlan() uint64 {
	snap := t.mgr.Snapshot()
	snap.Epoch = 42 // want `write to memory reachable from a stream\.Snapshot in handlePlan`
	return snap.Epoch
}

// handleServe writes a slice element reached through the snapshot.
func (t *tenant) handleServe(snap *stream.Snapshot) {
	snap.Requests[0].Serving = true // want `write to memory reachable from a stream\.Snapshot in handleServe`
}

// handleAlias launders the write through a local alias: the slice
// header is a copy, its backing array is still snapshot memory.
func (t *tenant) handleAlias(snap *stream.Snapshot) {
	reqs := snap.Requests
	reqs[0].ID = "" // want `write to memory reachable from a stream\.Snapshot in handleAlias`
}

// scrub writes through its parameter; scrubVia forwards it. Passing
// snapshot memory down this two-level chain is the laundering the
// parameter-mutation fact exists to catch.
func scrub(rs *stream.RequestState) { rs.Serving = false }

func scrubVia(rs *stream.RequestState) { scrub(rs) }

func (t *tenant) handleScrub(snap *stream.Snapshot) {
	scrubVia(&snap.Requests[0]) // want `passes memory reachable from a stream\.Snapshot to scrubVia, which writes through it`
}

// handleView bumps the epoch of a published view.
func (t *tenant) handleView(v *stream.View) {
	v.Epoch = 7 // want `write to memory reachable from a stream\.View in handleView`
}

// handleStrategies writes through a RequestState value copy into the
// strategy slice it shares with the view.
func (t *tenant) handleStrategies(v *stream.View) {
	rs, _ := v.Request("a")
	rs.Strategies[0] = 3 // want `write to memory reachable from a shared RequestState\.Strategies slice in handleStrategies`
}

// handleStrategiesAlias launders the same write through a local alias.
func (t *tenant) handleStrategiesAlias(snap *stream.Snapshot) {
	ks := snap.Requests[0].Strategies
	ks[1] = 0 // want `write to memory reachable from a shared RequestState\.Strategies slice in handleStrategiesAlias`
}
