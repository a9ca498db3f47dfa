// Laundering fixtures for the interprocedural loopsafety: mutations
// reached through helper chains that PR 9's per-function allowlist
// could not see.
package server

import "lintfix/loopsafety/stream"

// adminReset models an HTTP handler entering recovery's restore through
// a helper: this chain runs it concurrently with the event loop, so
// restore inherits no ownership.
func (t *tenant) adminReset(w float64) error {
	return t.restoreHelper(w)
}

func (t *tenant) restoreHelper(w float64) error {
	return t.restore(w)
}

func (t *tenant) restore(w float64) error {
	return t.mgr.SetAvailability(w) // want `stream\.Manager\.SetAvailability called from restore.*reached from adminReset → restoreHelper`
}

// newTenant may mutate (the loop has not started), but a goroutine it
// launches is not the loop goroutine.
func newTenant() *tenant {
	t := &tenant{mgr: &stream.Manager{}}
	go t.pump()
	return t
}

func (t *tenant) pump() {
	t.mgr.Begin() // want `stream\.Manager\.Begin called from pump.*reached from newTenant \(go\)`
}
