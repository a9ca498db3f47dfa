// Package server is the loopsafety clean fixture: mutations only from
// the loop-owning allowlist, reads from anywhere.
package server

import "lintfix/loopsafety/stream"

type tenant struct {
	mgr *stream.Manager
}

func newTenant(id string, w float64) (*tenant, error) {
	t := &tenant{mgr: &stream.Manager{}}
	if err := t.mgr.Submit(id); err != nil {
		return nil, err
	}
	if err := t.restore(w); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *tenant) applyBatch(ids []string) error {
	t.mgr.Begin()
	for _, id := range ids {
		if err := t.applyOne(id); err != nil {
			return err
		}
	}
	t.mgr.Commit()
	return nil
}

// applyOne mutates from a helper whose only caller is the loop-owned
// applyBatch: PR 9's per-function allowlist flagged this by
// construction; ownership now propagates down the call graph.
func (t *tenant) applyOne(id string) error {
	return t.mgr.Submit(id)
}

// restore is not on the owner allowlist: it mutates because its only
// caller is newTenant, which owns the manager until the loop starts.
func (t *tenant) restore(w float64) error {
	return t.mgr.SetAvailability(w)
}

func (t *tenant) health() (uint64, int) {
	return t.mgr.Epoch(), t.mgr.Open()
}
