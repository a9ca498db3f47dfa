//go:build !linux

package main

import "time"

// pacer waits for an open-loop client's due times.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

// wait returns at t, or at once if t has passed.
func (p *pacer) wait(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (p *pacer) close() error { return nil }
