package main

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"time"

	"stratrec/internal/client"
	"stratrec/internal/synth"
)

// phaseResult is what the clients observed in one measured phase.
// Latencies are in milliseconds.
type phaseResult struct {
	mut, plan []float64
	// late is how far each event's send trailed its due time (open loop)
	// or the previous reply (closed loop): the generator's own delay.
	late                     []float64
	acked, attempted, failed int
	elapsed                  time.Duration
}

func (r *phaseResult) merge(q phaseResult) {
	r.mut = append(r.mut, q.mut...)
	r.plan = append(r.plan, q.plan...)
	r.late = append(r.late, q.late...)
	r.acked += q.acked
	r.attempted += q.attempted
	r.failed += q.failed
	r.elapsed += q.elapsed
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runPhase drives every tenant with its own client goroutine for d and
// returns the merged observations.
func runPhase(c *client.Client, w workload, in []tenantInput, d time.Duration, tr *tracer) (phaseResult, error) {
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]phaseResult, len(in))
	errs := make([]error, len(in))
	var wg sync.WaitGroup
	for i, ti := range in {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.batch > 0 {
				parts[i] = driveBatched(c, ti.name, ti.events, w, deadline, tr)
			} else {
				parts[i], errs[i] = driveOps(c, ti.name, ti.events, w, start, deadline, tr)
			}
		}()
	}
	wg.Wait()
	var r phaseResult
	for _, p := range parts {
		r.merge(p)
	}
	r.elapsed = time.Since(start)
	return r, errors.Join(errs...)
}

// driveOps replays events on the per-op routes. An open loop (w.rate>0)
// sends each event at its Poisson due time and times it from then; a
// closed loop sends the next event when the previous reply arrives.
func driveOps(c *client.Client, tenant string, evs []synth.WorkloadEvent, w workload, start, deadline time.Time, tr *tracer) (phaseResult, error) {
	ctx := context.Background()
	var r phaseResult
	var pc *pacer
	if w.rate > 0 {
		var err error
		if pc, err = newPacer(); err != nil {
			return r, err
		}
		defer pc.close()
	}
	prev := start
	for i, ev := range evs {
		var due time.Time
		if w.rate > 0 {
			due = start.Add(ev.At)
			if !due.Before(deadline) {
				break
			}
			if err := pc.wait(due); err != nil {
				return r, err
			}
		} else if !time.Now().Before(deadline) {
			break
		}
		send := time.Now()
		if w.rate > 0 {
			r.late = append(r.late, ms(send.Sub(due)))
		} else {
			r.late = append(r.late, ms(send.Sub(prev)))
			due = send
		}
		served := true
		var err error
		switch ev.Kind {
		case synth.SubmitArrival:
			id := tr.begin("http.submit", 0, i+1)
			var resp client.SubmitResponse
			resp, err = c.Submit(ctx, tenant, client.SubmitRequest{
				ID: ev.Request.ID, Quality: ev.Request.Quality, Cost: ev.Request.Cost,
				Latency: ev.Request.Latency, K: ev.Request.K,
			})
			tr.end(id)
			served = resp.Served
		case synth.RevokeArrival:
			id := tr.begin("http.revoke", 0, i+1)
			_, err = c.Revoke(ctx, tenant, ev.RevokeID)
			tr.end(id)
		case synth.DriftArrival:
			id := tr.begin("http.drift", 0, i+1)
			_, err = c.SetAvailability(ctx, tenant, ev.Availability)
			tr.end(id)
		}
		prev = time.Now()
		r.mut = append(r.mut, ms(prev.Sub(due)))
		r.attempted++
		if err != nil {
			r.failed++
		} else {
			r.acked++
			if ev.Kind == synth.SubmitArrival && !served {
				prev = r.alternative(c, tenant, ev.Request.ID, tr, i+1)
			}
		}
		if w.planEvery > 0 && (i+1)%w.planEvery == 0 {
			prev = r.planRead(c, tenant, tr)
		}
	}
	return r, nil
}

// driveBatched replays events as closed-loop /ops bodies of w.batch ops
// and reads a PlanSummary every w.planEvery ops. It asks no
// alternatives: this mix measures the write path.
func driveBatched(c *client.Client, tenant string, evs []synth.WorkloadEvent, w workload, deadline time.Time, tr *tracer) phaseResult {
	ctx := context.Background()
	var r phaseResult
	prev := time.Now()
	ops := make([]client.BatchOp, 0, w.batch)
	sincePlan := 0
	for lo := 0; lo+w.batch <= len(evs); lo += w.batch {
		body := evs[lo : lo+w.batch]
		ops = ops[:0]
		for _, ev := range body {
			ops = append(ops, batchOp(ev))
		}
		send := time.Now()
		if !send.Before(deadline) {
			break
		}
		r.late = append(r.late, ms(send.Sub(prev)))
		id := tr.begin("http.batch", 0, lo+1)
		resp, err := c.SendOps(ctx, tenant, ops)
		tr.end(id)
		prev = time.Now()
		r.mut = append(r.mut, ms(prev.Sub(send)))
		r.attempted += len(ops)
		if err != nil || len(resp.Results) != len(ops) {
			r.failed += len(ops)
			continue
		}
		for _, res := range resp.Results {
			if res.Status != http.StatusOK {
				r.failed++
			} else {
				r.acked++
			}
		}
		if sincePlan += len(ops); w.planEvery > 0 && sincePlan >= w.planEvery {
			sincePlan = 0
			prev = r.planRead(c, tenant, tr)
		}
	}
	return r
}

// alternative asks for a displaced request's ADPaR alternative. A 404 or
// 409 means the plan moved between the two calls (the request was
// revoked or became served) and is not a failure.
func (r *phaseResult) alternative(c *client.Client, tenant, reqID string, tr *tracer, op int) time.Time {
	id := tr.begin("http.alternative", 0, op)
	_, err := c.Alternative(context.Background(), tenant, reqID)
	tr.end(id)
	r.attempted++
	var apiErr *client.APIError
	if err != nil && !(errors.As(err, &apiErr) &&
		(apiErr.Status == http.StatusNotFound || apiErr.Status == http.StatusConflict)) {
		r.failed++
	}
	return time.Now()
}

func (r *phaseResult) planRead(c *client.Client, tenant string, tr *tracer) time.Time {
	send := time.Now()
	id := tr.begin("http.plan", 0, 0)
	_, err := c.PlanSummary(context.Background(), tenant)
	tr.end(id)
	end := time.Now()
	r.plan = append(r.plan, ms(end.Sub(send)))
	r.attempted++
	if err != nil {
		r.failed++
	}
	return end
}
