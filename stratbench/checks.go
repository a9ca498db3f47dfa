package main

import (
	"context"
	"fmt"

	"stratrec/internal/batch"
	"stratrec/internal/client"
	"stratrec/internal/stream"
)

// checkPlan recomputes BatchStrat from scratch over a snapshot's open
// requests and demands the snapshot serve exactly the requests it
// selects. Items follow internal/conformance/oracle.go: Index is the
// submission sequence, Value the throughput objective's 1, Workforce the
// requirement cached in the snapshot.
func checkPlan(tenant string, snap *stream.Snapshot) error {
	items := make([]batch.Item, 0, len(snap.Requests))
	for _, rs := range snap.Requests {
		if rs.Feasible {
			items = append(items, batch.Item{
				Index: int(rs.Seq), Value: 1,
				Workforce: rs.Workforce, Strategies: rs.Strategies,
			})
		}
	}
	want := batch.BatchStrat(items, snap.Availability)
	serving := 0
	for _, rs := range snap.Requests {
		sel := rs.Feasible && want.IsSelected(int(rs.Seq))
		if rs.Serving != sel {
			return fmt.Errorf("%s: request %s (seq %d) serving=%v, BatchStrat says %v",
				tenant, rs.ID, rs.Seq, rs.Serving, sel)
		}
		if sel {
			serving++
		}
	}
	if serving != len(want.Selected) || serving != len(snap.Plan.Serving) {
		return fmt.Errorf("%s: plan serves %d, snapshot flags %d, BatchStrat selects %d",
			tenant, len(snap.Plan.Serving), serving, len(want.Selected))
	}
	return nil
}

// checkServer runs the end-of-round checks against a live server: every
// acked mutation shows in the server's mutation counters (and, durable,
// in its WAL appends), and every tenant's plan is BatchStrat's.
func checkServer(ls *liveServer, w workload, in []tenantInput, before, after map[string]any, acked int) []string {
	var fails []string
	delta := func(field string) int {
		return int(tenantSum(after, in, field) - tenantSum(before, in, field))
	}
	if got := delta("submits") + delta("revokes") + delta("availability_updates"); got != acked {
		fails = append(fails, fmt.Sprintf("clients saw %d acked mutations, server counted %d", acked, got))
	}
	if w.durable {
		if got := delta("wal.appends"); got != acked {
			fails = append(fails, fmt.Sprintf("clients saw %d acked mutations, WAL appended %d", acked, got))
		}
	}
	for _, ti := range in {
		t, err := ls.srv.Tenant(ti.name)
		if err != nil {
			fails = append(fails, err.Error())
			continue
		}
		if err := checkPlan(ti.name, t.Snapshot()); err != nil {
			fails = append(fails, err.Error())
		}
	}
	return fails
}

// recorded is what a tenant served just before the recovery data dir was
// closed.
type recorded struct {
	epoch   uint64
	summary client.PlanSummaryResponse
}

// checkRecovered compares a recovered tenant with what it served before
// the restart.
func checkRecovered(ls *liveServer, tenant string, want recorded) error {
	t, err := ls.srv.Tenant(tenant)
	if err != nil {
		return err
	}
	if got := t.Snapshot().Epoch; got != want.epoch {
		return fmt.Errorf("%s: recovered epoch %d, want %d", tenant, got, want.epoch)
	}
	got, err := ls.c.PlanSummary(context.Background(), tenant)
	if err != nil {
		return err
	}
	if got != want.summary {
		return fmt.Errorf("%s: recovered plan summary %+v, want %+v", tenant, got, want.summary)
	}
	return nil
}
