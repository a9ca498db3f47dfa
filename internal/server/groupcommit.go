package server

import (
	"sync"
	"sync/atomic"
	"time"

	"stratrec/internal/wal"
)

// groupCommitter is the server-wide commit scheduler and the only path
// by which a tenant's WAL records become durable: every durable server
// runs one. Each tenant loop appends its coalesced batch (buffered,
// wal.Options.SyncManual) and then asks the scheduler to make the log
// durable. The scheduler collects requests for up to the window
// (Config.WALGroupCommitWindow), then syncs all the collected logs — in
// parallel, since they are distinct files — and releases every waiter at
// once, so tenants that finish a batch at around the same time share one
// fsync round. At window 0 a round opens as soon as a request arrives
// and takes along only the requests already waiting: each batch commits
// as soon as it is appended. At any window each log is fsynced before
// any of its ops is acknowledged (acked ⇒ logged ⇒ fsynced); only the
// waiting is shared.
//
// A log appears at most once per round: its only committer is its
// tenant's loop, which blocks in commit until the round resolves. The
// scheduler therefore calls Log.Sync strictly after the loop's appends
// and strictly before the loop continues — the same single-threaded
// access pattern the Log demands, just briefly delegated.
type groupCommitter struct {
	window time.Duration
	reqs   chan gcReq
	quit   chan struct{}
	done   chan struct{}

	// rounds counts fsync rounds; commits counts the log-sync requests
	// they absorbed (commits/rounds is the achieved sharing factor);
	// maxRound is the largest round observed.
	rounds   atomic.Int64
	commits  atomic.Int64
	maxRound atomic.Int64
	// directSyncs counts commits that resolved through the shutdown
	// fallback (scheduler stopped, caller fsynced its own log). They are
	// deliberately outside rounds/commits — no round happened — and a
	// nonzero value under normal operation means the Server.Close
	// ordering (tenant loops first, scheduler last) has regressed.
	directSyncs atomic.Int64
}

type gcReq struct {
	l    *wal.Log
	done chan error
}

func newGroupCommitter(window time.Duration) *groupCommitter {
	gc := &groupCommitter{
		window: window,
		// Unbuffered by design: a send succeeds only when the scheduler
		// goroutine receives it, so every accepted request is guaranteed a
		// reply and a request racing shutdown falls back cleanly (see
		// commit) instead of landing in a buffer nobody drains.
		reqs: make(chan gcReq),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go gc.run()
	return gc
}

// commit makes l durable through the scheduler, blocking until l's fsync
// round completes. Called from tenant event loops. If the scheduler has
// shut down (a request racing server close), the caller syncs directly —
// same guarantee, no sharing.
func (gc *groupCommitter) commit(l *wal.Log) error {
	r := gcReq{l: l, done: make(chan error, 1)}
	select {
	case gc.reqs <- r:
		return <-r.done
	case <-gc.quit:
		// Accounted separately: without this, shutdown-window commits
		// silently vanished from /metrics (neither rounds nor commits
		// moved), hiding a broken Close ordering.
		gc.directSyncs.Add(1)
		return l.Sync()
	}
}

// stop shuts the scheduler down. Pending commit callers resolve via the
// direct-sync fallback; the server stops tenant loops first, so in the
// normal shutdown order there are none.
func (gc *groupCommitter) stop() {
	close(gc.quit)
	<-gc.done
}

func (gc *groupCommitter) run() {
	defer close(gc.done)
	round := make([]gcReq, 0, 16)
	var timer *time.Timer
	for {
		// Wait for the round's opening request.
		select {
		case r := <-gc.reqs:
			round = append(round[:0], r)
		case <-gc.quit:
			return
		}
		// Collect co-committers for up to the window. A zero window still
		// absorbs requests that are already waiting (the drain below), so
		// simultaneous arrivals share even without added latency.
		if gc.window > 0 {
			if timer == nil {
				timer = time.NewTimer(gc.window)
			} else {
				timer.Reset(gc.window)
			}
		collect:
			for {
				select {
				case r := <-gc.reqs:
					round = append(round, r)
				case <-timer.C:
					break collect
				case <-gc.quit:
					if !timer.Stop() {
						<-timer.C
					}
					gc.flush(round)
					return
				}
			}
		}
	drain:
		for {
			select {
			case r := <-gc.reqs:
				round = append(round, r)
			default:
				break drain
			}
		}
		gc.flush(round)
	}
}

// flush syncs every log in the round — in parallel, they are distinct
// files — and releases the waiters.
func (gc *groupCommitter) flush(round []gcReq) {
	if len(round) == 0 {
		return
	}
	gc.rounds.Add(1)
	gc.commits.Add(int64(len(round)))
	if n := int64(len(round)); n > gc.maxRound.Load() {
		gc.maxRound.Store(n)
	}
	if len(round) == 1 {
		round[0].done <- round[0].l.Sync()
		return
	}
	var wg sync.WaitGroup
	for _, r := range round {
		wg.Add(1)
		go func(r gcReq) {
			defer wg.Done()
			r.done <- r.l.Sync()
		}(r)
	}
	wg.Wait()
}
