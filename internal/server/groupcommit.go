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
// durable. A round opens with the first request and takes along every
// request already waiting; while another tenant loop is busy (mid-cycle,
// so it may still ask to commit) the round also waits for it, for at
// most the window (Config.WALGroupCommitWindow), and never for an idle
// loop. The scheduler then syncs the round's logs in parallel and
// releases every waiter at once. Each log is its own file, so a round
// shares the wait, never an fsync, and each log is fsynced before any
// of its ops is acknowledged (acked ⇒ logged ⇒ fsynced).
//
// A log appears at most once per round: its only committer is its
// tenant's loop, which blocks in commit until the round resolves. The
// scheduler therefore calls Log.Sync strictly after the loop's appends
// and strictly before the loop continues — the same single-threaded
// access pattern the Log demands, just briefly delegated.
//
// Every enter must be matched by exactly one commit or leave; a leaked
// count would make every round wait out the full window. The count
// races benignly with run: a loop that enters just after a round closes
// commits in the next one, a loop that enters while a round collects
// may extend it but never past the window, and a stale wake token only
// causes a re-check.
type groupCommitter struct {
	window time.Duration
	reqs   chan gcReq
	quit   chan struct{}
	done   chan struct{}
	// busy counts tenant loops mid-cycle (see enter); wake carries a
	// leave to a round collecting for them.
	busy atomic.Int64
	wake chan struct{}

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
	// heldRounds counts rounds that waited for a busy loop;
	// windowExpiries counts the held rounds the window closed before
	// every busy loop had committed or left.
	heldRounds     atomic.Int64
	windowExpiries atomic.Int64
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
		wake: make(chan struct{}, 1),
	}
	go gc.run()
	return gc
}

// enter marks the calling tenant loop busy: it has started a mutation
// cycle and may yet ask to commit, so an open round waits for it (up to
// the window). The cycle ends in exactly one commit or leave.
func (gc *groupCommitter) enter() { gc.busy.Add(1) }

// leave ends a mutation cycle that has nothing to commit (it appended
// nothing, or its WAL failed) and wakes a round that may be waiting for
// it.
func (gc *groupCommitter) leave() {
	gc.busy.Add(-1)
	select {
	case gc.wake <- struct{}{}:
	default:
	}
}

// commit ends the calling loop's mutation cycle and makes l durable
// through the scheduler, blocking until l's fsync round completes.
// Called from tenant event loops. If the scheduler has shut down (a
// request racing server close), the caller syncs directly — same
// guarantee, no sharing.
func (gc *groupCommitter) commit(l *wal.Log) error {
	gc.busy.Add(-1)
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
		// Collect co-committers while another loop is mid-cycle and can
		// still join, for at most the window; a round no busy loop can
		// join skips the timer. The drain below still absorbs requests
		// already waiting, so simultaneous arrivals share even without
		// added latency.
		if gc.window > 0 && gc.busy.Load() > 0 {
			gc.heldRounds.Add(1)
			if timer == nil {
				timer = time.NewTimer(gc.window)
			} else {
				timer.Reset(gc.window)
			}
		collect:
			for gc.busy.Load() > 0 {
				select {
				case r := <-gc.reqs:
					round = append(round, r)
				case <-gc.wake:
				case <-timer.C:
					gc.windowExpiries.Add(1)
					break collect
				case <-gc.quit:
					timer.Stop()
					gc.flush(round)
					return
				}
			}
			timer.Stop()
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
