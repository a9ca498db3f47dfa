// Package stream implements the fully dynamic deployment setting the
// paper's conclusion poses as an open problem: deployment requests arrive
// one by one, may be revoked, and worker availability drifts over time. A
// Manager maintains a running plan under these events through an
// incremental batch.Planner, so every intermediate plan keeps the static
// guarantees (exact throughput, 1/2-approximate pay-off) over the
// currently open requests while each event costs a plan repair, not a
// from-scratch BatchStrat run. The expensive part, the workforce
// requirement of a request, is computed once at admission and cached.
//
// The epoch counter is a pool-generation counter: it advances on every
// applied mutation (submit, revoke, availability change), whether or not
// the serving set moved, so pollers and If-None-Match-style clients never
// miss a pool change. Callers that queue events can wrap them in
// Begin/Commit so the planner repairs once per batch instead of per
// event.
//
// The open pool is a persistent hash trie (trie.go) that the manager
// path-copies on write. Publish hands out an immutable View of it in
// O(1), and the writes before it cost O(changed · log₃₂ n): readers on
// other goroutines use Views lock-free while the manager moves on, and
// a full Snapshot is built from a View only when a reader asks for one.
package stream

import (
	"errors"
	"fmt"
	"iter"
	"math"

	"stratrec/internal/adpar"
	"stratrec/internal/batch"
	"stratrec/internal/strategy"
	"stratrec/internal/workforce"
)

// Manager maintains a deployment plan over a changing request pool. It
// compiles the ADPaR serving index for its strategy set once at
// construction and reuses it for every displaced-request alternative,
// instead of re-deriving the normalized problem per event.
type Manager struct {
	strategies strategy.Set
	models     workforce.ModelProvider
	mode       workforce.Mode
	objective  batch.Objective
	adparIdx   *adpar.Index

	w float64
	// pool holds the open requests: a persistent hash trie keyed by ID
	// (trie.go) whose nodes published Views share. gen stamps the nodes
	// written since the last Publish, which alone may be edited in place.
	pool    *node
	gen     uint64
	open    int // leaves in pool
	serving int // leaves in pool whose serving bit is set
	// admitted counts admissions; it is the next record's ordinal.
	admitted uint64
	nextSeq  uint64 // monotonic submission counter (admission seq source)
	epoch    uint64
	// objectiveSum and workforceSum are the committed plan's totals, read
	// from the planner at each sync.
	objectiveSum, workforceSum float64

	// planner maintains the density-ordered feasible pool and repairs the
	// greedy plan incrementally; items are keyed by the request's
	// submission sequence number (unique for the manager's lifetime, so
	// ties in the density order break deterministically by admission).
	// bySeq maps a planner item index back to its admission record for
	// serving-bit sync.
	planner *batch.Planner
	bySeq   map[int]*admission
	// batching defers the serving-bit sync (and the planner repair
	// behind it) between Begin and Commit, so a drained batch of n events
	// costs one repair.
	batching bool
}

// ErrEmptyID rejects a submission without a request ID.
var ErrEmptyID = errors.New("stream: request needs an ID")

// MaxIDLen bounds a submitted request ID, in bytes. A durable tenant
// writes the ID into the request's WAL and checkpoint frames, whose
// payload the log caps at 1 MiB, so the bound sits far below that cap.
const MaxIDLen = 1024

// ErrIDTooLong rejects a submission whose ID is longer than MaxIDLen.
var ErrIDTooLong = errors.New("stream: request ID too long")

// ErrDuplicateID rejects a submission reusing an *open* request's ID. A
// revoked ID is forgotten entirely, so resubmitting it is not an error: the
// resubmission is admitted as a brand-new request (fresh requirement, fresh
// admission position).
var ErrDuplicateID = errors.New("stream: duplicate request ID")

// ErrUnknownID rejects revocation of a request that is not open.
var ErrUnknownID = errors.New("stream: unknown request ID")

// ErrBadAvailability rejects an expected workforce outside [0,1] (NaN
// included).
var ErrBadAvailability = errors.New("stream: availability outside [0,1]")

// ErrSeqOverflow rejects a submission whose sequence number no longer fits
// the planner's int item index. The workforce.ModelProvider contract is
// full-width uint64, so requirements never alias; this guard covers the
// one remaining narrowing (batch.Item.Index) explicitly instead of
// silently wrapping — reachable only on 32-bit platforms after 2^31
// lifetime submissions, or via a Resubmit of a corrupt recovered sequence.
var ErrSeqOverflow = errors.New("stream: submission sequence exceeds the planner index range")

// NewManager builds a dynamic deployment manager. The shared ADPaR index
// is compiled lazily on the first Alternative call, so managers that never
// serve alternatives pay nothing for it.
func NewManager(set strategy.Set, models workforce.ModelProvider, mode workforce.Mode, objective batch.Objective, initialW float64) (*Manager, error) {
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if models == nil {
		return nil, errors.New("stream: nil model provider")
	}
	if initialW < 0 || initialW > 1 || math.IsNaN(initialW) {
		return nil, fmt.Errorf("%w: %v", ErrBadAvailability, initialW)
	}
	return &Manager{
		strategies: set,
		models:     models,
		mode:       mode,
		objective:  objective,
		w:          initialW,
		pool:       &node{},
		gen:        1,
		planner:    batch.NewPlanner(initialW),
		bySeq:      map[int]*admission{},
	}, nil
}

// Epoch is the pool-generation counter: it increments on every applied
// mutation — submit, revoke, availability change — even when the serving
// set is unchanged, so callers can poll it cheaply and never miss a pool
// mutation. Failed mutations leave it untouched.
func (m *Manager) Epoch() uint64 { return m.epoch }

// SubmissionCounter returns the sequence number the next fresh submission
// will receive. Checkpoints persist it so that recovery restores the
// counter even when the highest-numbered submissions have been revoked.
func (m *Manager) SubmissionCounter() uint64 { return m.nextSeq }

// RestoreCounters force-sets the plan epoch and advances the submission
// counter to at least nextSub. It exists solely for crash recovery: after
// the checkpointed pool has been re-admitted (Resubmit), the recovered
// manager's epoch is aligned with the pre-crash value so that epoch-based
// observables survive a restart; replaying the WAL tail then advances it
// exactly as the original run did.
func (m *Manager) RestoreCounters(epoch, nextSub uint64) {
	m.epoch = epoch
	if nextSub > m.nextSeq {
		m.nextSeq = nextSub
	}
}

// Availability returns the current expected workforce W.
func (m *Manager) Availability() float64 { return m.w }

// Open returns the number of open (non-revoked) requests.
func (m *Manager) Open() int { return m.open }

// Submit admits a request, computes and caches its workforce requirement,
// and replans. It returns whether the new plan serves the request (inside
// a Begin/Commit batch the replan is deferred, so the return value is the
// pre-batch decision; consult Served after Commit instead).
//
// Error paths are consistent and leave the manager unchanged: an empty ID
// is ErrEmptyID, an ID over MaxIDLen bytes is ErrIDTooLong, invalid
// parameters surface the strategy validation error, and an ID currently
// open is ErrDuplicateID. An ID that was revoked is no longer open and may
// be resubmitted freely; the manager keeps no memory of revoked requests.
func (m *Manager) Submit(d strategy.Request) (bool, error) {
	if len(d.ID) > MaxIDLen {
		return false, fmt.Errorf("%w: %d bytes, at most %d", ErrIDTooLong, len(d.ID), MaxIDLen)
	}
	return m.admit(d, m.nextSeq)
}

// Resubmit admits a request under a previously assigned submission
// sequence number. It exists for crash recovery (internal/wal replay):
// re-admitting a request with its original Seq reproduces the original
// workforce requirement bit-for-bit even under a per-request
// ModelProvider. The manager's submission counter advances past seq, so
// later fresh submissions never collide with restored ones. It does not
// apply MaxIDLen, so a log written before that bound still recovers.
func (m *Manager) Resubmit(d strategy.Request, seq uint64) (bool, error) {
	return m.admit(d, seq)
}

// admit is the shared submission path: validate, compute and cache the
// requirement under the given submission sequence number, insert into the
// planner and (outside a batch) sync the repaired plan.
func (m *Manager) admit(d strategy.Request, seq uint64) (bool, error) {
	if d.ID == "" {
		return false, ErrEmptyID
	}
	if err := d.Validate(); err != nil {
		return false, err
	}
	h := hashID(d.ID)
	if _, open := m.pool.get(h, d.ID); open {
		return false, fmt.Errorf("%w: %s", ErrDuplicateID, d.ID)
	}
	if seq > uint64(math.MaxInt) {
		return false, fmt.Errorf("%w: %d", ErrSeqOverflow, seq)
	}
	// The submission counter — not the pool position — is the reqIdx of
	// the ModelProvider contract: pool positions are reused after revokes,
	// which would alias per-request model rows between distinct live
	// requests (and could index out of a FullModels matrix).
	req := workforce.RequirementFor(d, seq, m.strategies, m.models, m.mode)
	rec := &admission{id: d.ID, request: d, seq: seq, req: req, ord: m.admitted, hash: h}
	if req.Feasible() {
		// Infeasible requests can never be served at any availability and
		// stay out of the planner pool entirely.
		if err := m.planner.Insert(batch.Item{
			Index:      int(seq),
			Value:      m.value(rec),
			Workforce:  req.Workforce,
			Strategies: req.Strategies,
		}); err != nil {
			// Only reachable by a Resubmit reusing a live request's
			// sequence number (a corrupt recovery input); the pool is
			// unchanged.
			return false, err
		}
		m.bySeq[int(seq)] = rec
	}
	m.pool, _, _ = m.pool.put(m.gen, 0, leaf{rec: rec})
	m.open++
	m.admitted++
	if seq >= m.nextSeq {
		m.nextSeq = seq + 1
	}
	m.epoch++
	if !m.batching {
		m.sync()
	}
	served, _ := m.Served(d.ID)
	return served, nil
}

// Revoke withdraws an open request and replans; freed workforce may admit
// previously displaced requests. Removing the request from the pool
// trie costs O(log₃₂ n).
func (m *Manager) Revoke(id string) error {
	pool, old, ok := m.pool.remove(m.gen, 0, hashID(id), id)
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownID, id)
	}
	m.pool = pool
	m.open--
	if old.serving {
		m.serving--
	}
	if old.rec.req.Feasible() {
		m.planner.Remove(int(old.rec.seq))
		delete(m.bySeq, int(old.rec.seq))
	}
	m.epoch++
	if !m.batching {
		m.sync()
	}
	return nil
}

// SetAvailability moves the expected workforce and replans. Values outside
// [0,1] — NaN included — are rejected with ErrBadAvailability and leave the
// manager unchanged.
func (m *Manager) SetAvailability(w float64) error {
	if w < 0 || w > 1 || math.IsNaN(w) {
		return fmt.Errorf("%w: %v", ErrBadAvailability, w)
	}
	m.w = w
	m.planner.SetBudget(w)
	m.epoch++
	if !m.batching {
		m.sync()
	}
	return nil
}

// Begin enters deferred-replan mode: subsequent Submit/Resubmit/Revoke/
// SetAvailability calls update the pool and advance the epoch but postpone
// the planner repair and serving-flag sync until Commit, so a queued batch
// of n events costs one plan repair instead of n. While a batch is open,
// Submit's served return value and the serving flags reflect the last
// committed plan; read them after Commit. Begin/Commit do not nest.
func (m *Manager) Begin() { m.batching = true }

// Commit leaves deferred-replan mode, repairs the plan once, and syncs
// every serving flag the batch changed.
func (m *Manager) Commit() {
	m.batching = false
	m.sync()
}

// sync repairs the planner, rewrites the serving bit of every leaf whose
// selection changed — only those — and records the plan's totals.
func (m *Manager) sync() {
	for _, idx := range m.planner.Changed() {
		rec, ok := m.bySeq[idx]
		if !ok {
			continue // left the pool while selected
		}
		sel := m.planner.IsSelected(idx)
		var old leaf
		m.pool, old, _ = m.pool.put(m.gen, 0, leaf{rec: rec, serving: sel})
		switch {
		case sel && !old.serving:
			m.serving++
		case !sel && old.serving:
			m.serving--
		}
	}
	m.objectiveSum, m.workforceSum = m.planner.Objective(), m.planner.Workforce()
}

// lookup finds an open request's leaf.
func (m *Manager) lookup(id string) (leaf, bool) {
	return m.pool.get(hashID(id), id)
}

// Served reports the current plan's decision for an open request:
// served=false, open=false for IDs not in the pool. Inside a Begin/Commit
// batch the answer reflects the last committed plan.
func (m *Manager) Served(id string) (served, open bool) {
	l, ok := m.lookup(id)
	return l.serving, ok
}

// SubmissionSeq returns the submission sequence number of an open request
// (the reqIdx its requirement was computed under).
func (m *Manager) SubmissionSeq(id string) (uint64, bool) {
	l, ok := m.lookup(id)
	if !ok {
		return 0, false
	}
	return l.rec.seq, true
}

// Requirement returns the cached aggregated workforce requirement of an
// open request. The serving layer logs it as a per-submit recovery
// fingerprint: it is a pure function of (request, submission seq, catalog,
// models, mode), so a recovered replay that computes anything different
// was run against the wrong tenant universe.
func (m *Manager) Requirement(id string) (workforce.Requirement, bool) {
	l, ok := m.lookup(id)
	if !ok {
		return workforce.Requirement{}, false
	}
	return l.rec.req, true
}

// Requests returns the open requests in admission order, read straight
// from the pool without building a Snapshot — what a checkpoint
// encodes. Serving flags are the last committed plan's. Like every other
// method it is for the manager's single writer.
func (m *Manager) Requests() iter.Seq[RequestState] {
	return func(yield func(RequestState) bool) {
		for _, l := range m.pool.admitted(m.open) {
			if !yield(l.state()) {
				return
			}
		}
	}
}

// Plan is the current serving decision.
type Plan struct {
	// Serving lists served request IDs in admission order.
	Serving []string
	// Displaced lists open-but-unserved request IDs in admission order.
	Displaced []string
	// Objective is the achieved objective value over open requests and
	// Workforce the plan's total workforce consumption, both summed by
	// the planner's own additions — bit-identical to a fresh BatchStrat
	// run over the open pool.
	Objective float64
	Workforce float64
}

// RequestState is one open request's state inside a View or Snapshot.
type RequestState struct {
	ID      string
	Request strategy.Request
	// Seq is the request's submission sequence number: checkpoints persist
	// it so recovery can re-admit the request under its original model
	// row.
	Seq uint64
	// Serving reports whether the plan serves the request.
	Serving bool
	// Feasible reports whether the request can be served at any
	// availability (false when fewer than K strategies can ever satisfy
	// it).
	Feasible bool
	// Workforce is the cached aggregated requirement; +Inf when
	// infeasible.
	Workforce float64
	// Strategies holds the K recommended strategy IDs (nil when
	// infeasible). The slice is shared with the request's admission
	// record: read it, never write it.
	Strategies []int
}

// View is an immutable published state of a Manager: the plan's
// headline numbers plus the open pool, shared with the manager rather
// than copied. Publish returns one in O(1); the manager's later writes
// copy the trie nodes they touch, so a View never changes. A
// single-writer event loop stores one in an atomic pointer after each
// cycle, and readers on any goroutine use it without locks.
type View struct {
	Epoch        uint64
	Availability float64
	// Open counts the open requests, Serving those the plan serves.
	Open, Serving int
	// Objective and Workforce are the plan's totals (see Plan).
	Objective, Workforce float64

	pool *node
}

// Publish freezes the manager's current state into a View. Nothing is
// copied: the View shares the pool trie, and advancing the generation
// makes the manager's next write to any shared node copy it instead.
// Inside a Begin/Commit batch the serving flags and totals are the last
// committed plan's. Writer only.
func (m *Manager) Publish() *View {
	m.gen++
	return &View{
		Epoch:        m.epoch,
		Availability: m.w,
		Open:         m.open,
		Serving:      m.serving,
		Objective:    m.objectiveSum,
		Workforce:    m.workforceSum,
		pool:         m.pool,
	}
}

// Request returns the state of an open request by ID in O(log₃₂ n),
// without allocating.
//
//lint:allocfree
func (v *View) Request(id string) (RequestState, bool) {
	if v == nil {
		return RequestState{}, false
	}
	l, ok := v.pool.get(hashID(id), id)
	if !ok {
		return RequestState{}, false
	}
	return l.state(), true
}

// Snapshot is the full state of a View laid out for readers that walk
// every open request: the plan with its ID lists, the availability, and
// the requests in admission order. It is immutable like the View it was
// built from, whose admission records (Strategies slices included) it
// shares.
type Snapshot struct {
	Epoch        uint64
	Availability float64
	Plan         Plan
	// Requests lists every open request in admission order.
	Requests []RequestState
}

// Snapshot builds the view's full Snapshot in O(n log n). It is the one
// place a Snapshot is built.
func (v *View) Snapshot() *Snapshot {
	s := &Snapshot{
		Epoch:        v.Epoch,
		Availability: v.Availability,
		Plan:         Plan{Objective: v.Objective, Workforce: v.Workforce},
		Requests:     make([]RequestState, 0, v.Open),
	}
	if v.Serving > 0 {
		s.Plan.Serving = make([]string, 0, v.Serving)
	}
	if v.Open > v.Serving {
		s.Plan.Displaced = make([]string, 0, v.Open-v.Serving)
	}
	for _, l := range v.pool.admitted(v.Open) {
		rs := l.state()
		s.Requests = append(s.Requests, rs)
		if rs.Serving {
			s.Plan.Serving = append(s.Plan.Serving, rs.ID)
		} else {
			s.Plan.Displaced = append(s.Plan.Displaced, rs.ID)
		}
	}
	return s
}

// Snapshot publishes the manager's current state and builds its full
// Snapshot: Publish().Snapshot(). Writer only; the result is safe to
// hand to any number of concurrent readers.
func (m *Manager) Snapshot() *Snapshot { return m.Publish().Snapshot() }

// ErrServed reports that an alternative was requested for a request the
// current plan already serves.
var ErrServed = errors.New("stream: request is served; no alternative needed")

// Alternative recommends alternative deployment parameters (ADPaR,
// Section 4) for an open request the current plan does not serve. It runs
// against the manager's shared serving index — compiled on first use, like
// the Manager itself not safe for concurrent use — so the steady-state
// per-request cost is the sweep alone, with no per-event re-derivation of
// the normalized problem.
func (m *Manager) Alternative(id string) (adpar.Solution, error) {
	l, ok := m.lookup(id)
	if !ok {
		return adpar.Solution{}, fmt.Errorf("%w: %s", ErrUnknownID, id)
	}
	if l.serving {
		return adpar.Solution{}, fmt.Errorf("%w: %s", ErrServed, id)
	}
	ix, err := m.Index()
	if err != nil {
		return adpar.Solution{}, err
	}
	return ix.Solve(l.rec.request)
}

// Index returns the manager's shared ADPaR serving index, compiling it on
// first use. The returned index is immutable and safe for concurrent Solve
// calls, so callers may serve alternatives from it without going through
// the manager at all (the lock-free read path of a serving tenant).
func (m *Manager) Index() (*adpar.Index, error) {
	if m.adparIdx == nil {
		ix, err := adpar.NewIndex(m.strategies)
		if err != nil {
			return nil, err
		}
		m.adparIdx = ix
	}
	return m.adparIdx, nil
}

// AttachIndex installs a pre-compiled ADPaR index, sharing one warm
// compilation across managers (or between a manager and an HTTP serving
// layer) over the same strategy set. The index must have been compiled for
// a set of the same size; attaching replaces any lazily compiled index.
func (m *Manager) AttachIndex(ix *adpar.Index) error {
	if ix == nil {
		return errors.New("stream: nil index")
	}
	if ix.Len() != len(m.strategies) {
		return fmt.Errorf("stream: index compiled for %d strategies, manager has %d", ix.Len(), len(m.strategies))
	}
	m.adparIdx = ix
	return nil
}

func (m *Manager) value(r *admission) float64 {
	if m.objective == batch.Payoff {
		return r.request.Cost
	}
	return 1
}
