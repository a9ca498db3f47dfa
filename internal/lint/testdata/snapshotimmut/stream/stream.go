// Package stream is the snapshotimmut fixture's stream mimic: the View
// and Snapshot shapes, the pool trie they share, the sanctioned writers,
// and in-package violations proving even stream itself may not write
// published memory.
package stream

type admission struct {
	id         string
	strategies []int
}

type slot struct {
	rec     *admission
	serving bool
}

type node struct {
	gen   uint64
	slots []slot
}

type RequestState struct {
	ID         string
	Serving    bool
	Strategies []int
}

type View struct {
	Epoch uint64
	pool  *node
}

type Snapshot struct {
	Epoch    uint64
	Requests []RequestState

	view *View
}

type Manager struct {
	epoch, gen uint64
	pool       *node
}

// put and remove are the trie's path-copy constructors: they edit only
// nodes the current generation allocated and copy the rest.
func (n *node) put(gen uint64, s slot) *node {
	c := n
	if n.gen != gen {
		c = &node{gen: gen, slots: append([]slot(nil), n.slots...)}
	}
	c.slots = append(c.slots, s)
	return c
}

func (n *node) remove(gen uint64, i int) *node {
	c := n
	if n.gen != gen {
		c = &node{gen: gen, slots: append([]slot(nil), n.slots...)}
	}
	c.slots = append(c.slots[:i], c.slots[i+1:]...)
	return c
}

func (m *Manager) Submit(id string) {
	m.pool = m.pool.put(m.gen, slot{rec: &admission{id: id}})
	m.epoch++
}

func (m *Manager) Publish() *View {
	m.gen++
	return &View{Epoch: m.epoch, pool: m.pool}
}

// Snapshot on a View is the allowlisted Snapshot construction site:
// these writes fill the Snapshot before it is returned and must not
// flag.
func (v *View) Snapshot() *Snapshot {
	s := &Snapshot{Epoch: v.Epoch, view: v}
	for _, sl := range v.pool.slots {
		s.Requests = append(s.Requests, RequestState{ID: sl.rec.id, Serving: sl.serving, Strategies: sl.rec.strategies})
	}
	return s
}

func (m *Manager) Snapshot() *Snapshot { return m.Publish().Snapshot() }

func (v *View) Request(id string) (RequestState, bool) {
	for _, sl := range v.pool.slots {
		if sl.rec.id == id {
			return RequestState{ID: id, Serving: sl.serving, Strategies: sl.rec.strategies}, true
		}
	}
	return RequestState{}, false
}

// Rewrite mutates a finished snapshot outside the constructor.
func (m *Manager) Rewrite(s *Snapshot) {
	s.Epoch++ // want `write to memory reachable from a stream\.Snapshot in Rewrite`
}

// Serve flips a serving bit in place, through a trie node a published
// view shares.
func (m *Manager) Serve(v *View) {
	v.pool.slots[0].serving = true // want `write to memory reachable from a stream trie node in Serve`
}

// Rename rewrites an admission record every view shares.
func (m *Manager) Rename(v *View) {
	rec := v.pool.slots[0].rec
	rec.id = "" // want `write to memory reachable from a stream admission record in Rename`
}
