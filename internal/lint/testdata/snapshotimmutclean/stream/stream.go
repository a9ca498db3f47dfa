// Package stream is the snapshotimmut clean fixture's stream mimic.
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

// put is the trie's path-copy constructor.
func (n *node) put(gen uint64, s slot) *node {
	c := n
	if n.gen != gen {
		c = &node{gen: gen, slots: append([]slot(nil), n.slots...)}
	}
	c.slots = append(c.slots, s)
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

// Snapshot is the sanctioned Snapshot constructor.
func (v *View) Snapshot() *Snapshot {
	s := &Snapshot{Epoch: v.Epoch, view: v}
	for _, sl := range v.pool.slots {
		s.Requests = append(s.Requests, RequestState{ID: sl.rec.id, Serving: sl.serving, Strategies: sl.rec.strategies})
	}
	return s
}

func (m *Manager) Snapshot() *Snapshot { return m.Publish().Snapshot() }

// Request reads one leaf; the RequestState it returns is a copy whose
// Strategies slice stays shared.
func (v *View) Request(id string) (RequestState, bool) {
	for _, sl := range v.pool.slots {
		if sl.rec.id == id {
			return RequestState{ID: id, Serving: sl.serving, Strategies: sl.rec.strategies}, true
		}
	}
	return RequestState{}, false
}
