package conformance

import (
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"stratrec/internal/server"
)

// node is the server under test across its incarnations: every oracle
// starts, kills and restarts it through newNode, start, kill and finish,
// so the durability root and the server's lifecycle live in one place.
type node struct {
	// cfg is the configuration the next start uses. A caller may change
	// it between incarnations (the overload oracle restarts without its
	// injected faults); start sets its DataDir to root.
	cfg  server.Config
	root string // durability root; empty for an in-memory node
	temp bool   // root was made by newNode and is removed by a clean finish

	srv *server.Server // the live incarnation; nil when killed
	hs  *httptest.Server
}

// newNode prepares a node. A durable node gets a durability root: dir
// when given, which must be empty or absent (leftover tenant state would
// be recovered into the first incarnation and every oracle expectation
// would be off by a whole previous run), or a fresh temp dir. The root
// exists once newNode returns, so a caller can write into it (the
// overload oracle's log journal) before the first start.
func newNode(cfg server.Config, dir string, durable bool) (*node, error) {
	n := &node{cfg: cfg}
	if !durable {
		return n, nil
	}
	if dir == "" {
		tmp, err := os.MkdirTemp("", "stratrec-conform-*")
		if err != nil {
			return nil, err
		}
		dir, n.temp = tmp, true
	} else if entries, err := os.ReadDir(dir); err == nil && len(entries) > 0 {
		return nil, fmt.Errorf("conformance: data dir %s is not empty", dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	n.root = dir
	return n, nil
}

// start brings up an incarnation behind a loopback listener. It returns
// how long server.New took: on a durable root that is the recovery time.
func (n *node) start() (time.Duration, error) {
	n.cfg.DataDir = n.root
	begin := time.Now() //lint:allow clockdiscipline -- the recovery duration reports real restart latency to the operator
	srv, err := server.New(n.cfg)
	took := time.Since(begin) //lint:allow clockdiscipline -- the recovery duration reports real restart latency to the operator
	if err != nil {
		return took, err
	}
	n.srv, n.hs = srv, httptest.NewServer(srv.Handler())
	return took, nil
}

// kill stops the live incarnation: the listener first, then the server,
// whose loops stop and whose WAL closes holding only acknowledged bytes.
// Every acknowledged mutation was fsynced before its reply, so this
// leaves exactly the byte stream a SIGKILL would have.
func (n *node) kill() {
	if n.srv == nil {
		return
	}
	n.hs.Close()
	n.srv.Close()
	n.srv, n.hs = nil, nil
}

// finish kills the node and disposes of its root. A temp root is kept
// exactly when keep is set, which the oracles set when the run errored
// or failed; an explicit root is always left in place.
func (n *node) finish(keep bool) {
	n.kill()
	if n.temp && !keep {
		os.RemoveAll(n.root)
	}
}
