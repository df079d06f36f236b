package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"outcore/internal/faultfs"
	"outcore/internal/ir"
	"outcore/internal/keyhash"
	"outcore/internal/layout"
	"outcore/internal/obs"
	"outcore/internal/ooc"
	"outcore/internal/server"
)

// LocalOptions configures an in-process cluster.
type LocalOptions struct {
	Nodes      int   // storage nodes (default 3)
	Replicas   int   // copies per tile (default 2)
	TileDim    int64 // routing grid edge (default 8)
	CacheTiles int   // per-node engine cache bound (default 8)
	// WAL runs each node's disk with write-ahead logging, so a killed
	// node recovers its acknowledged writes on restart.
	WAL bool
	// DurablePuts makes each node flush+sync before its PUT 204 — the
	// replication durability model: a replica's ack means durable.
	DurablePuts bool
	// HintDir durably queues the router's handoff hints ("" = memory).
	HintDir string
	// Seed derives each node's fault injector seed.
	Seed int64
	// Tenants configures both the router's and every node's tenant
	// plane (weights, quotas, chunk caps) — one policy, applied at both
	// hops, the way a fleet-wide config push would.
	Tenants server.TenantConfig
	// MaxInflight caps each node's concurrently admitted requests
	// (0 = server default). The fairness suite shrinks it to force
	// queueing.
	MaxInflight int
	// QueueDepth bounds each plane's admission queues (0 = default).
	QueueDepth int
	// Obs observes the ROUTER (nodes get plain registries).
	Obs *obs.Sink
}

func (o LocalOptions) withDefaults() LocalOptions {
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.TileDim == 0 {
		o.TileDim = 8
	}
	if o.CacheTiles <= 0 {
		o.CacheTiles = 8
	}
	return o
}

// LocalNode is one in-process storage node: a real occd serving core
// over a fault-injected disk, behind a real (loopback) HTTP server.
// The HTTP listener outlives kills and restarts — the handler behind
// it is swapped — so the node's address is stable like a production
// host's, and a killed node answers 503 (engine closed) exactly like
// a daemon whose storage died.
type LocalNode struct {
	ID  string
	URL string

	inj     *faultfs.Injector
	disk    *ooc.Disk
	eng     *ooc.Engine
	srv     *server.Server
	handler atomic.Pointer[http.Handler]
	hsrv    *httptest.Server
	gate    *partitionGate
	killed  bool
}

// partitionGate simulates a network partition between the router and
// one node: while blocked, every round-trip fails at the transport.
type partitionGate struct {
	blocked atomic.Bool
	inner   http.RoundTripper
}

var errPartitioned = errors.New("cluster: simulated network partition")

func (g *partitionGate) RoundTrip(req *http.Request) (*http.Response, error) {
	if g.blocked.Load() {
		return nil, errPartitioned
	}
	return g.inner.RoundTrip(req)
}

// LocalCluster runs a router plus N storage nodes in one process:
// real HTTP on loopback, real serving cores, fault-injected storage —
// the harness behind cluster conformance, chaos episodes, and the
// fairness suite.
type LocalCluster struct {
	Router    *Router
	RouterURL string

	opts      LocalOptions
	routerSrv *httptest.Server
	nodes     []*LocalNode
	clients   []*NodeClient
	arrays    []server.Array // creations to replay on node restart
	busy      atomic.Int64   // handlers running on the router and every node
}

// quiesceBound is how long Quiesce waits: the node client's own
// request timeout, past which no fan-out is still legitimately waiting.
const quiesceBound = 10 * time.Second

// track counts h's running handlers in lc.busy.
func (lc *LocalCluster) track(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lc.busy.Add(1)
		defer lc.busy.Add(-1)
		h.ServeHTTP(w, r)
	})
}

// Quiesce waits until no request handler runs on the router or any
// node — a scan whose client hung up included — so nothing a caller
// issued outlives the step that issued it. It fails after a bound.
func (lc *LocalCluster) Quiesce() error {
	deadline := time.Now().Add(quiesceBound)
	for n := lc.busy.Load(); n > 0; n = lc.busy.Load() {
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %d handlers still running after %v", n, quiesceBound)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// NewLocal builds and starts the cluster.
func NewLocal(o LocalOptions) (*LocalCluster, error) {
	o = o.withDefaults()
	lc := &LocalCluster{opts: o}
	clients := make([]*NodeClient, o.Nodes)
	for i := 0; i < o.Nodes; i++ {
		n := &LocalNode{ID: fmt.Sprintf("n%d", i)}
		n.inj = faultfs.New(o.Seed+int64(i)*104729+31, faultfs.Profile{})
		n.boot(o, lc)
		n.hsrv = httptest.NewServer(lc.track(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*n.handler.Load()).ServeHTTP(w, r)
		})))
		n.URL = n.hsrv.URL
		n.gate = &partitionGate{inner: nodeTransport}
		c := NewNodeClient(n.ID, n.URL)
		c.HTTP = &http.Client{Transport: n.gate}
		clients[i] = c
		lc.nodes = append(lc.nodes, n)
	}
	lc.clients = clients
	r, err := NewRouter(lc.routerOptions())
	if err != nil {
		lc.closeNodes()
		return nil, err
	}
	lc.Router = r
	lc.routerSrv = httptest.NewServer(lc.track(r.Handler()))
	lc.RouterURL = lc.routerSrv.URL
	return lc, nil
}

// RestartRouter simulates replacing a crashed router: the old
// instance's listener disappears without a drain (a crash doesn't get
// one — only its hint-log handles are released, as process exit
// would), and a fresh router is built over the same membership and
// hint dir. Every piece of in-memory router state — array catalog,
// generation table, liveness — starts empty in the replacement and
// must be recovered from the nodes' listings, raise-on-contact, and
// the durable hint logs.
func (lc *LocalCluster) RestartRouter() error {
	lc.routerSrv.Close()
	lc.Router.hints.Close()
	r, err := NewRouter(lc.routerOptions())
	if err != nil {
		return err
	}
	lc.Router = r
	lc.routerSrv = httptest.NewServer(lc.track(r.Handler()))
	lc.RouterURL = lc.routerSrv.URL
	return nil
}

// routerOptions is the one router configuration NewLocal and
// RestartRouter build from, so a replacement router is the same router.
func (lc *LocalCluster) routerOptions() Options {
	return Options{
		Nodes:      lc.clients,
		Replicas:   lc.opts.Replicas,
		TileDim:    lc.opts.TileDim,
		HintDir:    lc.opts.HintDir,
		QueueDepth: lc.opts.QueueDepth,
		Tenants:    lc.opts.Tenants,
		Obs:        lc.opts.Obs,
	}
}

// boot builds the node's disk/engine/server over the injector's
// surviving bytes (all-zero on first boot) and swaps the handler in.
func (n *LocalNode) boot(o LocalOptions, lc *LocalCluster) {
	n.disk = ooc.NewDisk(0).WrapBackend(n.inj.Wrap)
	if o.WAL {
		n.disk.EnableWAL(ooc.WALOptions{})
	}
	for _, a := range lc.arrays {
		_, err := n.disk.CreateArray(ir.NewArray(a.Name, a.Dims...), a.Layout)
		if err != nil && !errors.Is(err, ooc.ErrArrayExists) {
			panic(fmt.Sprintf("cluster: recreating %s on %s: %v", a.Name, n.ID, err))
		}
	}
	n.eng = ooc.NewEngine(n.disk, ooc.EngineOptions{CacheTiles: o.CacheTiles})
	if o.WAL {
		if _, err := n.disk.ReplayWAL(); err != nil {
			panic(fmt.Sprintf("cluster: WAL replay on %s: %v", n.ID, err))
		}
	}
	n.srv = server.New(n.disk, n.eng, server.Config{
		NodeID:      n.ID,
		DurablePuts: o.DurablePuts,
		MaxInflight: o.MaxInflight,
		QueueDepth:  o.QueueDepth,
		Tenants:     o.Tenants,
		Obs:         &obs.Sink{Metrics: obs.NewRegistry()},
	})
	h := n.srv.Handler()
	n.handler.Store(&h)
	n.killed = false
}

// Nodes returns the node count.
func (lc *LocalCluster) Nodes() int { return len(lc.nodes) }

// NodeID returns node i's ID.
func (lc *LocalCluster) NodeID(i int) string { return lc.nodes[i].ID }

// CreateArray creates an array through the router and records it for
// node-restart replay.
func (lc *LocalCluster) CreateArray(name string, dims ...int64) error {
	c := NewNodeClient("router", lc.RouterURL)
	if err := c.CreateArray(name, dims, ""); err != nil {
		return err
	}
	lc.arrays = append(lc.arrays, server.Array{Name: name, Dims: dims, Layout: layout.RowMajor(dims...)})
	return nil
}

// Client returns a tile client pointed at the router.
func (lc *LocalCluster) Client() *NodeClient {
	return NewNodeClient("router", lc.RouterURL)
}

// NodeClientDirect returns a client pointed straight at node i,
// bypassing the router — for replica-level assertions.
func (lc *LocalCluster) NodeClientDirect(i int) *NodeClient {
	return NewNodeClient(lc.nodes[i].ID, lc.nodes[i].URL)
}

// Kill crashes node i: the engine is abandoned (cached dirty tiles
// lost), the injector cuts power (unsynced store bytes lost), and the
// serving core starts answering 503. The listener stays up — exactly
// a daemon whose storage stack died.
func (lc *LocalCluster) Kill(i int) {
	n := lc.nodes[i]
	if n.killed {
		return
	}
	n.eng.Abandon()
	n.inj.Crash()
	n.killed = true
}

// Restart reboots a killed node over its surviving bytes: a fresh
// disk (WAL replayed when enabled), a fresh engine, a fresh serving
// core with an EMPTY generation table — the restarted replica
// deliberately forgets freshness and loses every comparison until
// read-repair or hinted handoff catches it up. The router still
// considers the node down until its next Probe.
func (lc *LocalCluster) Restart(i int) {
	n := lc.nodes[i]
	if !n.killed {
		return
	}
	n.boot(lc.opts, lc)
}

// Partition blocks router→node i traffic at the transport.
func (lc *LocalCluster) Partition(i int) { lc.nodes[i].gate.blocked.Store(true) }

// Unpartition heals node i's partition. The router notices on its
// next Probe.
func (lc *LocalCluster) Unpartition(i int) { lc.nodes[i].gate.blocked.Store(false) }

// Killed reports whether node i is currently crashed.
func (lc *LocalCluster) Killed(i int) bool { return lc.nodes[i].killed }

// Partitioned reports whether node i is currently unreachable.
func (lc *LocalCluster) Partitioned(i int) bool { return lc.nodes[i].gate.blocked.Load() }

// Heal restores the whole cluster: partitions lifted, killed nodes
// restarted, then one router Probe so returned replicas sync their
// catalogs, drain their hints, and rejoin the live set.
func (lc *LocalCluster) Heal() {
	for i, n := range lc.nodes {
		n.gate.blocked.Store(false)
		if n.killed {
			lc.Restart(i)
		}
	}
	lc.Router.Probe()
}

// ReplicaNodes returns the indices of the nodes holding box's routing
// tile, in preference order.
func (lc *LocalCluster) ReplicaNodes(name string, box layout.Box) []int {
	key := tileKeyOf(name, routingTile(box, lc.opts.TileDim))
	reps := lc.Router.replicasFor(keyhash.Bytes([]byte(key)))
	out := make([]int, 0, len(reps))
	for _, m := range reps {
		for i, n := range lc.nodes {
			if n.ID == m.client.ID {
				out = append(out, i)
			}
		}
	}
	return out
}

// SetNodeDown force-marks node i down in the router (for single-
// replica-loss assertions without real damage).
func (lc *LocalCluster) SetNodeDown(i int, down bool) {
	for _, m := range lc.Router.members {
		if m.client.ID == lc.nodes[i].ID {
			m.down.Store(down)
		}
	}
	lc.Router.updateNodesUp()
}

// HintsPending reports hints queued for node i.
func (lc *LocalCluster) HintsPending(i int) int {
	return lc.Router.hints.Pending(lc.nodes[i].ID)
}

// HintsPendingTotal reports hints queued across all nodes.
func (lc *LocalCluster) HintsPendingTotal() int {
	return lc.Router.hints.PendingTotal()
}

// Close drains the router and every live node (flushing their disks);
// killed nodes are left dead.
func (lc *LocalCluster) Close() error {
	err := lc.Router.Drain()
	lc.routerSrv.Close()
	if nerr := lc.closeNodes(); err == nil {
		err = nerr
	}
	return err
}

func (lc *LocalCluster) closeNodes() error {
	var first error
	for _, n := range lc.nodes {
		if n.hsrv != nil {
			n.hsrv.Close()
		}
		if n.srv != nil && !n.killed {
			if err := n.srv.Drain(); err != nil && first == nil {
				first = fmt.Errorf("node %s: %w", n.ID, err)
			}
		}
	}
	return first
}
