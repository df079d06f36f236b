package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"outcore/internal/cluster"
	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/obs"
	"outcore/internal/ooc"
	"outcore/internal/server"
)

// depth is how much of the stack a replay drives. Each depth calls the
// public entry point of one layer with everything below it real and
// nothing above it present, so adjacent depths subtract into the cost
// of the layer between them.
type depth int

const (
	dLayout  depth = iota // layout.Runs / PlanScan per op box
	dArray                // ooc.Array.ReadTile / Tile.WriteTile, no cache
	dEngine               // ooc.Engine.Acquire / Release (+ Array.Sync when durable)
	dHandler              // server handler into an in-memory recorder, no sockets
	dHTTP                 // loopback HTTP to one node
	dRouter               // loopback HTTP to the router, which fans out to the nodes
)

var depthNames = [...]string{"layout", "ooc.array", "ooc.engine", "server.handler", "server.http", "cluster.router"}

func (d depth) String() string { return depthNames[d] }

// top is the depth the workload's end-to-end numbers come from.
func (sp spec) top() depth {
	if sp.nodes > 0 {
		return dRouter
	}
	return dHTTP
}

// node is one storage node, built as far up as the depth needs.
type node struct {
	pwr  *powerSwitch // single-node durable workload only: the crash switch
	disk *ooc.Disk
	arr  *ooc.Array
	eng  *ooc.Engine
	srv  *server.Server
	hs   *httptest.Server
}

// stack is the system under test for one replay plus the one HTTP
// client that drives it.
type stack struct {
	sp       spec
	top      depth
	nodes    []*node
	router   *cluster.Router
	routerHS *httptest.Server
	baseURL  string
	tr       *http.Transport
	client   *http.Client
	dials    atomic.Int64 // TCP connections opened by tr
}

func (sp spec) layoutOf() *layout.Layout {
	if sp.colMajor {
		return layout.ColMajor(sp.n, sp.n)
	}
	return layout.RowMajor(sp.n, sp.n)
}

// newDisk is the in-memory backend every workload runs on: no Dir, so
// the filesystem is in no timing; no timers (CommitWindow and
// CheckpointEvery zero), so the counts are exact.
func (sp spec) newDisk(pwr *powerSwitch) *ooc.Disk {
	d := ooc.NewDisk(maxCallElems)
	if pwr != nil {
		d.WrapBackend(pwr.wrap)
	}
	if sp.durable {
		d.EnableWAL(ooc.WALOptions{})
	}
	return d
}

func fillArray(ar *ooc.Array) {
	ar.Fill(func(c []int64) float64 { return fill(c[0], c[1]) })
}

// buildStack assembles the stack up to top. sink, when non-nil, is
// handed to the engines (traced replays only).
func buildStack(sp spec, top depth, sink *obs.Sink) (*stack, error) {
	st := &stack{sp: sp, top: top}
	st.tr = &http.Transport{
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			st.dials.Add(1)
			return (&net.Dialer{}).DialContext(ctx, network, addr)
		},
	}
	st.client = &http.Client{Transport: st.tr, Timeout: 30 * time.Second}

	n := 1
	if top == dRouter {
		n = sp.nodes
	}
	for i := 0; i < n; i++ {
		nd := &node{}
		if sp.crashChecked() {
			nd.pwr = newPowerSwitch()
		}
		nd.disk = sp.newDisk(nd.pwr)
		if top != dRouter { // the router creates its arrays through the API
			ar, err := nd.disk.CreateArray(ir.NewArray(arrayName, sp.n, sp.n), sp.layoutOf())
			if err != nil {
				return nil, err
			}
			fillArray(ar)
			nd.arr = ar
		}
		if top >= dEngine {
			nd.eng = ooc.NewEngine(nd.disk, ooc.EngineOptions{Workers: 0, CacheTiles: sp.cacheTiles, Obs: sink})
		}
		if top >= dHandler {
			cfg := server.Config{DurablePuts: sp.durable}
			if top == dRouter {
				cfg.NodeID = fmt.Sprintf("n%d", i)
			}
			nd.srv = server.New(nd.disk, nd.eng, cfg)
		}
		if top >= dHTTP {
			nd.hs = httptest.NewServer(nd.srv.Handler())
			st.baseURL = nd.hs.URL
		}
		st.nodes = append(st.nodes, nd)
	}
	if top == dRouter {
		clients := make([]*cluster.NodeClient, n)
		for i, nd := range st.nodes {
			clients[i] = cluster.NewNodeClient(fmt.Sprintf("n%d", i), nd.hs.URL)
			clients[i].HTTP = st.client
		}
		r, err := cluster.NewRouter(cluster.Options{Nodes: clients, Replicas: 2, TileDim: tileEdge})
		if err != nil {
			st.close()
			return nil, err
		}
		st.router = r
		st.routerHS = httptest.NewServer(r.Handler())
		st.baseURL = st.routerHS.URL
		rc := cluster.NewNodeClient("router", st.baseURL)
		rc.HTTP = st.client
		if err := rc.CreateArray(arrayName, []int64{sp.n, sp.n}, ""); err != nil {
			st.close()
			return nil, err
		}
		// Every replica starts from the same bytes; filling the disks
		// directly keeps 1024 durable PUTs out of set-up.
		for _, nd := range st.nodes {
			nd.arr = nd.disk.ArrayByName(arrayName)
			fillArray(nd.arr)
		}
	}
	return st, nil
}

// plane returns the entry point a replay at the stack's depth calls.
func (st *stack) plane() plane {
	nd := st.nodes[0]
	switch st.top {
	case dArray:
		return &arrayPlane{ar: nd.arr}
	case dEngine:
		return &enginePlane{eng: nd.eng, ar: nd.arr, durable: st.sp.durable}
	case dHandler:
		return newHandlerPlane(nd.srv.Handler())
	default:
		return newHTTPPlane(st.baseURL, st.client)
	}
}

// close shuts the stack down cleanly: listeners first, then a drain of
// every node (flush, sync, close).
func (st *stack) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if st.routerHS != nil {
		st.routerHS.Close()
	}
	if st.router != nil {
		keep(st.router.Drain())
	}
	for _, nd := range st.nodes {
		if nd.hs != nil {
			nd.hs.Close()
		}
		switch {
		case nd.srv != nil:
			keep(nd.srv.Drain())
		case nd.eng != nil:
			keep(nd.eng.Close())
			keep(nd.disk.Close())
		default:
			keep(nd.disk.Close())
		}
	}
	st.tr.CloseIdleConnections()
	return first
}

// counters is a snapshot of every public counter the ledger reads,
// summed over the stack's nodes.
type counters struct {
	io  ooc.Stats
	eng ooc.EngineStats
	wal ooc.WALStats
}

func (st *stack) counters() counters {
	var c counters
	for _, nd := range st.nodes {
		c.io.Add(nd.disk.Stats.Snapshot())
		if nd.eng != nil {
			addEngine(&c.eng, nd.eng.Stats())
		}
		if ws := nd.disk.WALStats(); ws != nil {
			c.wal.AppendedWords += ws.AppendedWords
			c.wal.Fsyncs += ws.Fsyncs
			c.wal.Checkpoints += ws.Checkpoints
			c.wal.Commits += ws.Commits
		}
	}
	return c
}

// minus returns what the counters did since o.
func (c counters) minus(o counters) counters {
	d := c
	d.io.ReadCalls -= o.io.ReadCalls
	d.io.WriteCalls -= o.io.WriteCalls
	d.io.ElemsRead -= o.io.ElemsRead
	d.io.ElemsWritten -= o.io.ElemsWritten
	d.eng.Hits -= o.eng.Hits
	d.eng.Misses -= o.eng.Misses
	d.eng.Evictions -= o.eng.Evictions
	d.eng.Writebacks -= o.eng.Writebacks
	d.wal.AppendedWords -= o.wal.AppendedWords
	d.wal.Fsyncs -= o.wal.Fsyncs
	d.wal.Checkpoints -= o.wal.Checkpoints
	d.wal.Commits -= o.wal.Commits
	return d
}

// addEngine sums the engine counters the ledger reads.
func addEngine(dst *ooc.EngineStats, s ooc.EngineStats) {
	dst.Hits += s.Hits
	dst.Misses += s.Misses
	dst.Evictions += s.Evictions
	dst.Writebacks += s.Writebacks
}

// crashAndRecover cuts power on a single durable node — listener
// closed, engine abandoned, every byte not acknowledged by a Sync
// reverted — then reboots a fresh disk over the surviving bytes,
// replays the WAL and returns the recovered array contents in
// row-major order.
func (st *stack) crashAndRecover() ([]float64, error) {
	nd := st.nodes[0]
	nd.hs.Close()
	st.tr.CloseIdleConnections()
	nd.eng.Abandon()
	nd.pwr.cut()

	d := st.sp.newDisk(nd.pwr)
	ar, err := d.CreateArray(ir.NewArray(arrayName, st.sp.n, st.sp.n), st.sp.layoutOf())
	if err != nil {
		return nil, err
	}
	if _, err := d.ReplayWAL(); err != nil {
		return nil, fmt.Errorf("replay after crash: %w", err)
	}
	n := st.sp.n
	out := make([]float64, n*n)
	for r := int64(0); r < n; r += tileEdge {
		t, err := ar.ReadTile(layout.NewBox([]int64{r, 0}, []int64{r + tileEdge, n}))
		if err != nil {
			return nil, err
		}
		copy(out[r*n:], t.Data())
	}
	return out, d.Close()
}
