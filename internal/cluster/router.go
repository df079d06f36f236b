package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"outcore/internal/keyhash"
	"outcore/internal/layout"
	"outcore/internal/obs"
	"outcore/internal/ooc"
	"outcore/internal/server"
)

// MaxReplicas bounds the replication factor: past the node count (or
// a handful) extra copies only multiply write fan-out.
const MaxReplicas = 8

// Options configures a Router. Nodes and Replicas are required; the
// rest default sanely.
type Options struct {
	// Nodes is the static membership: one client per storage node,
	// gossip-free, in a fixed order. Placement depends only on node IDs
	// (rendezvous hashing), not on this order.
	Nodes []*NodeClient
	// Replicas is R, the copies kept of every tile (default 2, capped
	// at the node count).
	Replicas int
	// TileDim is the routing grid's tile edge per dimension (0 means
	// 8; NewRouter refuses a negative edge). A request box spanning
	// several grid tiles is decomposed; every box inside one grid tile
	// routes to that tile's replica set, which is what keeps unaligned
	// reads coherent with the aligned writes they overlap.
	TileDim int64
	// HintDir durably queues hinted-handoff writes under this
	// directory (one log per node, fsynced per hint). Empty keeps
	// hints in memory — handoff still works, but hints die with the
	// router process.
	HintDir string
	// MaxInflight caps concurrently admitted data-plane requests
	// (default 4x GOMAXPROCS — fan-out requests spend most of their
	// time waiting on node I/O, so the router runs wider than a node).
	MaxInflight int
	// QueueDepth bounds the requests waiting for an admission slot
	// (default 256).
	QueueDepth int
	// Obs supplies the metrics registry behind the router's /metrics.
	Obs *obs.Sink
}

// member is one storage node plus its routing and liveness state.
type member struct {
	client *NodeClient
	keySum uint64 // pinned hash of the node ID, for rendezvous scoring
	down   atomic.Bool
}

// genTable assigns monotonically increasing write generations per
// routing tile. The router is otherwise stateless: the table is an
// in-memory cache of "the next generation to write", opportunistically
// raised whenever a node reports a newer stored generation — so a
// restarted router (counter reset to 0) catches up on first contact
// instead of writing forever-stale generations.
type genTable struct {
	mu sync.Mutex
	m  map[string]*atomic.Uint64
}

// counter returns key's counter; only a key's first use allocates.
func (g *genTable) counter(key []byte) *atomic.Uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.m == nil {
		g.m = map[string]*atomic.Uint64{}
	}
	c := g.m[string(key)]
	if c == nil {
		c = &atomic.Uint64{}
		g.m[string(key)] = c
	}
	return c
}

// next returns a fresh generation for key (1, 2, ...).
func (g *genTable) next(key []byte) uint64 { return g.counter(key).Add(1) }

// raise lifts key's counter to at least seen.
func (g *genTable) raise(key []byte, seen uint64) {
	c := g.counter(key)
	for {
		cur := c.Load()
		if cur >= seen || c.CompareAndSwap(cur, seen) {
			return
		}
	}
}

// routerMetrics are the router plane's registry series (the front end
// registers occrouter_requests_total, _errors_total, _request_seconds
// and the scan/reduce families).
type routerMetrics struct {
	gets           *obs.Counter
	puts           *obs.Counter
	readRepairs    *obs.Counter
	handoffHints   *obs.Counter
	hintsDrained   *obs.Counter
	quorumFailures *obs.Counter
	staleWrites    *obs.Counter
	nodesUp        *obs.Gauge
	hintsQueued    *obs.Gauge
	nodes          *obs.Gauge
	replicas       *obs.Gauge
}

// Router fans tile requests across the cluster: it is the server.Plane
// behind occrouter's front end. Create with NewRouter, mount Handler,
// call Drain on shutdown, and run Probe periodically (the occrouter
// daemon does; tests call it at chosen points).
type Router struct {
	opts    Options
	members []*member
	gens    genTable
	hints   *hintStore
	catalog struct {
		mu sync.Mutex
		m  map[string]server.Array
	}
	front *server.FrontEnd
	met   routerMetrics
}

// NewRouter validates the membership and builds the router.
func NewRouter(o Options) (*Router, error) {
	if len(o.Nodes) == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.Replicas > len(o.Nodes) {
		o.Replicas = len(o.Nodes)
	}
	if o.Replicas > MaxReplicas {
		return nil, fmt.Errorf("cluster: %d replicas out of range (valid: 1..%d)", o.Replicas, MaxReplicas)
	}
	if o.TileDim < 0 {
		return nil, fmt.Errorf("cluster: tile dim %d out of range (valid: >= 1, or 0 for the default 8)", o.TileDim)
	}
	if o.TileDim == 0 {
		o.TileDim = 8
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 4 * runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	seen := map[string]bool{}
	r := &Router{opts: o}
	for _, nc := range o.Nodes {
		if nc.ID == "" {
			return nil, errors.New("cluster: node with empty ID")
		}
		if seen[nc.ID] {
			return nil, fmt.Errorf("cluster: duplicate node ID %q", nc.ID)
		}
		seen[nc.ID] = true
		r.members = append(r.members, &member{client: nc, keySum: keyhash.String(nc.ID)})
	}
	hints, err := newHintStore(o.HintDir)
	if err != nil {
		return nil, err
	}
	r.hints = hints
	r.catalog.m = map[string]server.Array{}
	// The catalog, like the generation table, is an in-memory cache of
	// state the nodes durably hold: rebuild it from their listings so a
	// restarted router keeps serving every existing array instead of
	// 404ing until re-creation. Union across nodes — a node that was
	// down during a create is missing arrays its peers have. Nodes that
	// don't answer are skipped here; the probe loop and the data plane
	// discover unreachable nodes the normal way.
	r.recoverCatalog()

	reg := o.Obs.MetricsOf()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	r.met = routerMetrics{
		gets:           reg.Counter("occrouter_tile_gets_total", "box reads routed"),
		puts:           reg.Counter("occrouter_tile_puts_total", "box writes routed"),
		readRepairs:    reg.Counter("ooc_cluster_read_repairs_total", "stale replicas rewritten after a divergent fan-out read"),
		handoffHints:   reg.Counter("ooc_cluster_handoff_hints_total", "writes queued as hints for unreachable replicas"),
		hintsDrained:   reg.Counter("ooc_cluster_hints_drained_total", "hinted writes replayed to a returned replica"),
		quorumFailures: reg.Counter("ooc_cluster_quorum_failures_total", "requests failed for lack of a replica quorum"),
		staleWrites:    reg.Counter("ooc_cluster_stale_writes_total", "writes a node skipped for holding a newer generation"),
		nodesUp:        reg.Gauge("ooc_cluster_nodes_up", "storage nodes currently considered reachable"),
		hintsQueued:    reg.Gauge("ooc_cluster_hints_queued", "hinted writes currently queued for down replicas"),
		nodes:          reg.Gauge("ooc_cluster_nodes", "storage nodes in the static membership"),
		replicas:       reg.Gauge("ooc_cluster_replicas", "copies kept of every tile (R)"),
	}
	r.met.nodes.Set(float64(len(r.members)))
	r.met.replicas.Set(float64(o.Replicas))
	r.met.nodesUp.Set(float64(len(r.members)))

	r.front = server.NewFrontEnd(r, server.FrontConfig{
		MetricPrefix: "occrouter",
		Reg:          reg,
		MaxInflight:  o.MaxInflight,
		QueueDepth:   o.QueueDepth,
	})
	return r, nil
}

// Handler returns the HTTP handler to mount: the shared front end
// (server.FrontEnd) over this router's plane.
func (r *Router) Handler() http.Handler { return r.front.Handler() }

// Replicas returns R.
func (r *Router) Replicas() int { return r.opts.Replicas }

// Drain stops admitting work, fails every queued admission with 503,
// and closes the hint logs. Node lifecycles are not the router's to
// manage.
func (r *Router) Drain() error {
	r.front.StopAdmitting()
	return r.hints.Close()
}

// replicasFor ranks the membership by rendezvous score for key and
// returns the top R members in dst's storage — the tile's replica set,
// stable for a fixed membership, minimally disturbed when it changes.
// An insertion into the running top R keeps equal scores in membership
// order; a dst of MaxReplicas capacity makes it allocation-free.
func (r *Router) replicasFor(dst []*member, keySum uint64) []*member {
	dst = dst[:0]
	var scores [MaxReplicas]uint64
	for _, m := range r.members {
		s := keyhash.Rendezvous(keySum, m.keySum)
		i := len(dst)
		for i > 0 && scores[i-1] < s {
			i--
		}
		if i == r.opts.Replicas {
			continue
		}
		if len(dst) < r.opts.Replicas {
			dst = append(dst, nil)
		}
		copy(dst[i+1:], dst[i:])
		copy(scores[i+1:len(dst)], scores[i:len(dst)-1])
		dst[i], scores[i] = m, s
	}
	return dst
}

// markDown transitions a member to down (idempotent), updating the
// liveness gauge.
func (r *Router) markDown(m *member) {
	if !m.down.Swap(true) {
		r.updateNodesUp()
	}
}

func (r *Router) updateNodesUp() {
	up := 0
	for _, m := range r.members {
		if !m.down.Load() {
			up++
		}
	}
	r.met.nodesUp.Set(float64(up))
}

// Probe is the router's recovery tick: down nodes that answer their
// health check get their catalog synced and their hint queue drained,
// then rejoin the live set; up nodes with residual hints drain too.
// The occrouter daemon calls it on a timer; tests and the local
// harness call it at exact points, which keeps episodes deterministic.
func (r *Router) Probe() {
	for _, m := range r.members {
		if m.down.Load() {
			if !m.client.Healthz() {
				continue
			}
			// A node that lost its disk between kill and return may be
			// missing arrays; replaying the catalog makes hint replay
			// (and future traffic) land on existing arrays.
			if !r.syncCatalog(m) {
				continue
			}
			if r.drainHints(m) {
				m.down.Store(false)
				r.updateNodesUp()
			}
		} else if r.hints.Pending(m.client.ID) > 0 {
			r.drainHints(m)
		}
	}
	r.met.hintsQueued.Set(float64(r.hints.PendingTotal()))
}

// recoverCatalog seeds the catalog with the union of the reachable
// nodes' array listings. Best-effort: an unreachable node contributes
// nothing (its arrays exist on replicas too, replication permitting),
// and listing failures never fail router construction.
func (r *Router) recoverCatalog() {
	for _, m := range r.members {
		arrays, err := m.client.ListArrays()
		if err != nil {
			continue
		}
		r.catalog.mu.Lock()
		for _, info := range arrays {
			if _, ok := r.catalog.m[info.Name]; ok {
				continue
			}
			a, err := info.Array()
			if err != nil {
				// A layout the create API cannot name (occd -kernel
				// arrays): boxes route the same under any layout, so serve
				// it with row-major scan plans.
				a = server.Array{Name: info.Name, Dims: info.Dims, Layout: layout.RowMajor(info.Dims...)}
			}
			r.catalog.m[info.Name] = a
		}
		r.catalog.mu.Unlock()
	}
}

// syncCatalog replays every known array creation to a returning node.
func (r *Router) syncCatalog(m *member) bool {
	for _, a := range r.List() {
		if err := m.client.CreateArray(a.Name, a.Dims, a.Info().Layout); err != nil {
			return false
		}
	}
	return true
}

// drainHints replays the member's hint queue; true means it emptied.
func (r *Router) drainHints(m *member) bool {
	n, err := r.hints.Drain(m.client.ID, func(h hint) error {
		stored, stale, err := m.client.PutTile(h.name, h.box, h.data, h.gen, false)
		if err != nil {
			return err
		}
		if stale {
			// Something newer already landed — the hint is obsolete,
			// which is delivery, not failure.
			var kb [keyhash.StackBytes]byte
			key, _ := routeKey(kb[:0], h.name, h.box, r.opts.TileDim)
			r.gens.raise(key, stored)
		}
		return nil
	})
	r.met.hintsDrained.Add(int64(n))
	r.met.hintsQueued.Set(float64(r.hints.PendingTotal()))
	return err == nil
}

// nodeStatsLite mirrors the slice of a node's /v1/stats the router
// aggregates (decoding into a local struct keeps the wire contract,
// not the server's internal type, as the coupling).
type nodeStatsLite struct {
	Engine ooc.EngineStats `json:"engine"`
}

// clusterStats is the /v1/stats cluster scorecard.
type clusterStats struct {
	Nodes          int   `json:"nodes"`
	NodesUp        int   `json:"nodes_up"`
	Replicas       int   `json:"replicas"`
	ReadRepairs    int64 `json:"read_repairs"`
	HandoffHints   int64 `json:"handoff_hints"`
	HintsDrained   int64 `json:"hints_drained"`
	HintsQueued    int64 `json:"hints_queued"`
	QuorumFailures int64 `json:"quorum_failures"`
	StaleWrites    int64 `json:"stale_writes"`
}

// nodeStat is one node's row in the scorecard.
type nodeStat struct {
	ID          string           `json:"id"`
	URL         string           `json:"url"`
	Up          bool             `json:"up"`
	HintsQueued int              `json:"hints_queued"`
	Engine      *ooc.EngineStats `json:"engine,omitempty"`
}

// routerStatsPayload is the router's /v1/stats JSON. The top-level
// keys mirror a single occd's payload — the front end's block, plus
// engine counters summed over reachable nodes — so tooling that reads
// occd stats works unchanged against a router; cluster and nodes carry
// the distributed story.
type routerStatsPayload struct {
	Engine  ooc.EngineStats `json:"engine"`
	HitRate float64         `json:"hit_rate"`
	server.FrontStats
	Cluster clusterStats `json:"cluster"`
	Nodes   []nodeStat   `json:"nodes"`
}

// Stats implements server.Plane.
func (r *Router) Stats(front server.FrontStats) any {
	p := routerStatsPayload{
		FrontStats: front,
		Cluster: clusterStats{
			Nodes:          len(r.members),
			Replicas:       r.opts.Replicas,
			ReadRepairs:    r.met.readRepairs.Value(),
			HandoffHints:   r.met.handoffHints.Value(),
			HintsDrained:   r.met.hintsDrained.Value(),
			HintsQueued:    int64(r.hints.PendingTotal()),
			QuorumFailures: r.met.quorumFailures.Value(),
			StaleWrites:    r.met.staleWrites.Value(),
		},
	}
	for _, m := range r.members {
		ns := nodeStat{
			ID:          m.client.ID,
			URL:         m.client.BaseURL,
			Up:          !m.down.Load(),
			HintsQueued: r.hints.Pending(m.client.ID),
		}
		if ns.Up {
			p.Cluster.NodesUp++
			var lite nodeStatsLite
			if err := m.client.Stats(&lite); err == nil {
				es := lite.Engine
				ns.Engine = &es
				p.Engine.Hits += es.Hits
				p.Engine.Misses += es.Misses
				p.Engine.Evictions += es.Evictions
				p.Engine.Invalidations += es.Invalidations
				p.Engine.Writebacks += es.Writebacks
				p.Engine.WritebackErrors += es.WritebackErrors
			}
		}
		p.Nodes = append(p.Nodes, ns)
	}
	p.HitRate = p.Engine.HitRate()
	return p
}

// Lookup implements server.Plane against the in-memory catalog.
func (r *Router) Lookup(name string) (server.Array, bool) {
	r.catalog.mu.Lock()
	defer r.catalog.mu.Unlock()
	a, ok := r.catalog.m[name]
	return a, ok
}

// List implements server.Plane.
func (r *Router) List() []server.Array {
	r.catalog.mu.Lock()
	out := make([]server.Array, 0, len(r.catalog.m))
	for _, a := range r.catalog.m {
		out = append(out, a)
	}
	r.catalog.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Create fans the creation out to every node: placement can land a
// tile anywhere, so the array must exist everywhere. Nodes that are
// down catch up via catalog sync when they return; the create succeeds
// as long as every REACHABLE node accepted it and at least one did.
func (r *Router) Create(_ context.Context, a server.Array) error {
	acks := 0
	for _, m := range r.members {
		if m.down.Load() {
			continue
		}
		if err := m.client.CreateArray(a.Name, a.Dims, a.Info().Layout); err != nil {
			if errors.Is(err, ErrUnavailable) {
				r.markDown(m)
				continue
			}
			return err
		}
		acks++
	}
	if acks == 0 {
		return errNoNode
	}
	r.catalog.mu.Lock()
	r.catalog.m[a.Name] = a
	r.catalog.mu.Unlock()
	return nil
}

// The replication failures a request can end in; all are ErrUnavailable
// (503 + Retry-After), told apart for the message.
var (
	errNoNode   = fmt.Errorf("%w: no reachable node accepted the create", ErrUnavailable)
	errNoQuorum = fmt.Errorf("%w: write quorum unavailable", ErrUnavailable)
)

// Status implements server.Plane: losing the replica set is a
// retryable 503; anything else a node said that the front end's own
// validation did not already catch is a bad gateway.
func (r *Router) Status(err error) (int, string) {
	switch {
	case errors.Is(err, errNoNode):
		return http.StatusServiceUnavailable, "no reachable node accepted the create"
	case errors.Is(err, errNoQuorum):
		return http.StatusServiceUnavailable, "write quorum unavailable"
	case errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable, "no reachable replica"
	}
	return http.StatusBadGateway, err.Error()
}

// failed tallies a data-plane failure before it goes back to the front
// end.
func (r *Router) failed(err error) error {
	if errors.Is(err, ErrUnavailable) {
		r.met.quorumFailures.Inc()
	}
	return err
}

// reply is one replica's answer to a piece read: its generation, and
// its bytes when it was the replica asked for them.
type reply struct {
	data []float64 // nil: the replica sent its generation only
	gen  uint64
	err  error
}

// ask fans one piece read out to the live members of reps, in
// parallel: with withBytes the first live replica in
// rank order sends the piece's bytes, and every other live replica only
// its generation (a HEAD, which reads no tile). Down members answer
// ErrUnavailable without a request. The first live replica's request
// runs on the caller's goroutine, the rest on their own.
func (r *Router) ask(name string, piece layout.Box, reps []*member, withBytes bool) []reply {
	replies := make([]reply, len(reps))
	var wg sync.WaitGroup
	first := -1
	for i, m := range reps {
		if m.down.Load() {
			replies[i].err = ErrUnavailable
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			replies[i] = r.read(name, piece, m, false)
		}()
	}
	if first >= 0 {
		replies[first] = r.read(name, piece, reps[first], withBytes)
	}
	wg.Wait()
	return replies
}

// read asks one replica for a piece — its bytes with full, else only
// its generation — and marks it down when it is unreachable.
func (r *Router) read(name string, piece layout.Box, m *member, full bool) reply {
	c := m.client
	var rep reply
	if full {
		rep.data, rep.gen, rep.err = c.GetTile(name, piece, false)
	} else {
		rep.gen, rep.err = c.TileGen(name, piece)
	}
	if rep.err != nil && errors.Is(rep.err, ErrUnavailable) {
		r.markDown(m)
	}
	return rep
}

// freshest resolves a fan-out: the highest generation among the
// replicas that answered wins, and the lowest rank breaks ties so the
// resolution is deterministic, not completion-order dependent. With no
// answer it returns the first hard error, else ErrUnavailable.
func freshest(replies []reply) (int, error) {
	win := -1
	var hardErr error
	for i := range replies {
		if replies[i].err != nil {
			if !errors.Is(replies[i].err, ErrUnavailable) && hardErr == nil {
				hardErr = replies[i].err
			}
			continue
		}
		if win < 0 || replies[i].gen > replies[win].gen {
			win = i
		}
	}
	if win < 0 {
		if hardErr != nil {
			return -1, hardErr
		}
		return -1, ErrUnavailable
	}
	return win, nil
}

// pieceGet reads one grid-tile piece: the first live replica in rank
// order sends its bytes and every other live replica its generation,
// and the freshest of WHOEVER ANSWERS wins (read-one / latest-wins — a
// single reply suffices, so reads stay available while any replica
// lives, at the price of possible staleness when the only survivor's
// copy is still a queued hint). The answer is the one a read of every
// replica's bytes would resolve to; only when the winner is not the
// replica that sent bytes (the first was stale or failed) does a second
// GET fetch the winner's. Always reading rank 0 splits the cached
// working set across the nodes instead of copying it R times. When the
// piece is its whole routing tile, stale responders are synchronously
// read-repaired. See the package comment for the full consistency
// contract.
func (r *Router) pieceGet(a server.Array, piece layout.Box) ([]float64, uint64, error) {
	name := a.Name
	var kb [keyhash.StackBytes]byte
	var rb [MaxReplicas]*member
	key, sum := routeKey(kb[:0], name, piece, r.opts.TileDim)
	reps := r.replicasFor(rb[:0], sum)
	replies := r.ask(name, piece, reps, true)

	// Each pass either ends or fetches bytes from a replica that has
	// sent none, so it runs at most once per replica.
	win, err := freshest(replies)
	for err == nil && replies[win].data == nil {
		replies[win] = r.read(name, piece, reps[win], true)
		win, err = freshest(replies)
	}
	if err != nil {
		return nil, 0, err
	}
	// Read-repair: rewrite every reachable replica that answered with
	// an older generation, under the winner's generation, so the next
	// read agrees. Synchronous — the repair is part of this read's
	// consistency story, and deterministic tests can observe it. Only a
	// whole-tile piece repairs: a node reports the max generation over
	// every recorded box a read overlaps, so rewriting part of a tile
	// under the winner's generation would make the stale replica claim
	// that generation for the whole tile while it still holds old bytes
	// outside the piece. Hint drains and whole-tile reads converge it.
	repair := wholeTile(piece, a.Dims, r.opts.TileDim)
	for i := range replies {
		if !repair || i == win || replies[i].err != nil || replies[i].gen >= replies[win].gen {
			continue
		}
		if _, _, err := reps[i].client.PutTile(name, piece, replies[win].data, replies[win].gen, false); err != nil {
			if errors.Is(err, ErrUnavailable) {
				r.markDown(reps[i])
			}
			continue
		}
		r.met.readRepairs.Inc()
	}
	r.gens.raise(key, replies[win].gen)
	return replies[win].data, replies[win].gen, nil
}

// pieceGen reports one grid-tile piece's generation without reading a
// tile: every live replica is probed and the freshest answer wins, as
// in pieceGet.
func (r *Router) pieceGen(name string, piece layout.Box) (uint64, error) {
	var kb [keyhash.StackBytes]byte
	var rb [MaxReplicas]*member
	key, sum := routeKey(kb[:0], name, piece, r.opts.TileDim)
	replies := r.ask(name, piece, r.replicasFor(rb[:0], sum), false)
	win, err := freshest(replies)
	if err != nil {
		return 0, err
	}
	r.gens.raise(key, replies[win].gen)
	return replies[win].gen, nil
}

// piecePut writes one grid-tile piece to its replica set under a fresh
// generation: live replicas synchronously, down or failing replicas as
// durable hints. Success requires a sloppy quorum — at least one live ack,
// and live acks plus durably queued hints reaching majority.
func (r *Router) piecePut(name string, piece layout.Box, data []float64) (uint64, error) {
	var kb [keyhash.StackBytes]byte
	var rb [MaxReplicas]*member
	key, sum := routeKey(kb[:0], name, piece, r.opts.TileDim)
	reps := r.replicasFor(rb[:0], sum)

	// One raw body serves every replica and the retry (see putBody).
	body := server.EncodeTile(data, false)
	// Up to one retry round: a node reporting a newer stored generation
	// (a router restart zeroed the counter) raises it, and the write
	// re-runs with a generation that wins.
	for attempt := 0; attempt < 2; attempt++ {
		gen := r.gens.next(key)
		type reply struct {
			acked  bool
			stale  bool
			stored uint64
			hinted bool
		}
		replies := make([]reply, len(reps))
		var wg sync.WaitGroup
		for i, m := range reps {
			if m.down.Load() {
				if r.hints.Enqueue(m.client.ID, name, piece, gen, data) == nil {
					replies[i].hinted = true
					r.met.handoffHints.Inc()
				}
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				stored, stale, err := m.client.putBody(name, piece, body, gen, false)
				if err != nil {
					if errors.Is(err, ErrUnavailable) {
						r.markDown(m)
						if r.hints.Enqueue(m.client.ID, name, piece, gen, data) == nil {
							replies[i].hinted = true
							r.met.handoffHints.Inc()
						}
					}
					return
				}
				replies[i] = reply{acked: true, stale: stale, stored: stored}
			}()
		}
		wg.Wait()
		r.met.hintsQueued.Set(float64(r.hints.PendingTotal()))

		acks, hinted, staleSeen := 0, 0, uint64(0)
		for _, rep := range replies {
			if rep.acked {
				// A stale 204 still counts toward the quorum: the replica
				// is live and durably holds a NEWER write, so ours is
				// superseded, not lost — under last-write-wins it reads as
				// applied immediately before the write that beat it.
				acks++
				if rep.stale && rep.stored > staleSeen {
					staleSeen = rep.stored
				}
			}
			if rep.hinted {
				hinted++
			}
		}
		if staleSeen > gen && attempt == 0 {
			// The cluster has newer generations than our counter knew —
			// either a router restart zeroed it, or a concurrent writer
			// outran us. Catch the counter up and rewrite once so this
			// PUT gets a chance to really be the latest; if the retry is
			// outrun again, the superseding write wins and the stale acks
			// above settle the quorum.
			r.met.staleWrites.Inc()
			r.gens.raise(key, staleSeen)
			continue
		}
		quorum := r.opts.Replicas/2 + 1
		if acks >= 1 && acks+hinted >= quorum {
			return gen, nil
		}
		return 0, errNoQuorum
	}
	return 0, errNoQuorum
}
