package cluster

// Read-one coverage: a router GET takes bytes from the first live
// replica and only generations from the rest, and must answer exactly
// what reading every replica's bytes would (readAll, the old fan-out
// kept here as the oracle); it must cost one tile GET plus R-1 HEADs
// when the replicas agree; and a router HEAD must read no tile.

import (
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"outcore/internal/layout"
)

// replicaView is one replica's direct answer for a box, read past the
// router (NodeClientDirect ignores partitions).
type replicaView struct {
	node  int
	asked bool // the router would ask it: up in its view and reachable
	data  []float64
	gen   uint64
}

// routerDown reports whether the router holds node i down.
func routerDown(lc *LocalCluster, i int) bool {
	for _, m := range lc.Router.members {
		if m.client.ID == lc.NodeID(i) {
			return m.down.Load()
		}
	}
	return false
}

// readAllAnswer is what the read-all fan-out answers for one box.
type readAllAnswer struct {
	data []float64 // nil: no replica the router would ask
	gen  uint64
	// firstStale: the first replica the router asks is not the winner,
	// so read-one must fetch bytes twice.
	firstStale bool
	// after is each replica's expected state once the read (and its
	// repair) is done, in rank order.
	after []replicaView
}

// readAll is the oracle: the read-all fan-out and resolution the router
// used before read-one. Every replica the router would ask is read in
// full; the lowest-ranked of the freshest wins; on a whole-tile box
// every older responder is left holding the winner's bytes and
// generation.
func readAll(t *testing.T, lc *LocalCluster, box layout.Box) readAllAnswer {
	t.Helper()
	var views []replicaView
	first, win := -1, -1
	for _, i := range lc.ReplicaNodes("A", box) {
		v := replicaView{node: i, asked: !routerDown(lc, i) && !lc.Partitioned(i) && !lc.Killed(i)}
		if !lc.Killed(i) {
			data, gen, err := lc.NodeClientDirect(i).GetTile("A", box, true)
			if err != nil {
				t.Fatalf("direct read of node %d: %v", i, err)
			}
			v.data, v.gen = data, gen
		}
		if v.asked && first < 0 {
			first = len(views)
		}
		if v.asked && (win < 0 || v.gen > views[win].gen) {
			win = len(views)
		}
		views = append(views, v)
	}
	if win < 0 {
		return readAllAnswer{after: views}
	}
	w := views[win]
	if wholeTile(box, []int64{testEdge, testEdge}, testTile) {
		for k := range views {
			if views[k].asked && views[k].gen < w.gen {
				views[k].data, views[k].gen = w.data, w.gen
			}
		}
	}
	return readAllAnswer{data: w.data, gen: w.gen, firstStale: first != win, after: views}
}

// randomTileBox draws a whole routing tile or a sub-box of one, among
// the array's first 2x2 routing tiles: few tiles, so a replica that
// missed writes is often the one a read asks first.
func randomTileBox(rng *rand.Rand) layout.Box {
	const tiles = 2
	r0, c0 := rng.Int63n(tiles)*testTile, rng.Int63n(tiles)*testTile
	if rng.Intn(2) == 0 {
		return layout.NewBox([]int64{r0, c0}, []int64{r0 + testTile, c0 + testTile})
	}
	lr, lc := rng.Int63n(testTile), rng.Int63n(testTile)
	hr, hc := lr+1+rng.Int63n(testTile-lr), lc+1+rng.Int63n(testTile-lc)
	return layout.NewBox([]int64{r0 + lr, c0 + lc}, []int64{r0 + hr, c0 + hc})
}

// TestReadOneMatchesReadAll drives seeded schedules of PUTs, GETs,
// kills, restarts (generations come back as 0), partitions, probes and
// rejoins that leave hints pending (runReadOneOracle), and before every
// router GET
// requires the read-one answer to equal the read-all oracle's — bytes
// and generation — and every replica to end in the state the oracle's
// repair would leave.
func TestReadOneMatchesReadAll(t *testing.T) {
	for _, replicas := range []int{2, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("R%d/seed%d", replicas, seed), func(t *testing.T) {
				runReadOneOracle(t, replicas, seed)
			})
		}
	}
}

// runReadOneOracle runs one schedule. At most R-1 nodes are faulted at
// once — killed, partitioned, or only held down by the router — so every
// tile keeps a live replica; a healed node rejoins either through a
// probe (hints drain) or straight back into the router's view with its
// hints still queued, and a restarted one has forgotten its generations.
func runReadOneOracle(t *testing.T, replicas int, seed int64) {
	lc := newTestCluster(t, replicas+1, replicas)
	cli := lc.Client()
	rng := rand.New(rand.NewSource(seed))
	var faulted []int
	gets, staleFirst := 0, 0
	for step := 0; step < 300; step++ {
		switch p := rng.Intn(100); {
		case p < 30:
			box := randomTileBox(rng)
			cli.PutTile("A", box, fillTile(float64(step+1), box), 0, true) // a quorum failure is a legal outcome
		case p < 70:
			box := randomTileBox(rng)
			want := readAll(t, lc, box)
			got, gen, err := cli.GetTile("A", box, true)
			if want.data == nil {
				if err == nil {
					t.Fatalf("step %d: GET %v answered with no replica reachable", step, box)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: GET %v: %v (read-all answers gen %d)", step, box, err, want.gen)
			}
			if gen != want.gen || !equalSlices(got, want.data) {
				t.Fatalf("step %d: GET %v = gen %d %v, read-all = gen %d %v", step, box, gen, got[:1], want.gen, want.data[:1])
			}
			for _, v := range want.after {
				if v.data == nil {
					continue
				}
				data, g, err := lc.NodeClientDirect(v.node).GetTile("A", box, true)
				if err != nil {
					t.Fatalf("step %d: node %d after GET: %v", step, v.node, err)
				}
				if g != v.gen || !equalSlices(data, v.data) {
					t.Fatalf("step %d: node %d after GET %v holds gen %d, read-all leaves gen %d", step, v.node, box, g, v.gen)
				}
			}
			if want.firstStale {
				staleFirst++
			}
			gets++
		case p < 85:
			if len(faulted) == replicas-1 {
				continue
			}
			node := rng.Intn(lc.Nodes())
			if slices.Contains(faulted, node) {
				continue
			}
			faulted = append(faulted, node)
			switch rng.Intn(3) {
			case 0:
				lc.Kill(node)
			case 1:
				lc.Partition(node)
			default:
				lc.SetNodeDown(node, true)
			}
		case p < 98:
			if len(faulted) == 0 {
				continue
			}
			k := rng.Intn(len(faulted))
			node := faulted[k]
			faulted = append(faulted[:k], faulted[k+1:]...)
			if err := lc.Restart(node); err != nil {
				t.Fatal(err)
			}
			lc.Unpartition(node)
			if rng.Intn(3) == 0 {
				lc.Router.Probe()
			} else {
				lc.SetNodeDown(node, false) // hints stay queued
			}
		default:
			lc.Router.Probe()
		}
	}
	// The schedule must reach the case read-one exists to get right.
	if staleFirst == 0 {
		t.Fatalf("none of %d GETs found the first replica stale", gets)
	}
}

// tileCounts tallies one node's tile requests by method.
type tileCounts struct{ get, head, put atomic.Int64 }

// countTileRequests wraps every node's handler with a tile-request
// counter (until the node restarts).
func countTileRequests(lc *LocalCluster) []*tileCounts {
	out := make([]*tileCounts, lc.Nodes())
	for i, n := range lc.nodes {
		c := &tileCounts{}
		inner := *n.handler.Load()
		var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/tile") {
				switch r.Method {
				case http.MethodGet:
					c.get.Add(1)
				case http.MethodHead:
					c.head.Add(1)
				case http.MethodPut:
					c.put.Add(1)
				}
			}
			inner.ServeHTTP(w, r)
		})
		n.handler.Store(&h)
		out[i] = c
	}
	return out
}

// tileAcquires is the node's engine Hits+Misses: every tile it pinned.
func tileAcquires(t *testing.T, lc *LocalCluster, i int) int64 {
	t.Helper()
	var s nodeStatsLite
	if err := lc.NodeClientDirect(i).Stats(&s); err != nil {
		t.Fatalf("node %d stats: %v", i, err)
	}
	return s.Engine.Hits + s.Engine.Misses
}

// TestReadOneCost pins what a router GET costs the nodes. With fresh
// replicas: one tile GET on the first rank, one HEAD on each other
// replica, and no tile pinned anywhere else. With a stale first rank (a
// hint is pending): a second GET for the winner's bytes and one
// whole-tile repair, and the fresh bytes come back.
func TestReadOneCost(t *testing.T) {
	for _, replicas := range []int{2, 3} {
		t.Run(fmt.Sprintf("fresh/R%d", replicas), func(t *testing.T) {
			lc := newTestCluster(t, replicas+1, replicas)
			cli := lc.Client()
			tile := layout.NewBox([]int64{8, 16}, []int64{16, 24})
			if _, _, err := cli.PutTile("A", tile, fillTile(3, tile), 0, true); err != nil {
				t.Fatalf("put: %v", err)
			}
			counts := countTileRequests(lc)
			reps := lc.ReplicaNodes("A", tile)
			for _, box := range []layout.Box{tile, layout.NewBox([]int64{9, 17}, []int64{12, 20})} {
				var acq []int64
				for i := 0; i < lc.Nodes(); i++ {
					acq = append(acq, tileAcquires(t, lc, i))
				}
				for _, c := range counts {
					c.get.Store(0)
					c.head.Store(0)
					c.put.Store(0)
				}
				got, gen, err := cli.GetTile("A", box, true)
				if err != nil || gen != 1 || got[0] != 3 {
					t.Fatalf("GET %v = gen %d, %v; want gen 1 of 3s", box, gen, err)
				}
				for i, c := range counts {
					wantGet, wantHead := int64(0), int64(0)
					if i == reps[0] {
						wantGet = 1
					} else if slices.Contains(reps, i) {
						wantHead = 1
					}
					if c.get.Load() != wantGet || c.head.Load() != wantHead || c.put.Load() != 0 {
						t.Fatalf("GET %v: node %d saw %d GETs, %d HEADs, %d PUTs; want %d, %d, 0",
							box, i, c.get.Load(), c.head.Load(), c.put.Load(), wantGet, wantHead)
					}
					if a := tileAcquires(t, lc, i); i != reps[0] && a != acq[i] {
						t.Fatalf("GET %v: node %d pinned %d tiles, want none off the first rank", box, i, a-acq[i])
					}
				}
			}
		})
	}

	t.Run("stale-first-rank", func(t *testing.T) {
		lc := newTestCluster(t, 3, 2)
		cli := lc.Client()
		tile := layout.NewBox([]int64{0, 0}, []int64{testTile, testTile})
		if _, _, err := cli.PutTile("A", tile, fillTile(1, tile), 0, true); err != nil {
			t.Fatalf("put v1: %v", err)
		}
		reps := lc.ReplicaNodes("A", tile)
		lc.SetNodeDown(reps[0], true)
		if _, _, err := cli.PutTile("A", tile, fillTile(2, tile), 0, true); err != nil {
			t.Fatalf("put v2 with the first rank down: %v", err)
		}
		lc.SetNodeDown(reps[0], false) // back without a probe: the hint stays queued
		if lc.HintsPending(reps[0]) != 1 {
			t.Fatalf("first rank owes %d hints, want 1", lc.HintsPending(reps[0]))
		}
		counts := countTileRequests(lc)
		repairs := lc.Router.met.readRepairs.Value()

		got, gen, err := cli.GetTile("A", tile, true)
		if err != nil || gen != 2 {
			t.Fatalf("GET = gen %d, %v; want gen 2", gen, err)
		}
		for i, v := range got {
			if v != 2 {
				t.Fatalf("elem %d = %v, want the fresh 2", i, v)
			}
		}
		var gets, heads, puts int64
		for _, c := range counts {
			gets, heads, puts = gets+c.get.Load(), heads+c.head.Load(), puts+c.put.Load()
		}
		first, second := counts[reps[0]], counts[reps[1]]
		if gets != 2 || first.get.Load() != 1 || second.get.Load() != 1 || heads != 1 || second.head.Load() != 1 {
			t.Fatalf("tile GETs %d (first %d, second %d), HEADs %d; want 1 GET each and 1 HEAD on the second",
				gets, first.get.Load(), second.get.Load(), heads)
		}
		if puts != 1 || first.put.Load() != 1 || lc.Router.met.readRepairs.Value()-repairs != 1 {
			t.Fatalf("repair PUTs %d (first rank %d), read_repairs +%d; want one whole-tile repair of the first rank",
				puts, first.put.Load(), lc.Router.met.readRepairs.Value()-repairs)
		}
	})
}

// TestRouterHeadReadsNoTile: a HEAD through the router probes every
// live replica's generation and reports what a GET of the same box
// reports — whole tile, partial box, a box spanning routing tiles, and
// an unwritten one — without any node pinning a tile.
func TestRouterHeadReadsNoTile(t *testing.T) {
	lc := newTestCluster(t, 3, 2)
	cli := lc.Client()
	for i, box := range []layout.Box{
		layout.NewBox([]int64{0, 0}, []int64{8, 8}),
		layout.NewBox([]int64{0, 8}, []int64{8, 16}),
		layout.NewBox([]int64{2, 8}, []int64{5, 12}),
	} {
		for v := 0; v <= i; v++ {
			if _, _, err := cli.PutTile("A", box, fillTile(float64(v), box), 0, true); err != nil {
				t.Fatalf("put %v: %v", box, err)
			}
		}
	}
	boxes := []layout.Box{
		layout.NewBox([]int64{0, 0}, []int64{8, 8}),     // whole tile
		layout.NewBox([]int64{1, 9}, []int64{4, 11}),    // partial box
		layout.NewBox([]int64{0, 4}, []int64{8, 12}),    // spans two routing tiles
		layout.NewBox([]int64{24, 24}, []int64{32, 32}), // never written
	}
	var heads []uint64
	acq := make([]int64, lc.Nodes())
	for i := range acq {
		acq[i] = tileAcquires(t, lc, i)
	}
	for _, box := range boxes {
		gen, err := cli.TileGen("A", box)
		if err != nil {
			t.Fatalf("router HEAD %v: %v", box, err)
		}
		heads = append(heads, gen)
	}
	for i := range acq {
		if a := tileAcquires(t, lc, i); a != acq[i] {
			t.Fatalf("router HEADs pinned %d tiles on node %d, want none", a-acq[i], i)
		}
	}
	for k, box := range boxes {
		if _, gen, err := cli.GetTile("A", box, true); err != nil || gen != heads[k] {
			t.Fatalf("GET %v = gen %d, %v; HEAD reported %d", box, gen, err, heads[k])
		}
	}
	if heads[0] == 0 || heads[2] <= heads[0] || heads[3] != 0 {
		t.Fatalf("HEAD gens %v: want a written tile, a newer overlap, and 0 for the untouched box", heads)
	}
}
