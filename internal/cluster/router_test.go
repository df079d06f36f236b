package cluster

// Error-path coverage for the replication protocol: replica failover
// on GETs, quorum-failure 503s with Retry-After, the sloppy-quorum
// partial-PUT contract (live ack + durable hint), hint drain after
// heal, and a -race hammer driving concurrent GETs and PUTs through
// the router checking that no read ever observes a torn tile.

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"

	"outcore/internal/layout"
	"outcore/internal/obs"
	"outcore/internal/ooc"
)

// hammerEdge sizes the hammer array; tiles are tileEdge-aligned.
const (
	testEdge = 32
	testTile = 8
)

func newTestCluster(t *testing.T, nodes, replicas int, opts ...func(*LocalOptions)) *LocalCluster {
	t.Helper()
	o := LocalOptions{
		Nodes:       nodes,
		Replicas:    replicas,
		TileDim:     testTile,
		DurablePuts: true,
		Seed:        77,
	}
	for _, f := range opts {
		f(&o)
	}
	lc, err := NewLocal(o)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(func() { lc.Close() })
	if err := lc.CreateArray("A", testEdge, testEdge); err != nil {
		t.Fatalf("create: %v", err)
	}
	return lc
}

func fillTile(v float64, box layout.Box) []float64 {
	data := make([]float64, box.Size())
	for i := range data {
		data[i] = v
	}
	return data
}

// TestGetFailsOverToNextReplica kills a tile's first replica and
// requires the router to serve the read from the survivor.
func TestGetFailsOverToNextReplica(t *testing.T) {
	lc := newTestCluster(t, 3, 2)
	cli := lc.Client()
	box := layout.NewBox([]int64{0, 0}, []int64{testTile, testTile})
	if _, _, err := cli.PutTile("A", box, fillTile(7, box), 0, true); err != nil {
		t.Fatalf("put: %v", err)
	}
	reps := lc.ReplicaNodes("A", box)
	if len(reps) != 2 {
		t.Fatalf("replicas = %v, want 2", reps)
	}
	lc.Kill(reps[0])

	got, _, err := cli.GetTile("A", box, true)
	if err != nil {
		t.Fatalf("get after primary kill: %v", err)
	}
	for i, v := range got {
		if v != 7 {
			t.Fatalf("elem %d = %v after failover, want 7", i, v)
		}
	}
	// The failed hop must have marked the dead node down.
	var stats struct {
		Cluster struct {
			NodesUp int `json:"nodes_up"`
		} `json:"cluster"`
	}
	if err := cli.Stats(&stats); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Cluster.NodesUp != 2 {
		t.Fatalf("nodes_up = %d after kill, want 2", stats.Cluster.NodesUp)
	}
}

// TestQuorumFailure503 kills every replica and requires the router to
// answer 503 with a Retry-After hint, for GET and PUT both.
func TestQuorumFailure503(t *testing.T) {
	lc := newTestCluster(t, 2, 2)
	cli := lc.Client()
	box := layout.NewBox([]int64{0, 0}, []int64{testTile, testTile})
	if _, _, err := cli.PutTile("A", box, fillTile(1, box), 0, true); err != nil {
		t.Fatalf("put: %v", err)
	}
	lc.Kill(0)
	lc.Kill(1)

	url := fmt.Sprintf("%s/v1/arrays/A/tile?lo=0,0&hi=%d,%d", lc.RouterURL, testTile, testTile)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("GET status = %d with all replicas dead, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("GET 503 carries no Retry-After")
	}

	// A PUT can durably hint, but a sloppy quorum still needs one live
	// ack — with zero reachable replicas it must refuse.
	_, _, err = cli.PutTile("A", box, fillTile(2, box), 0, true)
	if err == nil {
		t.Fatal("PUT succeeded with all replicas dead")
	}
}

// TestRouterRestartRecoversCatalog replaces the router after data has
// been written and requires the replacement to serve the existing
// array without any re-creation: the catalog, like the generation
// table, is an in-memory cache of state the nodes durably hold, so a
// fresh router must rebuild it from the nodes' listings instead of
// 404ing every pre-restart array.
func TestRouterRestartRecoversCatalog(t *testing.T) {
	lc := newTestCluster(t, 3, 2)
	cli := lc.Client()
	box := layout.NewBox([]int64{0, 0}, []int64{testTile, testTile})
	if _, _, err := cli.PutTile("A", box, fillTile(9, box), 0, true); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := lc.RestartRouter(); err != nil {
		t.Fatalf("router restart: %v", err)
	}
	cli = lc.Client()
	resp, err := http.Get(lc.RouterURL + "/v1/arrays/A")
	if err != nil {
		t.Fatalf("array get: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/arrays/A = %d after router restart, want 200", resp.StatusCode)
	}
	got, _, err := cli.GetTile("A", box, true)
	if err != nil {
		t.Fatalf("tile get after router restart: %v", err)
	}
	for i, v := range got {
		if v != 9 {
			t.Fatalf("elem %d = %v after router restart, want 9", i, v)
		}
	}
}

// TestRouterRestartKeepsLayout: the nodes' listings carry each array's
// layout, so a replacement router rebuilds a col-major array as
// col-major — a scan cursor minted before the restart resumes after it,
// in column order, and the recovered catalog row still says "col"
// (which is what catalog sync would re-create on a returning node).
func TestRouterRestartKeepsLayout(t *testing.T) {
	lc := newTestCluster(t, 3, 2)
	dims := []int64{4 * testTile, 4 * testTile}
	if err := lc.Client().CreateArray("C", dims, "col"); err != nil {
		t.Fatalf("create col array: %v", err)
	}
	url := fmt.Sprintf("%s/v1/arrays/C/scan?lo=0,0&hi=%d,%d&chunk=%d", lc.RouterURL, dims[0], dims[1], testTile*testTile)
	before := routerScan(t, url)
	if len(before) < 3 {
		t.Fatalf("scan delivered %d chunks; want a multi-chunk stream", len(before))
	}
	if err := lc.RestartRouter(); err != nil {
		t.Fatalf("router restart: %v", err)
	}
	resumed := routerScan(t, lc.RouterURL+"/v1/arrays/C/scan?cursor="+before[0].Cursor)
	if len(resumed) != len(before)-1 {
		t.Fatalf("resume after restart delivered %d chunks, want %d", len(resumed), len(before)-1)
	}
	for i, ch := range resumed {
		if ch.Box.String() != before[i+1].Box.String() {
			t.Fatalf("resumed chunk %d: %v, want %v — not the col-major plan", i, ch.Box, before[i+1].Box)
		}
	}
	if a, ok := lc.Router.Lookup("C"); !ok || a.Info().Layout != "col" {
		t.Errorf("recovered catalog row for C: %+v (found %v), want layout col", a.Info(), ok)
	}
}

// TestRouterRestartKeepsObserver: the replacement router reports into
// the same metrics sink the caller handed LocalOptions, so a dashboard
// watching the cluster keeps seeing router traffic across a restart.
func TestRouterRestartKeepsObserver(t *testing.T) {
	reg := obs.NewRegistry()
	lc := newTestCluster(t, 3, 2, func(o *LocalOptions) { o.Obs = &obs.Sink{Metrics: reg} })
	if err := lc.RestartRouter(); err != nil {
		t.Fatalf("router restart: %v", err)
	}
	gets := reg.Counter("occrouter_tile_gets_total", "")
	before := gets.Value()
	box := layout.NewBox([]int64{0, 0}, []int64{testTile, testTile})
	if _, _, err := lc.Client().GetTile("A", box, true); err != nil {
		t.Fatalf("get after router restart: %v", err)
	}
	if gets.Value() == before {
		t.Fatal("occrouter_tile_gets_total did not move after a GET through the restarted router: its metrics left the caller's sink")
	}
}

// TestPartialPutHintedHandoff writes through a one-replica-down
// window: the write acks on a sloppy quorum (one live ack + one
// durable hint), and after the node heals the drained hint leaves the
// replicas byte-equal at the new value.
func TestPartialPutHintedHandoff(t *testing.T) {
	lc := newTestCluster(t, 3, 2, func(o *LocalOptions) { o.HintDir = t.TempDir() })
	cli := lc.Client()
	box := layout.NewBox([]int64{0, 0}, []int64{testTile, testTile})
	if _, _, err := cli.PutTile("A", box, fillTile(1, box), 0, true); err != nil {
		t.Fatalf("put v1: %v", err)
	}
	reps := lc.ReplicaNodes("A", box)
	down := reps[1]
	lc.Kill(down)

	// v2 lands while a replica is dead: one live ack + one queued hint.
	if _, _, err := cli.PutTile("A", box, fillTile(2, box), 0, true); err != nil {
		t.Fatalf("put v2 with a replica down: %v", err)
	}
	if n := lc.HintsPending(down); n != 1 {
		t.Fatalf("hints pending for node %d = %d, want 1", down, n)
	}

	if err := lc.Heal(); err != nil {
		t.Fatalf("heal: %v", err)
	}
	if n := lc.HintsPending(down); n != 0 {
		t.Fatalf("hints pending after heal = %d, want 0", n)
	}
	for _, i := range reps {
		got, _, err := lc.NodeClientDirect(i).GetTile("A", box, true)
		if err != nil {
			t.Fatalf("node %d: direct get: %v", i, err)
		}
		for j, v := range got {
			if v != 2 {
				t.Fatalf("node %d elem %d = %v after drain, want 2", i, j, v)
			}
		}
	}

	var stats struct {
		Cluster struct {
			HandoffHints uint64 `json:"handoff_hints"`
			HintsDrained uint64 `json:"hints_drained"`
		} `json:"cluster"`
	}
	if err := cli.Stats(&stats); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Cluster.HandoffHints == 0 || stats.Cluster.HintsDrained == 0 {
		t.Fatalf("scorecard = %+v, want both handoff counters advanced", stats.Cluster)
	}
}

// TestHealConvergesReplicas crashes a replica, writes past it, heals,
// and requires the replicas to converge to the newest acked value —
// via whichever mechanism (hint drain on probe, or read-repair on the
// first read) catches the returned replica up.
func TestHealConvergesReplicas(t *testing.T) {
	lc := newTestCluster(t, 3, 2)
	cli := lc.Client()
	box := layout.NewBox([]int64{testTile, 0}, []int64{2 * testTile, testTile})
	if _, _, err := cli.PutTile("A", box, fillTile(1, box), 0, true); err != nil {
		t.Fatalf("put v1: %v", err)
	}
	reps := lc.ReplicaNodes("A", box)
	down := reps[1]
	lc.Kill(down)
	// v2 acks on the survivor; the dead replica is owed a hint.
	if _, _, err := cli.PutTile("A", box, fillTile(2, box), 0, true); err != nil {
		t.Fatalf("put v2: %v", err)
	}
	if err := lc.Heal(); err != nil {
		t.Fatalf("heal: %v", err)
	}
	got, _, err := cli.GetTile("A", box, true)
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	for i, v := range got {
		if v != 2 {
			t.Fatalf("router read elem %d = %v, want 2", i, v)
		}
	}
	for _, i := range reps {
		direct, _, err := lc.NodeClientDirect(i).GetTile("A", box, true)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		for j, v := range direct {
			if v != 2 {
				t.Fatalf("node %d elem %d = %v, want 2", i, j, v)
			}
		}
	}
}

// TestReadRepairProper forces the pure read-repair path: a replica is
// partitioned (not killed) during a write so it holds a genuinely
// older generation, then the partition lifts and a router read must
// synchronously rewrite it to the winner.
func TestReadRepairProper(t *testing.T) {
	lc := newTestCluster(t, 3, 2)
	cli := lc.Client()
	box := layout.NewBox([]int64{0, testTile}, []int64{testTile, 2 * testTile})
	if _, _, err := cli.PutTile("A", box, fillTile(1, box), 0, true); err != nil {
		t.Fatalf("put v1: %v", err)
	}
	reps := lc.ReplicaNodes("A", box)
	lagging := reps[1]
	lc.Partition(lagging)
	if _, _, err := cli.PutTile("A", box, fillTile(2, box), 0, true); err != nil {
		t.Fatalf("put v2 with a replica partitioned: %v", err)
	}
	// Lift the partition and mark the node up WITHOUT probing, so its
	// owed hint stays queued and only read-repair can fix the lag.
	lc.Unpartition(lagging)
	lc.SetNodeDown(lagging, false)

	// Before repair, the lagging replica still serves v1 directly.
	stale, gen, err := lc.NodeClientDirect(lagging).GetTile("A", box, true)
	if err != nil {
		t.Fatalf("node %d: %v", lagging, err)
	}
	if stale[0] != 1 {
		t.Fatalf("lagging replica already at %v before any read", stale[0])
	}
	_ = gen

	got, _, err := cli.GetTile("A", box, true)
	if err != nil {
		t.Fatalf("router get: %v", err)
	}
	if got[0] != 2 {
		t.Fatalf("router read = %v, want the winner 2", got[0])
	}
	repaired, _, err := lc.NodeClientDirect(lagging).GetTile("A", box, true)
	if err != nil {
		t.Fatalf("node %d after repair: %v", lagging, err)
	}
	for j, v := range repaired {
		if v != 2 {
			t.Fatalf("lagging replica elem %d = %v after read-repair, want 2", j, v)
		}
	}
	var stats struct {
		Cluster struct {
			ReadRepairs uint64 `json:"read_repairs"`
		} `json:"cluster"`
	}
	if err := cli.Stats(&stats); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if stats.Cluster.ReadRepairs == 0 {
		t.Fatal("read_repairs counter never advanced")
	}
}

// TestRouterHammer races writers and readers through the router under
// -race: every read must come back whole-tile uniform (never torn),
// since node-side tile application is atomic under the tile lock and
// a read is served from exactly one replica.
func TestRouterHammer(t *testing.T) {
	lc := newTestCluster(t, 3, 2)
	tiles := []layout.Box{
		layout.NewBox([]int64{0, 0}, []int64{8, 8}),
		layout.NewBox([]int64{8, 8}, []int64{16, 16}),
		layout.NewBox([]int64{16, 24}, []int64{24, 32}),
	}
	const (
		writers = 4
		readers = 4
		ops     = 60
	)
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cli := lc.Client()
			for i := 0; i < ops; i++ {
				box := tiles[(w+i)%len(tiles)]
				v := float64(w*ops + i + 1)
				if _, _, err := cli.PutTile("A", box, fillTile(v, box), 0, true); err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			cli := lc.Client()
			for i := 0; i < ops; i++ {
				box := tiles[(r+i)%len(tiles)]
				got, _, err := cli.GetTile("A", box, true)
				if err != nil {
					errc <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				for j := 1; j < len(got); j++ {
					if got[j] != got[0] {
						errc <- fmt.Errorf("reader %d: torn tile %v: elem %d = %v, elem 0 = %v", r, box, j, got[j], got[0])
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestPartialReadRepairNeverTearsReplica: a read of a sub-box of a
// routing tile must not leave a stale replica claiming the tile's
// newest generation while it still holds old bytes outside the piece.
// A node reports the max generation over every recorded box the read
// overlaps, so after such a repair the two replicas report equal
// generations for unequal tiles, and the next whole-tile read served by
// the repaired replica alone comes back torn.
func TestPartialReadRepairNeverTearsReplica(t *testing.T) {
	lc := newTestCluster(t, 2, 2)
	cli := lc.Client()
	tile := layout.NewBox([]int64{0, 0}, []int64{testTile, testTile})
	if _, _, err := cli.PutTile("A", tile, fillTile(1, tile), 0, true); err != nil {
		t.Fatalf("put v1: %v", err)
	}
	reps := lc.ReplicaNodes("A", tile)
	a, b := reps[0], reps[1]
	lc.SetNodeDown(b, true)
	if _, _, err := cli.PutTile("A", tile, fillTile(2, tile), 0, true); err != nil {
		t.Fatalf("put v2 with b down: %v", err)
	}
	if lc.HintsPending(b) == 0 {
		t.Fatal("b owes no hint after missing v2")
	}
	// b rejoins without a probe, so its hint stays queued.
	lc.SetNodeDown(b, false)

	rows := layout.NewBox([]int64{0, 0}, []int64{2, testTile})
	got, _, err := cli.GetTile("A", rows, true)
	if err != nil {
		t.Fatalf("sub-box get: %v", err)
	}
	if got[0] != 2 {
		t.Fatalf("sub-box read = %v, want the winner 2", got[0])
	}

	lc.SetNodeDown(a, true)
	whole, _, err := cli.GetTile("A", tile, true)
	if err != nil {
		t.Fatalf("whole-tile get from b alone: %v", err)
	}
	for i, v := range whole {
		if v != whole[0] {
			t.Fatalf("whole tile torn on b: elem %d = %v, elem 0 = %v", i, v, whole[0])
		}
	}
}

// TestArrayNameBound holds array names to 1..ooc.MaxNameLen bytes on
// every plane: a node with or without a WAL and the router in front of
// them answer an over-long create with 400, before any node frames the
// name in a WAL record or the router frames it in a hint record. A
// name at the bound creates everywhere and round-trips through a hint
// record.
func TestArrayNameBound(t *testing.T) {
	long, atBound := strings.Repeat("a", ooc.MaxNameLen+1), strings.Repeat("b", ooc.MaxNameLen)
	create := func(base, name string) int {
		t.Helper()
		body := fmt.Sprintf(`{"name":%q,"dims":[8,8]}`, name)
		resp, err := http.Post(base+"/v1/arrays", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, wal := range []bool{false, true} {
		lc := newTestCluster(t, 3, 2, func(o *LocalOptions) { o.WAL = wal })
		for _, plane := range []struct{ name, url string }{
			{"node", lc.nodes[0].URL}, {"router", lc.RouterURL},
		} {
			if code := create(plane.url, long); code != http.StatusBadRequest {
				t.Errorf("wal=%v %s: %d-byte name answered %d, want 400", wal, plane.name, len(long), code)
			}
		}
		if code := create(lc.RouterURL, atBound); code != http.StatusCreated {
			t.Errorf("wal=%v router: %d-byte name answered %d, want 201", wal, len(atBound), code)
		}
	}

	h := hint{seq: 3, name: atBound, box: hintBox(), gen: 9, data: []float64{1, 2}}
	got, n, ok := decodeHint(encodeHint(h))
	if !ok || n != len(encodeHint(h)) || !reflect.DeepEqual(got, h) {
		t.Fatalf("%d-byte name hint decoded as (%+v, %d, %v)", len(atBound), got, n, ok)
	}
}

// TestRouterHealthzAndCatalog covers the router's liveness and
// catalog listing endpoints.
func TestRouterHealthzAndCatalog(t *testing.T) {
	lc, err := NewLocal(LocalOptions{Nodes: 2, Replicas: 1, TileDim: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.CreateArray("A", 8, 8); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(lc.RouterURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	resp, err = http.Get(lc.RouterURL + "/v1/arrays")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("array list: %d", resp.StatusCode)
	}
	if len(body) == 0 {
		t.Fatal("array list: empty body")
	}
}

// TestNewRouterRefusesNegativeTileDim: a negative routing grid edge
// would make every box its own routing key, so an unaligned read could
// land on another replica set than the aligned write it overlaps.
// NewRouter refuses it, naming the valid range; 0 still means 8.
func TestNewRouterRefusesNegativeTileDim(t *testing.T) {
	nodes := []*NodeClient{NewNodeClient("n0", "http://127.0.0.1:1")}
	if _, err := NewRouter(Options{Nodes: nodes, TileDim: -8}); err == nil || !strings.Contains(err.Error(), "valid: >= 1") {
		t.Fatalf("TileDim -8: err = %v, want a refusal naming the valid range", err)
	}
	r, err := NewRouter(Options{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Drain()
	if r.opts.TileDim != 8 {
		t.Fatalf("TileDim 0 became %d, want the default 8", r.opts.TileDim)
	}
}
