package cluster

// The cluster conformance suite: the PR-5 differential op streams —
// same seeds, same dispatch mix, same rng consumption — are replayed
// in lockstep against a single ooc.Engine reference and a {router +
// N nodes, R=2} cluster, and every read must come back byte-identical
// to both the sequential model and the reference. The cluster runs
// its real stack: loopback HTTP, x-ooc-gorilla at the client edge, durable
// PUTs, generation headers, read-repair.
//
// The op stream's "flush" is a no-op for the cluster (a replica's PUT
// ack already means durable), so the reference plane flushes after
// every write to match: both planes then agree that a power cut —
// which here kills EVERY node, erasing all volatile engine state and
// every in-memory generation table — loses nothing that was acked.
// The epilogue reads every grid tile once through the router (running
// read-repair wherever a restart left a replica behind) and then
// asserts the replicas byte-equal each other via direct node reads.

import (
	"fmt"
	"math/rand"
	"testing"

	"outcore/internal/faultfs"
	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/ooc"
)

const (
	confEdge  = 64 // array is confEdge x confEdge
	confTile  = 8  // aligned tile edge (= routing grid edge)
	confCache = 8  // cache budget (tiles) per plane / node
	confOps   = 150
)

// confSeeds honors -short with the reduced set CI's tier-1 cluster
// job replays; the full 20 match the single-node suite.
func confSeeds(t *testing.T) int64 {
	if testing.Short() {
		return 6
	}
	return 20
}

// confRef is the single-engine reference plane.
type confRef struct {
	inj  *faultfs.Injector
	disk *ooc.Disk
	arr  *ooc.Array
	eng  *ooc.Engine
}

func newConfRef(t *testing.T, seed int64) *confRef {
	t.Helper()
	p := &confRef{inj: faultfs.New(seed, faultfs.Profile{})}
	p.open(t)
	return p
}

func (p *confRef) open(t *testing.T) {
	t.Helper()
	p.disk = ooc.NewDisk(0).WrapBackend(p.inj.Wrap)
	arr, err := p.disk.CreateArray(ir.NewArray("A", confEdge, confEdge), layout.RowMajor(confEdge, confEdge))
	if err != nil {
		t.Fatalf("ref: create: %v", err)
	}
	p.arr = arr
	p.eng = ooc.NewEngine(p.disk, ooc.EngineOptions{CacheTiles: confCache})
}

// confModel is the sequential model of the array's contents.
type confModel struct{ a []float64 }

func (m *confModel) want(box layout.Box) []float64 {
	out := make([]float64, 0, box.Size())
	for r := box.Lo[0]; r < box.Hi[0]; r++ {
		for c := box.Lo[1]; c < box.Hi[1]; c++ {
			out = append(out, m.a[r*confEdge+c])
		}
	}
	return out
}

func (m *confModel) fill(box layout.Box, v float64) {
	for r := box.Lo[0]; r < box.Hi[0]; r++ {
		for c := box.Lo[1]; c < box.Hi[1]; c++ {
			m.a[r*confEdge+c] = v
		}
	}
}

func alignedTile(tr, tc int64) layout.Box {
	return layout.NewBox(
		[]int64{tr * confTile, tc * confTile},
		[]int64{(tr + 1) * confTile, (tc + 1) * confTile},
	)
}

func equalSlices(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClusterConformance is the proof obligation behind the router's
// claim of being observably identical to one ooc.Engine. CI runs it
// under -race.
func TestClusterConformance(t *testing.T) {
	for _, nodes := range []int{2, 3} {
		for seed := int64(1); seed <= confSeeds(t); seed++ {
			nodes, seed := nodes, seed
			t.Run(fmt.Sprintf("n%d/seed=%d", nodes, seed), func(t *testing.T) {
				t.Parallel()
				runClusterConformanceSeed(t, seed, nodes)
			})
		}
	}
}

func runClusterConformanceSeed(t *testing.T, seed int64, nodes int) {
	lc, err := NewLocal(LocalOptions{
		Nodes:       nodes,
		Replicas:    2,
		TileDim:     confTile,
		CacheTiles:  confCache,
		DurablePuts: true, // a replica's ack means durable — the conformance crash contract
		Seed:        seed,
	})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer lc.Close()
	if err := lc.CreateArray("A", confEdge, confEdge); err != nil {
		t.Fatalf("cluster: create: %v", err)
	}
	cli := lc.Client()
	ref := newConfRef(t, seed)

	model := &confModel{a: make([]float64, confEdge*confEdge)}
	rng := rand.New(rand.NewSource(seed))
	nextVal := float64(0)
	tilesPerEdge := int64(confEdge / confTile)

	get := func(box layout.Box) {
		want := model.want(box)
		got, _, err := cli.GetTile("A", box, true)
		if err != nil {
			t.Fatalf("cluster: get %v: %v", box, err)
		}
		if !equalSlices(got, want) {
			t.Fatalf("cluster: read %v diverged from the model", box)
		}
		h, err := ref.eng.Acquire(ref.arr, box)
		if err != nil {
			t.Fatalf("ref: acquire %v: %v", box, err)
		}
		if !equalSlices(h.Tile().Data(), want) {
			t.Fatalf("ref: read %v diverged from the model", box)
		}
		ref.eng.Release(h, false)
	}

	put := func(box layout.Box, v float64) {
		data := make([]float64, box.Size())
		for i := range data {
			data[i] = v
		}
		// The router assigns generations itself; the client-side gen
		// argument is only meaningful on direct node hops.
		if _, _, err := cli.PutTile("A", box, data, 0, true); err != nil {
			t.Fatalf("cluster: put %v: %v", box, err)
		}
		h, err := ref.eng.Acquire(ref.arr, box)
		if err != nil {
			t.Fatalf("ref: acquire %v: %v", box, err)
		}
		copy(h.Tile().Data(), data)
		ref.eng.Release(h, true)
		// The cluster's ack is durable; flush so the reference's is too.
		if err := ref.eng.Flush(); err != nil {
			t.Fatalf("ref: flush: %v", err)
		}
		model.fill(box, v)
	}

	for op := 0; op < confOps; op++ {
		switch u := rng.Float64(); {
		case u < 0.40: // aligned whole-tile write of a fresh value
			box := alignedTile(rng.Int63n(tilesPerEdge), rng.Int63n(tilesPerEdge))
			nextVal++
			put(box, nextVal)

		case u < 0.75: // aligned read
			get(alignedTile(rng.Int63n(tilesPerEdge), rng.Int63n(tilesPerEdge)))

		case u < 0.90: // unaligned read straddling tile (and node) borders
			lo := []int64{rng.Int63n(confEdge), rng.Int63n(confEdge)}
			hi := []int64{lo[0] + 1 + rng.Int63n(12), lo[1] + 1 + rng.Int63n(12)}
			get(layout.NewBox(lo, hi).Clip([]int64{confEdge, confEdge}))

		case u < 0.97: // flush: acked durability is already per-write on both planes
			if err := ref.eng.Flush(); err != nil {
				t.Fatalf("ref: flush: %v", err)
			}

		default: // power cut: every node dies; acked writes must all survive
			for i := 0; i < lc.Nodes(); i++ {
				lc.Kill(i)
			}
			if err := lc.Heal(); err != nil {
				t.Fatalf("heal after power cut: %v", err)
			}
			ref.eng.Abandon()
			ref.inj.Crash()
			ref.open(t)
		}
	}

	// Epilogue: sweep every grid tile through the router (read-repair
	// catches up any replica a restart left behind), checking against
	// the model, then require the replicas to byte-equal each other.
	for tr := int64(0); tr < tilesPerEdge; tr++ {
		for tc := int64(0); tc < tilesPerEdge; tc++ {
			get(alignedTile(tr, tc))
		}
	}
	for tr := int64(0); tr < tilesPerEdge; tr++ {
		for tc := int64(0); tc < tilesPerEdge; tc++ {
			box := alignedTile(tr, tc)
			want := model.want(box)
			for _, i := range lc.ReplicaNodes("A", box) {
				got, _, err := lc.NodeClientDirect(i).GetTile("A", box, true)
				if err != nil {
					t.Fatalf("node %d: direct get %v: %v", i, box, err)
				}
				if !equalSlices(got, want) {
					t.Fatalf("node %d: replica of %v diverged after repair", i, box)
				}
			}
		}
	}

	if err := ref.eng.Close(); err != nil {
		t.Fatalf("ref: close: %v", err)
	}
}
