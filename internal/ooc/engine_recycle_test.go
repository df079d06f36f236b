package ooc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"outcore/internal/layout"
)

// TestEngineRecyclingMatchesModel is the differential property test of
// frame recycling. A seeded stream of acquires, dirty releases, blind
// Stores, residency checks and Flushes runs through a 3-tile engine
// while the same writes go straight to a twin model disk through
// ReadTile and WriteTile. Tiles have mixed shapes on two arrays with different
// layouts and ragged extents — clipped edge tiles, boxes smaller and
// larger than the buffer a recycled frame carries — and every write
// stores values no earlier write used, so a frame that kept a stale
// element, box or scratch entry from its previous tile shows as a
// mismatch. Every acquired tile must equal the model's ReadTile of the
// box, a Flush must leave the engine's backend equal to the model's,
// and so must Close. (The subtests keep their workers=0 label: the
// engine has no workers.)
func TestEngineRecyclingMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("workers=0/seed=%d", seed), func(t *testing.T) {
			recycleDifferential(t, seed)
		})
	}
}

func recycleDifferential(t *testing.T, seed int64) {
	type twin struct{ eng, model *Array }
	var arrs []twin
	ed, md := NewDisk(0), NewDisk(0)
	for _, l := range []*layout.Layout{layout.RowMajor(19, 22), layout.ColMajor(23, 17)} {
		name, dims := fmt.Sprintf("A%d", len(arrs)), l.Dims()
		_, ea := mk2D(t, ed, name, dims[0], dims[1], l)
		_, ma := mk2D(t, md, name, dims[0], dims[1], l)
		fill := func(c []int64) float64 { return float64(1000*len(arrs)) + float64(c[0]*100+c[1]) }
		ea.Fill(fill)
		ma.Fill(fill)
		arrs = append(arrs, twin{ea, ma})
	}
	e := NewEngine(ed, EngineOptions{CacheTiles: 3})
	rng := rand.New(rand.NewSource(seed))
	edges := []int64{1, 2, 3, 5, 8, 12}
	randBox := func(dims []int64) layout.Box {
		lo, hi := make([]int64, 2), make([]int64, 2)
		for d := range lo {
			lo[d] = rng.Int63n(dims[d]+2) - 2 // may overhang the low edge...
			hi[d] = lo[d] + edges[rng.Intn(len(edges))]
		}
		return layout.NewBox(lo, hi) // ...or the high one; the engine clips
	}
	next := 0.0 // every written value is new
	fresh := func(n int64) []float64 {
		v := make([]float64, n)
		for i := range v {
			next++
			v[i] = -next
		}
		return v
	}
	check := func(step int, tw twin, box layout.Box, got []float64) {
		t.Helper()
		want, err := tw.model.ReadTile(box)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want.Data()) {
			t.Fatalf("step %d: %s %v: engine tile %v, model %v", step, tw.eng.Meta.Name, box, got, want.Data())
		}
	}
	backendsEqual := func(step int) {
		t.Helper()
		for _, tw := range arrs {
			full := layout.NewBox([]int64{0, 0}, tw.eng.Meta.Dims)
			got, err := tw.eng.ReadTile(full)
			if err != nil {
				t.Fatal(err)
			}
			check(step, tw, full, got.Data())
		}
	}

	for step := 0; step < 600; step++ {
		tw := arrs[rng.Intn(len(arrs))]
		box := randBox(tw.eng.Meta.Dims)
		switch p := rng.Intn(100); {
		case p < 30: // read, sometimes holding a second pin over capacity
			h, err := e.Acquire(tw.eng, box)
			if err != nil {
				t.Fatal(err)
			}
			check(step, tw, box, h.Tile().Data())
			if rng.Intn(3) == 0 {
				tw2 := arrs[rng.Intn(len(arrs))]
				box2 := randBox(tw2.eng.Meta.Dims)
				h2, err := e.Acquire(tw2.eng, box2)
				if err != nil {
					t.Fatal(err)
				}
				check(step, tw2, box2, h2.Tile().Data())
				e.Release(h2, false)
			}
			e.Release(h, false)
		case p < 55: // read-modify-write: dirty release, invalidating overlaps
			h, err := e.Acquire(tw.eng, box)
			if err != nil {
				t.Fatal(err)
			}
			check(step, tw, box, h.Tile().Data())
			v := fresh(int64(len(h.Tile().Data())))
			copy(h.Tile().Data(), v)
			e.Release(h, true)
			mt, err := tw.model.ReadTile(box)
			if err != nil {
				t.Fatal(err)
			}
			copy(mt.Data(), v)
			if err := mt.WriteTile(); err != nil {
				t.Fatal(err)
			}
		case p < 75: // blind store
			mt := tw.model.NewTileZero(box)
			v := fresh(mt.Size())
			if err := e.Store(TileReq{Arr: tw.eng, Box: box}, v); err != nil {
				t.Fatal(err)
			}
			copy(mt.Data(), v)
			if err := mt.WriteTile(); err != nil {
				t.Fatal(err)
			}
		case p < 95: // with every pin released, the cache is within its bound
			if n := e.Resident(); n > 3 {
				t.Fatalf("step %d: %d resident frames in a 3-tile cache", step, n)
			}
		default:
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			backendsEqual(step)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	backendsEqual(-1)
}
