package ooc

import (
	"math/rand"
	"testing"

	"outcore/internal/ir"
	"outcore/internal/layout"
)

// TestAcquireHitAllocs pins the zero-allocation contract of the
// cached-GET path: once a tile is resident, Acquire+Release must not
// allocate — no key string, no handle, no box copy.
func TestAcquireHitAllocs(t *testing.T) {
	t.Run("raw", func(t *testing.T) {
		d := NewDisk(0)
		arr, err := d.CreateArray(ir.NewArray("a", 64, 64), layout.RowMajor(64, 64))
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(d, EngineOptions{CacheTiles: 4})
		defer e.Close()
		box := layout.NewBox([]int64{0, 0}, []int64{8, 8})
		h, err := e.Acquire(arr, box) // warm the cache
		if err != nil {
			t.Fatal(err)
		}
		e.Release(h, false)

		allocs := testing.AllocsPerRun(200, func() {
			h, err := e.Acquire(arr, box)
			if err != nil {
				t.Fatal(err)
			}
			e.Release(h, false)
		})
		if allocs != 0 {
			t.Fatalf("cached Acquire+Release allocates %.1f objects per op, want 0", allocs)
		}
	})
}

func tileGrid(n, edge int64) []layout.Box {
	var boxes []layout.Box
	for r := int64(0); r < n; r += edge {
		for c := int64(0); c < n; c += edge {
			boxes = append(boxes, layout.NewBox([]int64{r, c}, []int64{r + edge, c + edge}))
		}
	}
	return boxes
}

// TestAcquireMissAllocs pins the miss path's zero-allocation contract:
// once the cache has cycled, a miss refills a recycled frame — its
// data buffer, box storage and mover scratch — so neither the read,
// nor the eviction, nor a dirty victim's write-back, nor a blind Store
// allocates. The array is column-major so every 8×8 tile is 8 strided
// runs through the bounce buffer.
func TestAcquireMissAllocs(t *testing.T) {
	cases := []struct {
		name         string
		miss, writes bool // every op must miss / write a victim back
		op           func(e *Engine, arr *Array, box layout.Box, data []float64) error
	}{
		{"clean miss evicts a clean tile", true, false, func(e *Engine, arr *Array, box layout.Box, _ []float64) error {
			h, err := e.Acquire(arr, box)
			if err == nil {
				e.Release(h, false)
			}
			return err
		}},
		{"miss evicts a dirty tile", true, true, func(e *Engine, arr *Array, box layout.Box, _ []float64) error {
			h, err := e.Acquire(arr, box)
			if err == nil {
				h.Tile().Data()[0]++
				e.Release(h, true)
			}
			return err
		}},
		{"store to an absent key", false, true, func(e *Engine, arr *Array, box layout.Box, data []float64) error {
			return e.Store(TileReq{Arr: arr, Box: box}, data)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := NewDisk(0)
			arr, err := d.CreateArray(ir.NewArray("a", 64, 64), layout.ColMajor(64, 64))
			if err != nil {
				t.Fatal(err)
			}
			e := NewEngine(d, EngineOptions{CacheTiles: 4})
			defer e.Close()
			boxes := tileGrid(64, 8) // 64 tiles through a 4-tile cache: every op misses
			data := make([]float64, 64)
			i := 0
			op := func() {
				if err := c.op(e, arr, boxes[i%len(boxes)], data); err != nil {
					t.Fatal(err)
				}
				i++
			}
			for range boxes { // warm-up: fill the cache and the free list
				op()
			}
			before := e.Stats()
			if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
				t.Fatalf("%s allocates %.1f objects per op, want 0", c.name, allocs)
			}
			// AllocsPerRun makes 201 calls; each must take the path named.
			after := e.Stats()
			if misses := after.Misses - before.Misses; c.miss != (misses == 201) {
				t.Fatalf("%d misses in 201 ops", misses)
			}
			if wbs := after.Writebacks - before.Writebacks; c.writes != (wbs == 201) {
				t.Fatalf("%d write-backs in 201 ops", wbs)
			}
		})
	}
}

// BenchmarkAcquireMiss is the engine half of the miss_point workload:
// a column-major 1024×1024 array of 32×32 tiles, 16× a 64-tile cache,
// acquired in a seeded random order, so nearly every Acquire misses,
// reads 32 strided runs and evicts.
func BenchmarkAcquireMiss(b *testing.B) {
	d := NewDisk(0)
	arr, err := d.CreateArray(ir.NewArray("a", 1024, 1024), layout.ColMajor(1024, 1024))
	if err != nil {
		b.Fatal(err)
	}
	e := NewEngine(d, EngineOptions{CacheTiles: 64})
	defer e.Close()
	boxes := tileGrid(1024, 32)
	rng := rand.New(rand.NewSource(1))
	order := make([]layout.Box, 4096)
	for i := range order {
		order[i] = boxes[rng.Intn(len(boxes))]
	}
	b.ReportAllocs()
	b.SetBytes(32 * 32 * ElemSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := e.Acquire(arr, order[i%len(order)])
		if err != nil {
			b.Fatal(err)
		}
		e.Release(h, false)
	}
}

// TestEngineMemoryFollowsUse: what the engine holds scales with the
// tiles it has touched, not with the configured bound. A huge
// CacheTiles costs nothing up front and the frame table grows as tiles
// come in; a recycled frame drops a buffer more than twice the new
// tile's size instead of pinning a big scan chunk under a small tile.
func TestEngineMemoryFollowsUse(t *testing.T) {
	d := NewDisk(0)
	arr, err := d.CreateArray(ir.NewArray("a", 256, 256), layout.RowMajor(256, 256))
	if err != nil {
		t.Fatal(err)
	}
	big := NewEngine(d, EngineOptions{CacheTiles: 1 << 62})
	if len(big.buckets) != minBuckets {
		t.Fatalf("fresh engine has %d buckets, want %d", len(big.buckets), minBuckets)
	}
	boxes := tileGrid(256, 16)
	for _, box := range boxes {
		h, err := big.Acquire(arr, box)
		if err != nil {
			t.Fatal(err)
		}
		big.Release(h, false)
	}
	if n := len(big.buckets); n < 2*len(boxes) || n > 4*len(boxes) {
		t.Fatalf("%d resident tiles in %d buckets, want 2-4 per tile", len(boxes), n)
	}
	for _, box := range boxes { // every frame still reachable after the rehashes
		h, err := big.Acquire(arr, box)
		if err != nil {
			t.Fatal(err)
		}
		big.Release(h, false)
	}
	if st := big.Stats(); st.Misses != int64(len(boxes)) || st.Hits != int64(len(boxes)) {
		t.Fatalf("%d misses, %d hits; want %d each", st.Misses, st.Hits, len(boxes))
	}
	if err := big.Close(); err != nil {
		t.Fatal(err)
	}

	e := NewEngine(d, EngineOptions{CacheTiles: 1})
	defer e.Close()
	for _, box := range []layout.Box{
		layout.NewBox([]int64{0, 0}, []int64{64, 256}), // a 16K-element chunk
		layout.NewBox([]int64{64, 0}, []int64{72, 8}),  // then 64-element tiles
		layout.NewBox([]int64{72, 0}, []int64{80, 8}),
	} {
		h, err := e.Acquire(arr, box)
		if err != nil {
			t.Fatal(err)
		}
		n := int(box.Size())
		if c := cap(h.Tile().Data()); c > 2*n {
			t.Fatalf("tile of %d elements holds a %d-element buffer", n, c)
		}
		e.Release(h, false)
	}
}
