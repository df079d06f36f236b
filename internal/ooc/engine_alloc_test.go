package ooc

import (
	"testing"

	"outcore/internal/ir"
	"outcore/internal/layout"
)

// TestAcquireHitAllocs pins the zero-allocation contract of the
// cached-GET path: once a tile is resident, Acquire+Release must not
// allocate — no key string, no handle, no box copy. The serving layer's
// allocs_per_get bench gate holds only if this does.
func TestAcquireHitAllocs(t *testing.T) {
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
}
