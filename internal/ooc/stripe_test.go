package ooc

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"outcore/internal/ir"
	"outcore/internal/layout"
)

// TestStripedBackendRoundTrip differential-tests the striped backend
// against a flat memory backend: random reads and writes at random
// offsets and lengths (crossing stripe-unit and stripe boundaries)
// must observe identical bytes.
func TestStripedBackendRoundTrip(t *testing.T) {
	const size, unit, n = 1000, 16, 3
	ref := newMemBackend(size)
	sb, err := newStripedBackend(size, unit, n, func(i int, elems int64) (Backend, error) {
		return newMemBackend(elems), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 500; iter++ {
		off := rng.Int63n(size)
		length := 1 + rng.Int63n(size-off)
		if length > 64 {
			length = 64
		}
		if rng.Intn(2) == 0 {
			buf := make([]float64, length)
			for i := range buf {
				buf[i] = float64(iter*1000 + i)
			}
			if err := ref.WriteAt(buf, off); err != nil {
				t.Fatal(err)
			}
			if err := sb.WriteAt(buf, off); err != nil {
				t.Fatal(err)
			}
		} else {
			want := make([]float64, length)
			got := make([]float64, length)
			if err := ref.ReadAt(want, off); err != nil {
				t.Fatal(err)
			}
			if err := sb.ReadAt(got, off); err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("iter %d: striped[%d] = %v, flat %v", iter, off+int64(i), got[i], want[i])
				}
			}
		}
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStripedBackendBounds pins the range checks: out-of-range access
// fails instead of landing in a neighbouring stripe's over-allocation.
func TestStripedBackendBounds(t *testing.T) {
	sb, err := newStripedBackend(100, 16, 4, func(i int, elems int64) (Backend, error) {
		return newMemBackend(elems), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 8)
	if err := sb.ReadAt(buf, 96); err == nil {
		t.Error("read past the logical size succeeded")
	}
	if err := sb.WriteAt(buf, -1); err == nil {
		t.Error("negative-offset write succeeded")
	}
	if err := sb.ReadAt(buf, 92); err != nil {
		t.Errorf("in-range read at the tail failed: %v", err)
	}
}

// TestStripedFilesPersist exercises the PFS-style layout end to end:
// a striped file-backed disk writes through the engine, closes, and a
// second disk opened with KeepExisting and the same stripe geometry
// reads the data back — across stripe files, each with its own
// single-writer lock while open.
func TestStripedFilesPersist(t *testing.T) {
	dir := t.TempDir()
	const edge = 32

	d := NewDisk(0).Dir(dir).Stripe(4, 64)
	arr, err := d.CreateArray(ir.NewArray("A", edge, edge), layout.RowMajor(edge, edge))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		want := filepath.Join(dir, "A.s"+string(rune('0'+i))+".dat")
		if _, err := os.Stat(want); err != nil {
			t.Errorf("stripe file %s: %v", want, err)
		}
		if _, err := os.Stat(want + ".lock"); err != nil {
			t.Errorf("stripe lock %s.lock: %v", want, err)
		}
	}

	eng := NewEngine(d, EngineOptions{CacheTiles: 4})
	box := layout.NewBox([]int64{0, 0}, []int64{edge, edge})
	h, err := eng.Acquire(arr, box)
	if err != nil {
		t.Fatal(err)
	}
	data := h.Tile().Data()
	for i := range data {
		data[i] = float64(i)
	}
	eng.Release(h, true)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Locks released on close.
	if m, _ := filepath.Glob(filepath.Join(dir, "*.lock")); len(m) != 0 {
		t.Fatalf("lock files survive a clean close: %v", m)
	}

	// Reopen with the same geometry: the data must round-trip.
	d2 := NewDisk(0).Dir(dir).KeepExisting().Stripe(4, 64)
	arr2, err := d2.CreateArray(ir.NewArray("A", edge, edge), layout.RowMajor(edge, edge))
	if err != nil {
		t.Fatal(err)
	}
	eng2 := NewEngine(d2, EngineOptions{CacheTiles: 4})
	h2, err := eng2.Acquire(arr2, box)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range h2.Tile().Data() {
		if v != float64(i) {
			t.Fatalf("reopened element %d = %v, want %v", i, v, float64(i))
		}
	}
	eng2.Release(h2, false)
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStripedSingleWriter checks the single-writer contract holds per
// stripe: a second disk opening the same striped array fails on the
// stripe locks instead of corrupting it.
func TestStripedSingleWriter(t *testing.T) {
	dir := t.TempDir()
	d := NewDisk(0).Dir(dir).Stripe(2, 0)
	if _, err := d.CreateArray(ir.NewArray("A", 64), layout.RowMajor(64)); err != nil {
		t.Fatal(err)
	}
	d2 := NewDisk(0).Dir(dir).KeepExisting().Stripe(2, 0)
	if _, err := d2.CreateArray(ir.NewArray("A", 64), layout.RowMajor(64)); err == nil {
		t.Fatal("second writer opened a locked striped array")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStripedBackendSizeAndSync pins the composed backend's metadata
// surface: the logical size is the array's (not the padded sum of the
// stripes), and Sync fans out to every stripe.
func TestStripedBackendSizeAndSync(t *testing.T) {
	sb, err := newStripedBackend(100, 16, 4, func(i int, elems int64) (Backend, error) {
		return newMemBackend(elems), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.Size(); got != 100 {
		t.Errorf("Size() = %d, want the logical 100", got)
	}
	if err := sb.Sync(); err != nil {
		t.Errorf("Sync: %v", err)
	}
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
}
