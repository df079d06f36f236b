package ooc

import (
	"errors"
	"testing"

	"outcore/internal/layout"
)

// flakyBackend fails writes and/or syncs while tripped; heal() makes
// it healthy again. It is the minimal stand-in for internal/faultfs
// (which lives above this package and cannot be imported here).
type flakyBackend struct {
	Backend
	failWrites bool
	failSyncs  bool
	writeErrs  int
	syncErrs   int
}

var errFlaky = errors.New("flaky backend: injected failure")

func (f *flakyBackend) WriteAt(buf []float64, off int64) error {
	if f.failWrites {
		f.writeErrs++
		return errFlaky
	}
	return f.Backend.WriteAt(buf, off)
}

func (f *flakyBackend) Sync() error {
	if f.failSyncs {
		f.syncErrs++
		return errFlaky
	}
	return f.Backend.Sync()
}

// flakyEngine builds an 8x8 array whose backend fails on demand.
func flakyEngine(t *testing.T, opts EngineOptions) (*Engine, *Array, *flakyBackend) {
	t.Helper()
	fb := &flakyBackend{}
	d := NewDisk(0).WrapBackend(func(name string, b Backend) Backend {
		fb.Backend = b
		return fb
	})
	_, arr := mk2D(t, d, "A", 8, 8, layout.RowMajor(8, 8))
	return NewEngine(d, opts), arr, fb
}

// TestFlushErrorKeepsTileDirtyAndRetries is the fix the dst harness
// leans on: a failed write-back must keep the tile dirty (its data
// exists nowhere else), and a later Flush against a healed backend
// must both succeed and land the data.
func TestFlushErrorKeepsTileDirtyAndRetries(t *testing.T) {
	e, arr, fb := flakyEngine(t, EngineOptions{CacheTiles: 4})
	defer e.Close()

	b := box2(0, 0, 2, 2)
	h, err := e.Acquire(arr, b)
	if err != nil {
		t.Fatal(err)
	}
	*elem(h.Tile(), 1, 1) = 42
	e.Release(h, true)

	fb.failWrites = true
	if err := e.Flush(); err == nil {
		t.Fatal("Flush with a failing backend reported success")
	}
	if s := e.Stats(); s.WritebackErrors == 0 {
		t.Errorf("stats = %+v, want WritebackErrors > 0", s)
	}

	// Heal. Flush must no longer be poisoned by the earlier failure
	// (non-sticky) and must write the still-dirty tile back.
	fb.failWrites = false
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush after heal: %v", err)
	}
	if got := arr.At([]int64{1, 1}); got != 42 {
		t.Fatalf("backend value = %v after healed flush, want 42", got)
	}
	if s := e.Stats(); s.Writebacks == 0 {
		t.Errorf("stats = %+v, want a successful write-back recorded", s)
	}
}

// TestEvictionNeverDropsFailedWriteback: under write failures the
// cache must hold on to dirty tiles even past its capacity bound
// rather than discard the only copy of released writes.
func TestEvictionNeverDropsFailedWriteback(t *testing.T) {
	e, arr, fb := flakyEngine(t, EngineOptions{CacheTiles: 1})
	defer e.Close()

	b := box2(0, 0, 2, 2)
	h, err := e.Acquire(arr, b)
	if err != nil {
		t.Fatal(err)
	}
	*elem(h.Tile(), 0, 0) = 7
	fb.failWrites = true
	e.Release(h, true) // over capacity: eviction tries and fails to write back

	// Acquire a different tile: capacity pressure tries to evict the
	// dirty one, fails to write it back, and must pick the clean
	// victim instead (or none). The dirty tile stays resident with
	// its data intact.
	h2, err := e.Acquire(arr, box2(4, 4, 6, 6))
	if err != nil {
		t.Fatal(err)
	}
	e.Release(h2, false)
	hd, err := e.Acquire(arr, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := *elem(hd.Tile(), 0, 0); got != 7 {
		t.Fatalf("dirty tile value = %v while backend unhealthy, want 7", got)
	}
	e.Release(hd, true)

	fb.failWrites = false
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush after heal: %v", err)
	}
	if got := arr.At([]int64{0, 0}); got != 7 {
		t.Fatalf("backend value = %v, want 7 (write survived the unhealthy window)", got)
	}
}

// TestAcquireFailsWhenOverlapFlushFails: a miss that cannot make the
// backend current (the overlapping dirty tile will not write back)
// must fail rather than return a tile missing a released write.
func TestAcquireFailsWhenOverlapFlushFails(t *testing.T) {
	e, arr, fb := flakyEngine(t, EngineOptions{CacheTiles: 8})
	defer e.Close()

	h, err := e.Acquire(arr, box2(0, 0, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	*elem(h.Tile(), 1, 1) = 5
	e.Release(h, true)

	fb.failWrites = true
	if _, err := e.Acquire(arr, box2(1, 1, 3, 3)); err == nil {
		t.Fatal("overlapping acquire succeeded without flushing the dirty tile")
	}

	fb.failWrites = false
	h2, err := e.Acquire(arr, box2(1, 1, 3, 3))
	if err != nil {
		t.Fatalf("acquire after heal: %v", err)
	}
	if got := *elem(h2.Tile(), 1, 1); got != 5 {
		t.Fatalf("tile value = %v, want the released write 5", got)
	}
	e.Release(h2, false)
}

// TestFlushSyncErrorSurfaces: a sync failure is a flush failure (the
// writes are not durable), and a healed retry succeeds.
func TestFlushSyncErrorSurfaces(t *testing.T) {
	e, arr, fb := flakyEngine(t, EngineOptions{CacheTiles: 4})
	defer e.Close()

	h, err := e.Acquire(arr, box2(0, 0, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	e.Release(h, true)

	fb.failSyncs = true
	if err := e.Flush(); err == nil {
		t.Fatal("Flush with failing sync reported success")
	}
	fb.failSyncs = false
	if err := e.Flush(); err != nil {
		t.Fatalf("Flush after sync heal: %v", err)
	}
}

// TestAbandonDropsCacheWithoutFlushing: the crash path writes nothing.
func TestAbandonDropsCacheWithoutFlushing(t *testing.T) {
	e, arr, fb := flakyEngine(t, EngineOptions{CacheTiles: 4})

	h, err := e.Acquire(arr, box2(0, 0, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	*elem(h.Tile(), 0, 0) = 9
	e.Release(h, true)

	before := fb.writeErrs
	fb.failWrites = true // any write-back attempt would be visible
	e.Abandon()
	if fb.writeErrs != before {
		t.Fatal("Abandon attempted a write-back")
	}
	if got := arr.At([]int64{0, 0}); got != 0 {
		t.Fatalf("backend value = %v after abandon, want 0 (write lost, as a crash loses it)", got)
	}
	if _, err := e.Acquire(arr, box2(0, 0, 2, 2)); err != ErrEngineClosed {
		t.Fatalf("Acquire after Abandon = %v, want ErrEngineClosed", err)
	}
	e.Abandon() // idempotent
}

// TestCloseReportsOnlyWhatItCouldNotFlush: Close's error is the final
// flush's, not the engine's history. An eviction write-back that failed
// while the backend was down does not fail a Close whose flush lands
// the tile after the backend healed; a backend that is still failing
// does, and a second Close repeats that same error.
func TestCloseReportsOnlyWhatItCouldNotFlush(t *testing.T) {
	// failedEviction dirties tile (0,0)-(2,2), then forces its eviction
	// while writes fail, and returns with the backend still failing.
	failedEviction := func(t *testing.T) (*Engine, *Array, *flakyBackend) {
		e, arr, fb := flakyEngine(t, EngineOptions{CacheTiles: 1})
		h, err := e.Acquire(arr, box2(0, 0, 2, 2))
		if err != nil {
			t.Fatal(err)
		}
		h.Tile().Data()[0] = 7 // element (0,0)
		fb.failWrites = true
		e.Release(h, true)
		h2, err := e.Acquire(arr, box2(4, 4, 6, 6)) // over capacity: evicting the dirty tile fails
		if err != nil {
			t.Fatal(err)
		}
		e.Release(h2, false)
		if s := e.Stats(); s.WritebackErrors == 0 {
			t.Fatalf("stats = %+v, want a failed eviction write-back", s)
		}
		return e, arr, fb
	}

	t.Run("healed", func(t *testing.T) {
		e, arr, fb := failedEviction(t)
		fb.failWrites = false
		if err := e.Close(); err != nil {
			t.Fatalf("Close after heal = %v, want nil: its flush landed every dirty tile", err)
		}
		if got := arr.At([]int64{0, 0}); got != 7 {
			t.Fatalf("backend value = %v after Close, want 7", got)
		}
	})

	t.Run("still failing", func(t *testing.T) {
		e, _, _ := failedEviction(t)
		err := e.Close()
		if !errors.Is(err, errFlaky) {
			t.Fatalf("Close with the backend down = %v, want the write-back failure", err)
		}
		if again := e.Close(); again != err {
			t.Fatalf("second Close = %v, want the same error %v", again, err)
		}
	})
}
