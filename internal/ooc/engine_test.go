package ooc

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"outcore/internal/ir"
	"outcore/internal/layout"
)

func box2(lo0, lo1, hi0, hi1 int64) layout.Box {
	return layout.NewBox([]int64{lo0, lo1}, []int64{hi0, hi1})
}

// engineArray builds a data-backed 2-D array filled with f(i,j) = 1000i+j.
func engineArray(t *testing.T, name string, n, m int64) (*Disk, *Array) {
	t.Helper()
	d := NewDisk(0)
	_, arr := mk2D(t, d, name, n, m, layout.RowMajor(n, m))
	arr.Fill(func(c []int64) float64 { return float64(1000*c[0] + c[1]) })
	d.ResetStats()
	return d, arr
}

func TestEngineHitMissCounters(t *testing.T) {
	d, arr := engineArray(t, "A", 8, 8)
	e := NewEngine(d, EngineOptions{CacheTiles: 4})
	defer e.Close()

	b := box2(0, 0, 4, 4)
	h1, err := e.Acquire(arr, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := *elem(h1.Tile(), 2, 3); got != 2003 {
		t.Errorf("tile content = %v, want 2003", got)
	}
	e.Release(h1, false)
	h2, err := e.Acquire(arr, b)
	if err != nil {
		t.Fatal(err)
	}
	e.Release(h2, false)

	s := e.Stats()
	if s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 1 miss + 1 hit", s)
	}
	if s.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", s.HitRate())
	}
	if e.Resident() != 1 {
		t.Errorf("resident = %d, want 1", e.Resident())
	}
}

func TestEngineLRUEvictionOrder(t *testing.T) {
	d, arr := engineArray(t, "A", 8, 8)
	e := NewEngine(d, EngineOptions{CacheTiles: 2})
	defer e.Close()

	acq := func(b layout.Box) {
		t.Helper()
		h, err := e.Acquire(arr, b)
		if err != nil {
			t.Fatal(err)
		}
		e.Release(h, false)
	}
	bA, bB, bC := box2(0, 0, 2, 8), box2(2, 0, 4, 8), box2(4, 0, 6, 8)
	acq(bA)
	acq(bB)
	acq(bA) // A is now more recent than B
	acq(bC) // capacity 2: evicts B, keeps A+C

	acq(bA) // must still be cached
	s := e.Stats()
	if s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1 (B)", s.Evictions)
	}
	if s.Hits != 2 || s.Misses != 3 {
		t.Errorf("stats = %+v, want 2 hits (A,A) + 3 misses (A,B,C)", s)
	}
	acq(bB) // and B must be gone
	if s := e.Stats(); s.Misses != 4 {
		t.Errorf("re-acquiring evicted B: misses = %d, want 4", s.Misses)
	}
}

func TestEngineWritebackPersists(t *testing.T) {
	d, arr := engineArray(t, "A", 8, 8)
	e := NewEngine(d, EngineOptions{CacheTiles: 4})

	b := box2(0, 0, 2, 2)
	h, err := e.Acquire(arr, b)
	if err != nil {
		t.Fatal(err)
	}
	*elem(h.Tile(), 1, 1) = -7
	e.Release(h, true)

	// Not flushed yet: the backend still holds the old value, the cache
	// the new one.
	if raw, _ := arr.ReadTile(b); *elem(raw, 1, 1) != 1001 {
		t.Errorf("backend updated before flush: %v", *elem(raw, 1, 1))
	}
	h2, err := e.Acquire(arr, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := *elem(h2.Tile(), 1, 1); got != -7 {
		t.Errorf("cached dirty tile reads %v, want -7", got)
	}
	e.Release(h2, false)

	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if raw, _ := arr.ReadTile(b); *elem(raw, 1, 1) != -7 {
		t.Errorf("backend after flush reads %v, want -7", *elem(raw, 1, 1))
	}
	if s := e.Stats(); s.Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", s.Writebacks)
	}
	// Flush leaves the tile resident and clean: a second flush is a no-op.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Writebacks != 1 {
		t.Errorf("clean flush wrote back again: %d", s.Writebacks)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEngineEvictionWritesBack(t *testing.T) {
	d, arr := engineArray(t, "A", 8, 8)
	e := NewEngine(d, EngineOptions{CacheTiles: 1})
	defer e.Close()

	h, err := e.Acquire(arr, box2(0, 0, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	*elem(h.Tile(), 0, 0) = 42
	e.Release(h, true)

	// Capacity 1: acquiring a different tile evicts the dirty one, which
	// must reach the backend on the way out.
	h2, err := e.Acquire(arr, box2(4, 4, 6, 6))
	if err != nil {
		t.Fatal(err)
	}
	e.Release(h2, false)
	if raw, _ := arr.ReadTile(box2(0, 0, 1, 1)); *elem(raw, 0, 0) != 42 {
		t.Errorf("evicted dirty tile not written back: %v", *elem(raw, 0, 0))
	}
	if s := e.Stats(); s.Writebacks != 1 || s.Evictions != 1 {
		t.Errorf("stats = %+v, want 1 writeback + 1 eviction", s)
	}
}

func TestEngineDirtyInvalidatesOverlap(t *testing.T) {
	d, arr := engineArray(t, "A", 8, 8)
	e := NewEngine(d, EngineOptions{CacheTiles: 8})
	defer e.Close()

	small := box2(1, 1, 3, 3)
	big := box2(0, 0, 4, 4)
	hs, err := e.Acquire(arr, small)
	if err != nil {
		t.Fatal(err)
	}
	e.Release(hs, false) // clean copy of the small box stays cached

	hb, err := e.Acquire(arr, big)
	if err != nil {
		t.Fatal(err)
	}
	*elem(hb.Tile(), 2, 2) = 99
	e.Release(hb, true) // dirtying big must invalidate the stale small copy

	if s := e.Stats(); s.Invalidations != 1 {
		t.Errorf("invalidations = %d, want 1", s.Invalidations)
	}
	hs2, err := e.Acquire(arr, small)
	if err != nil {
		t.Fatal(err)
	}
	if got := *elem(hs2.Tile(), 2, 2); got != 99 {
		t.Errorf("overlapping acquire after dirty release reads %v, want 99", got)
	}
	e.Release(hs2, false)
}

func TestEngineMissFlushesOverlapDirty(t *testing.T) {
	d, arr := engineArray(t, "A", 8, 8)
	e := NewEngine(d, EngineOptions{CacheTiles: 8})
	defer e.Close()

	h, err := e.Acquire(arr, box2(0, 0, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	*elem(h.Tile(), 1, 1) = 5
	e.Release(h, true)

	// A miss on a box overlapping the dirty tile must observe the write:
	// the engine flushes before reading the backend.
	h2, err := e.Acquire(arr, box2(1, 1, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := *elem(h2.Tile(), 1, 1); got != 5 {
		t.Errorf("miss over dirty tile reads %v, want 5", got)
	}
	e.Release(h2, false)
}

// slowBackend counts backend reads and makes each one take delay.
type slowBackend struct {
	Backend
	delay time.Duration
	reads atomic.Int64
}

func (s *slowBackend) ReadAt(buf []float64, off int64) error {
	s.reads.Add(1)
	time.Sleep(s.delay)
	return s.Backend.ReadAt(buf, off)
}

// TestConcurrentColdAcquireSharesOneRead pins the engine as the one
// owner of a cold tile's shared read: K goroutines acquiring one cold
// box behind a slow backend cause exactly one backend ReadAt and one
// miss; every other acquire is a hit, whether it waited out the
// in-flight read or found the tile resident.
func TestConcurrentColdAcquireSharesOneRead(t *testing.T) {
	const K = 24
	sb := &slowBackend{delay: 50 * time.Millisecond}
	d := NewDisk(0).WrapBackend(func(_ string, b Backend) Backend {
		sb.Backend = b
		return sb
	})
	_, arr := mk2D(t, d, "A", 16, 16, layout.RowMajor(16, 16))
	arr.Fill(func(c []int64) float64 { return float64(1000*c[0] + c[1]) })
	e := NewEngine(d, EngineOptions{CacheTiles: 4})
	defer e.Close()

	b := box2(0, 0, 16, 16) // the whole row-major array: one run, one ReadAt
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < K; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			h, err := e.Acquire(arr, b)
			if err != nil {
				t.Error(err)
				return
			}
			if got := *elem(h.Tile(), 15, 9); got != 15009 {
				t.Errorf("shared tile reads %v, want 15009", got)
			}
			e.Release(h, false)
		}()
	}
	close(start)
	wg.Wait()
	if got := sb.reads.Load(); got != 1 {
		t.Errorf("backend ReadAt called %d times for one cold box, want 1", got)
	}
	s := e.Stats()
	if s.Misses != 1 {
		t.Errorf("misses = %d, want 1", s.Misses)
	}
	if s.Hits != K-1 {
		t.Errorf("hits = %d, want %d", s.Hits, K-1)
	}
}

func TestEngineCloseSemantics(t *testing.T) {
	d, arr := engineArray(t, "A", 8, 8)
	e := NewEngine(d, EngineOptions{CacheTiles: 2})
	h, err := e.Acquire(arr, box2(0, 0, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	*elem(h.Tile(), 0, 1) = 3
	e.Release(h, true)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if raw, _ := arr.ReadTile(box2(0, 0, 2, 2)); *elem(raw, 0, 1) != 3 {
		t.Error("Close did not flush the dirty tile")
	}
	if err := e.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := e.Acquire(arr, box2(0, 0, 2, 2)); err != ErrEngineClosed {
		t.Errorf("Acquire after Close: %v, want ErrEngineClosed", err)
	}
}

func TestEngineDoubleReleasePanics(t *testing.T) {
	d, arr := engineArray(t, "A", 8, 8)
	e := NewEngine(d, EngineOptions{CacheTiles: 2})
	defer e.Close()
	h, err := e.Acquire(arr, box2(0, 0, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	e.Release(h, false)
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	e.Release(h, false)
}

func TestEngineTouchAccounting(t *testing.T) {
	d := NewDisk(0).NoBacking()
	_, arr := mk2D(t, d, "A", 8, 8, layout.RowMajor(8, 8))
	e := NewEngine(d, EngineOptions{CacheTiles: 4})

	b := box2(0, 0, 4, 8)
	for _, write := range []bool{false, false, true} { // miss (charges the read), hit, hit now dirty
		h, err := e.Acquire(arr, b)
		if err != nil {
			t.Fatal(err)
		}
		e.Release(h, write)
	}
	// An accounting store reads nothing and is neither hit nor miss.
	if err := e.Store(TileReq{Arr: arr, Box: box2(4, 0, 8, 8)}, nil); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Misses != 1 || s.Hits != 2 {
		t.Errorf("touch stats = %+v, want 1 miss + 2 hits", s)
	}
	if d.Stats.ReadCalls != 1 || d.Stats.WriteCalls != 0 {
		t.Errorf("disk charged %d reads / %d writes before flush, want 1 / 0",
			d.Stats.ReadCalls, d.Stats.WriteCalls)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if d.Stats.WriteCalls != 2 {
		t.Errorf("dirty touch entries flushed %d write calls, want 2", d.Stats.WriteCalls)
	}

	// On a closed engine an accounting acquire or store fails and
	// charges nothing: no read, and no dirty entry a later Close would
	// never write back.
	before := d.Stats.Snapshot()
	if _, err := e.Acquire(arr, box2(4, 0, 8, 8)); err != ErrEngineClosed {
		t.Fatalf("Acquire after Close: %v, want ErrEngineClosed", err)
	}
	if err := e.Store(TileReq{Arr: arr, Box: box2(4, 0, 8, 8)}, nil); err != ErrEngineClosed {
		t.Fatalf("Store after Close: %v, want ErrEngineClosed", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if after := d.Stats.Snapshot(); after != before {
		t.Fatalf("calls after Close moved the disk stats: %+v -> %+v", before, after)
	}
}

// TestEngineConcurrentStress is the deterministic-seed stress test the
// race detector runs against: goroutines with disjoint write bands of W
// plus a shared read-only array R, through one engine small enough to
// keep evicting under load. Each step re-acquires its R box while the
// first handle is still pinned, so at least one hit per step is part of
// the schedule rather than of the goroutine interleaving.
func TestEngineConcurrentStress(t *testing.T) {
	const (
		G     = 8  // goroutines
		steps = 60 // acquire/modify/release cycles each
		rows  = 4  // W rows per goroutine
		cols  = 16
	)
	d := NewDisk(0)
	_, w := mk2D(t, d, "W", G*rows, cols, layout.RowMajor(G*rows, cols))
	_, r := mk2D(t, d, "R", 64, 64, layout.RowMajor(64, 64))
	r.Fill(func(c []int64) float64 { return float64(1000*c[0] + c[1]) })
	e := NewEngine(d, EngineOptions{CacheTiles: 6})

	expected := make([][]int64, G) // per-goroutine per-column increment counts
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		expected[g] = make([]int64, cols)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			lo := int64(g * rows)
			for k := 0; k < steps; k++ {
				// Shared read-only tile of R: contents must always match the
				// fill, however often it is evicted or re-read.
				ri, rj := int64(rng.Intn(48)), int64(rng.Intn(48))
				rb := box2(ri, rj, ri+16, rj+16)
				hr, err := e.Acquire(r, rb)
				if err != nil {
					t.Error(err)
					return
				}
				if got := *elem(hr.Tile(), ri, rj); got != float64(1000*ri+rj) {
					t.Errorf("goroutine %d step %d: R(%d,%d) = %v", g, k, ri, rj, got)
				}
				// A pinned tile stays resident: this acquire is a hit.
				hr2, err := e.Acquire(r, rb)
				if err != nil {
					t.Error(err)
					e.Release(hr, false)
					return
				}
				if hr2.Tile() != hr.Tile() {
					t.Errorf("goroutine %d step %d: re-acquire of a pinned box got a second tile", g, k)
				}
				e.Release(hr2, false)

				// Disjoint write band of W: random column sub-range, +1 each.
				c0 := int64(rng.Intn(cols - 1))
				c1 := c0 + 1 + int64(rng.Intn(int(cols-c0-1))+1)
				wb := box2(lo, c0, lo+rows, c1)
				hw, err := e.Acquire(w, wb)
				if err != nil {
					t.Error(err)
					e.Release(hr, false)
					return
				}
				for i := lo; i < lo+rows; i++ {
					for j := c0; j < c1; j++ {
						*elem(hw.Tile(), i, j) = *elem(hw.Tile(), i, j) + 1
					}
				}
				e.Release(hw, true)
				e.Release(hr, false)
				for j := c0; j < c1; j++ {
					expected[g][j]++
				}
			}
		}(g)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	full, err := w.ReadTile(box2(0, 0, G*rows, cols))
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < G; g++ {
		for i := int64(g * rows); i < int64((g+1)*rows); i++ {
			for j := int64(0); j < cols; j++ {
				if got, want := *elem(full, i, j), float64(expected[g][j]); got != want {
					t.Fatalf("W(%d,%d) = %v, want %v", i, j, got, want)
				}
			}
		}
	}
	s := e.Stats()
	if s.Evictions == 0 {
		t.Error("stress never evicted; cache too large to stress anything")
	}
	if s.Hits < G*steps || s.Misses == 0 {
		t.Errorf("degenerate stress stats (want Hits >= %d, Misses > 0): %+v", G*steps, s)
	}
}

// TestPropertyEngineMatchesSequential drives a random tile schedule
// through the sequential ReadTile/WriteTile runtime and through the
// cached engine, and requires bitwise-identical array contents with
// equal-or-fewer backend I/O calls.
func TestPropertyEngineMatchesSequential(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int64(8 + rng.Intn(17)) // 8..24
		m := int64(8 + rng.Intn(17))

		mkDisk := func() (*Disk, *Array) {
			d := NewDisk(0)
			meta := ir.NewArray("A", n, m)
			arr, err := d.CreateArray(meta, layout.RowMajor(n, m))
			if err != nil {
				t.Fatal(err)
			}
			arr.Fill(func(c []int64) float64 { return float64(c[0]*31 + c[1]) })
			d.ResetStats()
			return d, arr
		}
		dSeq, aSeq := mkDisk()
		dEng, aEng := mkDisk()
		e := NewEngine(dEng, EngineOptions{CacheTiles: 1 + rng.Intn(6)})

		type op struct {
			box   layout.Box
			delta float64
			write bool
		}
		ops := make([]op, 12+rng.Intn(30))
		for i := range ops {
			lo0, lo1 := int64(rng.Intn(int(n))), int64(rng.Intn(int(m)))
			h0 := lo0 + 1 + int64(rng.Intn(int(n-lo0)))
			h1 := lo1 + 1 + int64(rng.Intn(int(m-lo1)))
			ops[i] = op{box2(lo0, lo1, h0, h1), float64(1 + rng.Intn(9)), rng.Intn(2) == 0}
		}

		for _, o := range ops {
			// Sequential runtime: read, modify, write the whole tile.
			ts, err := aSeq.ReadTile(o.box)
			if err != nil {
				t.Fatal(err)
			}
			if o.write {
				for i := o.box.Lo[0]; i < o.box.Hi[0]; i++ {
					for j := o.box.Lo[1]; j < o.box.Hi[1]; j++ {
						*elem(ts, i, j) = *elem(ts, i, j) + o.delta
					}
				}
				if err := ts.WriteTile(); err != nil {
					t.Fatal(err)
				}
			}
			// Engine: acquire, modify in place, release dirty.
			h, err := e.Acquire(aEng, o.box)
			if err != nil {
				t.Fatal(err)
			}
			if o.write {
				for i := o.box.Lo[0]; i < o.box.Hi[0]; i++ {
					for j := o.box.Lo[1]; j < o.box.Hi[1]; j++ {
						*elem(h.Tile(), i, j) = *elem(h.Tile(), i, j) + o.delta
					}
				}
			}
			e.Release(h, o.write)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		seqStats, engStats := dSeq.Stats.Snapshot(), dEng.Stats.Snapshot()

		full := box2(0, 0, n, m)
		tSeq, err := aSeq.ReadTile(full)
		if err != nil {
			t.Fatal(err)
		}
		tEng, err := aEng.ReadTile(full)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < n; i++ {
			for j := int64(0); j < m; j++ {
				if *elem(tSeq, i, j) != *elem(tEng, i, j) {
					t.Logf("seed %d: (%d,%d) seq %v vs eng %v", seed, i, j,
						*elem(tSeq, i, j), *elem(tEng, i, j))
					return false
				}
			}
		}
		if engStats.Calls() > seqStats.Calls() {
			t.Logf("seed %d: engine made %d calls, sequential %d", seed,
				engStats.Calls(), seqStats.Calls())
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
