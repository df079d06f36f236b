package ooc

import (
	"testing"

	"outcore/internal/layout"
)

// hinted acquires box with next-use hint next through AcquireAll and
// releases it (dirty when write), failing the test on error.
func hinted(t *testing.T, e *Engine, arr *Array, box layout.Box, next int, write bool) {
	t.Helper()
	hs, err := e.AcquireAll(nil, []TileReq{{Arr: arr, Box: box, Next: next}})
	if err != nil {
		t.Fatal(err)
	}
	e.Release(hs[0], write)
}

// TestEngineEvictsFurthestNextUse: with hints the victim is the tile
// used again furthest in the future, not the least recently used one.
func TestEngineEvictsFurthestNextUse(t *testing.T) {
	d, arr := engineArray(t, "A", 8, 8)
	e := NewEngine(d, EngineOptions{CacheTiles: 2})
	defer e.Close()

	bA, bB, bC := box2(0, 0, 2, 8), box2(2, 0, 4, 8), box2(4, 0, 6, 8)
	hinted(t, e, arr, bA, 3, false) // request 1; A comes back at request 4
	hinted(t, e, arr, bB, 3, false) // request 2; B at request 5
	hinted(t, e, arr, bC, 0, false) // request 3: evicts B (5 > 4), where LRU would evict A
	hinted(t, e, arr, bA, 0, false) // request 4: a hit
	if s := e.Stats(); s.Hits != 1 || s.Misses != 3 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 hit (A) + 3 misses, 1 eviction (B)", s)
	}
	hinted(t, e, arr, bB, 0, false)
	if s := e.Stats(); s.Misses != 4 {
		t.Errorf("re-acquiring B: misses = %d, want 4 (B was the victim)", s.Misses)
	}
}

// TestEngineStaleHintCountsAsNever: a hint whose request has passed
// without coming ranks as never used again, behind any live hint.
func TestEngineStaleHintCountsAsNever(t *testing.T) {
	d, arr := engineArray(t, "A", 8, 8)
	e := NewEngine(d, EngineOptions{CacheTiles: 2})
	defer e.Close()

	bA, bB, bC := box2(0, 0, 2, 8), box2(2, 0, 4, 8), box2(4, 0, 6, 8)
	hinted(t, e, arr, bB, 3, false) // request 1; B comes back at request 4
	hinted(t, e, arr, bA, 1, false) // request 2; A claims request 3...
	hinted(t, e, arr, bC, 0, false) // ...which is C: A's hint is stale, so A goes, not B
	hinted(t, e, arr, bB, 0, false) // request 4: a hit
	if s := e.Stats(); s.Hits != 1 || s.Evictions != 1 {
		t.Fatalf("stats = %+v, want 1 hit (B) and 1 eviction (A)", s)
	}
}

// TestEngineHintedVictimWritebackFailure: when the furthest-used
// victim cannot be written back it stays, dirty, and the next-best
// victim goes instead, so the cache still fits its bound.
func TestEngineHintedVictimWritebackFailure(t *testing.T) {
	e, arr, fb := flakyEngine(t, EngineOptions{CacheTiles: 2})
	defer func() {
		fb.failWrites = false
		if err := e.Close(); err != nil {
			t.Error(err)
		}
	}()

	bA, bB, bC := box2(0, 0, 2, 8), box2(2, 0, 4, 8), box2(4, 0, 6, 8)
	hinted(t, e, arr, bA, 10, true) // request 1, dirty; A comes back at request 11
	hinted(t, e, arr, bB, 3, false) // request 2; B at request 5
	fb.failWrites = true
	hinted(t, e, arr, bC, 2, false) // request 3: A ranks first but cannot be written; B goes
	s := e.Stats()
	if s.WritebackErrors == 0 || s.Evictions != 1 || e.Resident() != 2 {
		t.Fatalf("stats = %+v, resident %d; want a failed write-back, 1 eviction (B), 2 resident (A, C)", s, e.Resident())
	}
	hinted(t, e, arr, bA, 0, false) // request 4: A survived
	if s := e.Stats(); s.Hits != 1 {
		t.Errorf("re-acquiring A: hits = %d, want 1", s.Hits)
	}
}
