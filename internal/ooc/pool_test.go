package ooc

import (
	"testing"

	"outcore/internal/obs"
)

func TestPoolClass(t *testing.T) {
	for _, tc := range []struct {
		n, want int
	}{
		{1, 0}, {64, 0}, {65, 1}, {128, 1}, {129, 2},
		{1 << 24, poolClasses - 1}, {1<<24 + 1, -1},
	} {
		if got := poolClass(tc.n); got != tc.want {
			t.Errorf("poolClass(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestPoolRecycles pins the arena contract: a returned buffer of an
// exact class size comes back on the next Get of that class, lengths
// are exactly as requested, and grown or oversize buffers are dropped
// rather than poisoning a class.
func TestPoolRecycles(t *testing.T) {
	b := GetBuf(100) // class 1: cap 128
	if len(b) != 100 || cap(b) != 128 {
		t.Fatalf("GetBuf(100): len %d cap %d, want 100/128", len(b), cap(b))
	}
	PutBuf(b)
	b2 := GetBuf(120)
	if cap(b2) != 128 {
		t.Fatalf("recycled buffer has cap %d, want 128", cap(b2))
	}

	f := GetF64(100)
	if len(f) != 100 || cap(f) != 128 {
		t.Fatalf("GetF64(100): len %d cap %d, want 100/128", len(f), cap(f))
	}
	PutF64(f)

	// A non-class capacity (grown by append, sub-sliced, oversize) is
	// silently dropped — PutBuf must not panic or pool it.
	PutBuf(make([]byte, 100))
	PutF64(make([]float64, 0, 100))

	// Oversize requests allocate plainly, move neither counter, and
	// are never pooled.
	hits, misses := observePool()
	h0, m0 := hits.Value(), misses.Value()
	huge := GetBuf(1<<24 + 1)
	if len(huge) != 1<<24+1 {
		t.Fatal("oversize GetBuf returned wrong length")
	}
	PutBuf(huge)
	hugeF := GetF64(1<<24 + 1)
	PutF64(hugeF)
	if hits.Value() != h0 || misses.Value() != m0 {
		t.Fatalf("oversize requests moved the pool counters: hits %d -> %d, misses %d -> %d",
			h0, hits.Value(), m0, misses.Value())
	}
	if got := cap(GetBuf(1 << 24)); got != 1<<24 {
		t.Fatalf("largest class served cap %d, want %d: an oversize buffer was pooled", got, 1<<24)
	}
}

// observePool points the arena's counters at a fresh registry and
// returns them, read back by name.
func observePool() (hits, misses *obs.Counter) {
	reg := obs.NewRegistry()
	ObservePool(&obs.Sink{Metrics: reg})
	return reg.Counter("ooc_pool_hits_total", ""), reg.Counter("ooc_pool_misses_total", "")
}

func TestPoolStatsMove(t *testing.T) {
	hits, misses := observePool()
	b := GetBuf(70) // class 1
	PutBuf(b)
	_ = GetBuf(70)
	if hits.Value()+misses.Value() < 2 {
		t.Fatalf("pool counters did not move: hits %d, misses %d after two requests", hits.Value(), misses.Value())
	}
}

// TestPoolRecycleAllocs: a Get/Put cycle of a class buffer allocates
// nothing once the class is warm — Put reuses the holder the Get
// emptied instead of boxing a fresh slice header.
func TestPoolRecycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations move the counts")
	}
	PutBuf(GetBuf(4096))
	PutF64(GetF64(4096))
	if n := testing.AllocsPerRun(1000, func() { PutBuf(GetBuf(4096)) }); n != 0 {
		t.Errorf("GetBuf/PutBuf cycle: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { PutF64(GetF64(4096)) }); n != 0 {
		t.Errorf("GetF64/PutF64 cycle: %v allocs, want 0", n)
	}
}
