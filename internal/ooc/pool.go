package ooc

// Pooled tile buffers: a package-level size-class arena over sync.Pool
// shared by every encode/decode/serve path. A multi-GB tile cache
// already taxes the collector; transient codec frames, wire payloads
// and file-backend scratch buffers on top of it would make every GET a
// GC event. The arena recycles them instead, with hit/miss counters
// (ObservePool) so the scorecard can show whether the steady state
// really stopped allocating.
//
// Classes are powers of two from 64 bytes to 16 MiB; a request beyond
// the largest class is served by a plain allocation, counted as
// neither hit nor miss, and never pooled.

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"outcore/internal/obs"
)

const (
	poolMinShift = 6  // smallest class: 64 bytes
	poolMaxShift = 24 // largest class: 16 MiB
	poolClasses  = poolMaxShift - poolMinShift + 1
)

var (
	poolBufs arena[byte]    // cap = exactly the class size
	poolF64s arena[float64] // cap = exactly the class size (in elements)

	// Registry counters installed by ObservePool; nil until observed so
	// an unobserved pool pays one pointer load per operation.
	poolHitC  atomic.Pointer[obs.Counter]
	poolMissC atomic.Pointer[obs.Counter]
)

// arena is one size-class pool. A buffer travels through sync.Pool
// inside a *[]T holder; Get empties the holder and keeps it for the
// next Put, so a Get/Put cycle allocates nothing (putting a fresh &b
// would box a new slice header on every return).
type arena[T any] struct {
	classes [poolClasses]sync.Pool // *[]T holding a buffer
	holders sync.Pool              // *[]T holding nil
}

func (a *arena[T]) get(n int) []T {
	c := poolClass(n)
	if c < 0 {
		return make([]T, n)
	}
	if v := a.classes[c].Get(); v != nil {
		poolHit()
		h := v.(*[]T)
		b := (*h)[:n]
		*h = nil
		a.holders.Put(h)
		return b
	}
	poolMiss()
	return make([]T, n, 1<<(c+poolMinShift))
}

func (a *arena[T]) put(b []T) {
	c := poolClass(cap(b))
	if c < 0 || cap(b) != 1<<(c+poolMinShift) {
		return
	}
	h, _ := a.holders.Get().(*[]T)
	if h == nil {
		h = new([]T)
	}
	*h = b[:0]
	a.classes[c].Put(h)
}

// ObservePool counts the arena's hits and misses in the sink's metrics
// registry ("ooc_pool_*"), from the call on; the arena is
// process-wide, so observe one registry per process.
func ObservePool(sink *obs.Sink) {
	reg := sink.MetricsOf()
	if reg == nil {
		return
	}
	poolHitC.Store(reg.Counter("ooc_pool_hits_total", "buffer requests served from the tile-buffer arena"))
	poolMissC.Store(reg.Counter("ooc_pool_misses_total", "buffer requests the arena had to allocate"))
}

// poolClass returns the class index for a request of n units, or -1
// when n exceeds the largest class.
func poolClass(n int) int {
	if n <= 1<<poolMinShift {
		return 0
	}
	c := bits.Len(uint(n-1)) - poolMinShift
	if c >= poolClasses {
		return -1
	}
	return c
}

func poolHit() {
	if c := poolHitC.Load(); c != nil {
		c.Inc()
	}
}

func poolMiss() {
	if c := poolMissC.Load(); c != nil {
		c.Inc()
	}
}

// GetBuf returns a byte buffer of length n from the arena. Return it
// with PutBuf when done; the contents are arbitrary.
func GetBuf(n int) []byte { return poolBufs.get(n) }

// PutBuf recycles a buffer obtained from GetBuf. Buffers whose
// capacity is not an exact class size (grown by append, or oversize)
// are dropped.
func PutBuf(b []byte) { poolBufs.put(b) }

// GetF64 returns a float64 buffer of length n elements from the arena.
func GetF64(n int) []float64 { return poolF64s.get(n) }

// PutF64 recycles a buffer obtained from GetF64.
func PutF64(b []float64) { poolF64s.put(b) }
