package ooc

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"outcore/internal/keyhash"
	"outcore/internal/layout"
	"outcore/internal/obs"
)

// DefaultCacheTiles is the tile-cache capacity used when EngineOptions
// leaves CacheTiles unset.
const DefaultCacheTiles = 8

// ErrEngineClosed is returned by operations on a closed Engine.
var ErrEngineClosed = errors.New("ooc: engine closed")

// EngineOptions configures a tile engine.
type EngineOptions struct {
	// Deprecated: ignored — the engine has no worker pool; kept so the
	// benchmark module compiles. The next benchmark PR deletes this field
	// and the two literals in bench/ that set it to 0.
	Workers int
	// CacheTiles bounds the number of resident tiles (<= 0 means
	// DefaultCacheTiles). Eviction drops the unpinned tile whose next use
	// is furthest away — by the requests' TileReq.Next hints, with an
	// unhinted tile counted as never used again — and the least recently
	// used among equals, so a caller that passes no hints gets plain LRU.
	// Pinned tiles are never evicted, so the cache may transiently exceed
	// the bound while a tile set is in use; it shrinks back at release.
	CacheTiles int
	// Obs attaches the observability sink: tile fetches, write-backs
	// and evictions are emitted as trace events, fetch latency feeds the
	// "ooc_tile_fetch_seconds" histogram, and the cache counters are
	// published into the registry under "ooc_engine_*" names at Close.
	// Nil disables all of it; the counters behind EngineStats are plain
	// atomics either way, so an unobserved engine pays nothing but a nil
	// check.
	Obs *obs.Sink
}

// EngineStats is a point-in-time view over the engine's obs counters
// (each field an atomic snapshot; see Engine.Stats).
type EngineStats struct {
	Hits            int64 // acquires/touches served from cache
	Misses          int64 // acquires/touches that went to the backend
	Evictions       int64 // entries removed by capacity pressure
	Invalidations   int64 // entries dropped because an overlapping tile was dirtied
	Writebacks      int64 // dirty tiles flushed to the backend
	WritebackErrors int64 // write-backs that failed (the tile stays dirty and is retried)
}

// Acquires returns the total tile requests seen by the cache.
func (s EngineStats) Acquires() int64 { return s.Hits + s.Misses }

// HitRate returns Hits / Acquires (0 when idle).
func (s EngineStats) HitRate() float64 {
	if a := s.Acquires(); a > 0 {
		return float64(s.Hits) / float64(a)
	}
	return 0
}

// entry is one cache frame: a tile slot the engine recycles. It holds
// its own copy of the tile's box (boxBuf), the tile with its data buffer
// and mover scratch, the collision-chain link and the LRU links. A frame
// is in the table while loading (its acquirer, which holds its only pin,
// is reading into it) or resident (its data valid; touch entries carry
// accounting only). Once it leaves the table it is recycled onto the
// free list — but only when it is unpinned.
type entry struct {
	tile   Tile    // Arr and Box name the tile; Box lives in boxBuf
	boxBuf []int64 // Lo then Hi
	hash   uint64
	hnext  *entry // next frame in the same bucket, or on the free list
	prev   *entry // LRU ring, toward the most recently used; nil out of the table
	next   *entry
	use    int64 // request clock of the tile's next use; <= Engine.clock: unknown

	touch   bool // accounting-only entry (measurement-only disks)
	dirty   bool
	pins    int
	loading bool // pinned by the acquirer reading it; never dirty
}

// Engine is a tile engine: a size-bounded tile cache with write-back
// dirty tracking in front of a Disk. Every call is
// synchronous on its caller's goroutine; concurrent callers (the HTTP
// server) are safe, and a miss reads outside the engine lock, so
// misses of different tiles overlap while acquires of one in-flight
// tile wait for its single read.
//
// Consistency contract: concurrent pinned tiles whose boxes overlap may
// not include a tile that is released dirty (the codegen schedule
// guarantees this: a written array has a single access-pattern group).
// Under that contract the engine is linearizable with the sequential
// ReadTile/WriteTile runtime: acquiring a box always observes every
// previously released overlapping write, because dirty overlapping
// tiles are flushed before a miss reads the backend and overlapping
// unpinned cache entries are invalidated when a tile is dirtied.
//
// Acquire + Release(dirty) is the read-modify-write path; a caller that
// supplies a whole box writes it with Store, which never reads.
//
// On a measurement-only disk (Disk.NoBacking) the same calls move no
// data and only account: a miss charges the read it would make, a
// dirty tile the write-back, so a dry-run schedule reports exactly the
// calls the cached engine really issues.
//
// The miss path allocates nothing in steady state: frames evicted or
// invalidated go onto a free list (at most CacheTiles long) and the
// next miss or Store refills one, reusing its data buffer when it is
// large enough (and at most twice the tile), its box storage and its
// mover scratch.
type Engine struct {
	disk     *Disk
	capTiles int

	// Observability. The counters are standalone atomics owned by this
	// engine (EngineStats is a view over them); trace/fetchHist/reg are
	// nil unless a sink was attached via EngineOptions.Obs.
	met       engineMetrics
	trace     *obs.Trace
	fetchHist *obs.Histogram
	reg       *obs.Registry
	published bool // registry publication happens once, at Close

	mu       sync.Mutex
	loaded   sync.Cond // on mu; broadcast whenever a load finishes
	buckets  []*entry  // hash table: tileHash & mask -> collision chain
	mask     uint64
	resident int   // frames in the table
	clock    int64 // requests so far (acquires and stores): the time of TileReq.Next
	lru      entry // sentinel of the LRU ring: lru.next is the most recent
	free     *entry
	nfree    int
	closed   bool
	closeErr error // what Close could not flush, returned again by later Closes
}

// engineMetrics are the per-engine cache counters, updated atomically
// on the hot paths and read back by Stats.
type engineMetrics struct {
	hits            obs.Counter
	misses          obs.Counter
	evictions       obs.Counter
	invalidations   obs.Counter
	writebacks      obs.Counter
	writebackErrors obs.Counter
}

// NewEngine starts an engine over the disk.
func NewEngine(d *Disk, o EngineOptions) *Engine {
	if o.CacheTiles <= 0 {
		o.CacheTiles = DefaultCacheTiles
	}
	e := &Engine{
		disk:     d,
		capTiles: o.CacheTiles,
		buckets:  make([]*entry, minBuckets),
		mask:     minBuckets - 1,
	}
	e.loaded.L = &e.mu
	e.lru.prev, e.lru.next = &e.lru, &e.lru
	if o.Obs != nil {
		e.trace = o.Obs.Trace
		if e.reg = o.Obs.Metrics; e.reg != nil {
			e.fetchHist = e.reg.Histogram("ooc_tile_fetch_seconds",
				"backend tile read latency in seconds", obs.ExpBuckets(1e-6, 4, 12))
		}
	}
	return e
}

// Handle is a pinned cached tile. The tile stays resident (and is never
// evicted) until Release, which recycles the Handle itself. The Tile a
// handle returns is valid only until that Release: the engine may then
// evict the frame and refill it — box, data and all — with another
// tile, so a caller that keeps the tile or its Data past Release reads
// whatever tile the frame holds next. Using a released handle is a bug,
// best-effort caught by the double-release panic.
type Handle struct {
	ent      *entry
	released bool
}

// handlePool recycles Handles so the cached-GET path allocates
// nothing: Acquire is called once per tile request, and the handle is
// the only per-request object the hit path would otherwise heap-allocate.
var handlePool = sync.Pool{New: func() any { return new(Handle) }}

func newHandle(ent *entry) *Handle {
	h := handlePool.Get().(*Handle)
	*h = Handle{ent: ent}
	return h
}

// Tile returns the pinned in-memory tile, valid until Release.
func (h *Handle) Tile() *Tile { return &h.ent.tile }

// Acquire returns the tile for (array, box), pinned: from cache on a
// hit (waiting out another caller's in-flight read of it), or read from
// the backend on a miss. Concurrent acquires of the same key share one
// backend read and one in-memory tile. It is AcquireAll of one request
// with no next-use hint.
func (e *Engine) Acquire(ar *Array, box layout.Box) (*Handle, error) {
	return e.acquire(TileReq{Arr: ar, Box: box})
}

func (e *Engine) acquire(r TileReq) (*Handle, error) {
	ar := r.Arr
	box := r.Box.Clip(ar.Meta.Dims)
	hash := tileHash(ar, box)
	e.mu.Lock()
	ent, err := e.resolveLocked(hash, ar, box)
	if err != nil {
		e.mu.Unlock()
		return nil, err
	}
	e.clock++
	if ent != nil {
		ent.pins++
		ent.use = e.useAt(r.Next)
		e.met.hits.Inc()
		e.toFrontLocked(ent)
		e.mu.Unlock()
		return newHandle(ent), nil
	}
	// Miss: reserve the key, make the backend current for this box,
	// then read outside the lock so independent fetches overlap.
	e.met.misses.Inc()
	touch := ar.disk.noBacking
	ent = e.insertLocked(hash, ar, box, !touch)
	ent.pins, ent.loading, ent.touch, ent.use = 1, !touch, touch, e.useAt(r.Next)
	if touch {
		// Measurement only: the flush cannot fail (TouchWrite moves
		// nothing), and the read is charged, not made.
		_ = e.flushOverlapDirtyLocked(ar, box, ent)
		ent.tile.plan(false)
		e.evictLocked()
		e.mu.Unlock()
		return newHandle(ent), nil
	}
	if ferr := e.flushOverlapDirtyLocked(ar, box, ent); ferr != nil {
		// Reading the backend now would observe data older than a
		// released overlapping write; fail the acquire instead of
		// serving a stale tile. The dirty tile stays cached for a
		// retry against a healed backend.
		ent.loading = false
		e.removeLocked(ent)
		e.loaded.Broadcast()
		e.mu.Unlock()
		return nil, ferr
	}
	e.mu.Unlock()

	var t0 time.Time
	if e.timed() {
		t0 = time.Now()
	}
	err = ent.tile.read()
	if !t0.IsZero() && err == nil {
		e.observeSpan(obs.KindTileFetch, ar.Meta.Name, t0, box.Size()*ElemSize)
	}

	e.mu.Lock()
	ent.loading = false
	e.loaded.Broadcast()
	if err != nil {
		e.removeLocked(ent)
		e.mu.Unlock()
		return nil, err
	}
	e.evictLocked()
	e.mu.Unlock()
	return newHandle(ent), nil
}

// resolveLocked looks (array, box) up, waiting out an in-flight load
// of the same key: after each wake-up it re-resolves through the table,
// since the load may have failed. It returns the resident entry or nil,
// and fails once the engine is closed.
func (e *Engine) resolveLocked(hash uint64, ar *Array, box layout.Box) (*entry, error) {
	for {
		if e.closed {
			return nil, ErrEngineClosed
		}
		ent := e.lookupLocked(hash, ar, box)
		if ent == nil || !ent.loading {
			return ent, nil
		}
		e.loaded.Wait()
	}
}

// TileReq is one tile request: the (array, box) to acquire or store
// and, from a caller that knows its future, when it comes back.
type TileReq struct {
	Arr *Array
	Box layout.Box
	// Next is the distance, counted in engine requests (acquires and
	// stores, this one excluded), to the next request of the same
	// (array, box): 1 means the very next request. 0 means unknown,
	// which eviction treats as never; so does a hint whose request has
	// already passed without coming.
	Next int
}

// useAt converts a TileReq.Next hint into the request clock of the next
// use, for the request the clock has just counted; 0 when unknown.
func (e *Engine) useAt(next int) int64 {
	if next <= 0 {
		return 0
	}
	return e.clock + int64(next)
}

// AcquireAll acquires every requested tile in request order and
// appends the handles to dst; a caller that reuses dst across calls
// makes no allocation here. On error every tile it acquired is released
// and dst is returned unextended.
func (e *Engine) AcquireAll(dst []*Handle, reqs []TileReq) ([]*Handle, error) {
	n := len(dst)
	dst = slices.Grow(dst, len(reqs))
	for _, r := range reqs {
		h, err := e.acquire(r)
		if err != nil {
			for _, h := range dst[n:] {
				e.Release(h, false)
			}
			clear(dst[n:])
			return dst[:n], err
		}
		dst = append(dst, h)
	}
	return dst, nil
}

// Release unpins the tile; dirty records that the caller modified it.
// A dirty tile stays cached (so later acquires of the same box reuse
// the updated copy) and is written back on eviction or Flush; marking
// it dirty invalidates every other unpinned cached tile of the same
// array that overlaps it, since their contents are now stale.
// The handle and its Tile are invalid from here on.
func (e *Engine) Release(h *Handle, dirty bool) {
	if h.released {
		panic("ooc: tile handle released twice")
	}
	h.released = true
	ent := h.ent
	e.mu.Lock()
	if ent.pins <= 0 {
		e.mu.Unlock()
		panic("ooc: release of unpinned tile")
	}
	ent.pins--
	if dirty {
		ent.dirty = true
		e.invalidateOverlapLocked(ent)
	}
	e.toFrontLocked(ent)
	e.evictLocked()
	e.mu.Unlock()
	h.ent = nil
	handlePool.Put(h)
}

// Store installs data as the resident dirty tile for r's (array, box)
// WITHOUT reading the backend — Acquire + copy + Release(dirty) minus
// the read, for a caller that supplies every element of the box. Like
// an acquire it is one request: it takes r.Next and advances the clock.
//
// data is box-local row-major, must hold exactly the clipped box's
// elements, and is copied: the caller may recycle it on return. On a
// measurement-only disk data must be nil: the store is accounted (the
// write-back it causes is charged) and moves nothing. A
// resident entry is overwritten in place, an in-flight load of the same
// key is waited for first (as Acquire does), an absent one is created.
// The tile is then dirtied exactly as a dirty Release does it: older
// overlapping dirty tiles are written back before they are dropped (so
// write order is preserved), overlapping clean copies are invalidated,
// capacity is enforced — and, as for a dirty release, nobody else may
// hold a pin on an overlapping tile (the same box included). A store reads nothing, so it is neither a hit nor
// a miss; EngineStats shows it as the Writeback it eventually causes.
func (e *Engine) Store(r TileReq, data []float64) error {
	ar := r.Arr
	box := r.Box.Clip(ar.Meta.Dims)
	touch := ar.disk.noBacking
	switch {
	case touch && data != nil:
		return fmt.Errorf("ooc: store of data into %s on a measurement-only (null-backed) disk; pass nil to account the write", ar.Meta.Name)
	case !touch && int64(len(data)) != box.Size():
		return fmt.Errorf("ooc: store of %d elements into %s %v, which holds %d", len(data), ar.Meta.Name, box, box.Size())
	}
	hash := tileHash(ar, box)
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, err := e.resolveLocked(hash, ar, box)
	if err != nil {
		return err
	}
	e.clock++
	if ent != nil {
		e.toFrontLocked(ent)
	} else {
		ent = e.insertLocked(hash, ar, box, !touch)
		ent.touch = touch
	}
	ent.use = e.useAt(r.Next)
	copy(ent.tile.data, data)
	ent.dirty = true
	e.invalidateOverlapLocked(ent)
	e.evictLocked()
	return nil
}

// Flush writes every unpinned dirty tile back to the backend, oldest
// first (LRU order keeps the write-back request stream deterministic —
// the bench regression gate diffs simulated request traces, so the
// table's order must never leak into the I/O schedule), then syncs
// the backends so file-backed arrays are durable at the flush point.
// Cached tiles stay resident (clean).
// A failed Flush is NOT sticky: it reports this pass's first failure
// (failed tiles stay dirty and cached), and a later Flush against a
// healed backend can succeed — the durability acknowledgement point
// fault-tolerant callers retry against.
func (e *Engine) Flush() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.flushLocked()
}

// flushLocked writes back every unpinned dirty tile and syncs the
// backends, returning the first error of THIS pass (nil when
// everything, including the sync, succeeded).
func (e *Engine) flushLocked() error {
	var first error
	for ent := e.lru.prev; ent != &e.lru; ent = ent.prev {
		if ent.dirty && ent.pins == 0 {
			if err := e.writebackLocked(ent); err != nil && first == nil {
				first = err
			}
		}
	}
	if err := e.disk.Sync(); err != nil && first == nil {
		first = err
	}
	return first
}

// Close flushes dirty tiles and syncs the backends. It returns what
// that final flush could not land — a write-back that failed earlier
// but succeeds now is not an error — and every later Close returns the
// same. Further engine calls fail.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return e.closeErr
	}
	e.closed = true
	e.closeErr = e.flushLocked()
	e.publishMetricsLocked()
	return e.closeErr
}

// Abandon stops the engine WITHOUT flushing dirty tiles: the crash
// path for fault-injection harnesses, where cached writes are memory
// and a power cut loses them. The cache is discarded and further calls
// fail with ErrEngineClosed. Production shutdown wants Close (or
// Server.Drain); Abandon deliberately forfeits every write the backend
// has not yet acknowledged.
func (e *Engine) Abandon() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	for e.lru.next != &e.lru {
		e.removeLocked(e.lru.next) // a frame still pinned is released into nothing
	}
	e.free, e.nfree = nil, 0
	e.publishMetricsLocked()
}

// Stats returns a point-in-time view of the counters. Each field is
// an atomic load; for a quiescent snapshot call it after Close (or
// after all engine users joined).
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Hits:            e.met.hits.Value(),
		Misses:          e.met.misses.Value(),
		Evictions:       e.met.evictions.Value(),
		Invalidations:   e.met.invalidations.Value(),
		Writebacks:      e.met.writebacks.Value(),
		WritebackErrors: e.met.writebackErrors.Value(),
	}
}

// timed reports whether fetch spans need wall-clock timestamps.
func (e *Engine) timed() bool { return e.trace != nil || e.fetchHist != nil }

// observeSpan records a completed span that started at t0: latency
// into the fetch histogram (tile reads only) and a trace event.
func (e *Engine) observeSpan(kind obs.Kind, name string, t0 time.Time, bytes int64) {
	d := time.Since(t0)
	if e.fetchHist != nil && kind == obs.KindTileFetch {
		e.fetchHist.Observe(d.Seconds())
	}
	if e.trace != nil {
		e.trace.Emit(obs.Event{Kind: kind, Name: name, Start: e.trace.Stamp(t0),
			Dur: d.Nanoseconds(), Bytes: bytes})
	}
}

// publishMetricsLocked adds the engine's lifetime counters into the
// attached registry under shared "ooc_engine_*" names, once. Engines
// sharing one registry (e.g. one per simulated processor) therefore
// aggregate, which is what the exposition should show.
func (e *Engine) publishMetricsLocked() {
	if e.reg == nil || e.published {
		return
	}
	e.published = true
	s := e.Stats()
	for _, c := range []struct {
		name, help string
		v          int64
	}{
		{"ooc_engine_hits_total", "tile requests served from the cache", s.Hits},
		{"ooc_engine_misses_total", "tile requests that went to the backend", s.Misses},
		{"ooc_engine_evictions_total", "cache entries removed by capacity pressure", s.Evictions},
		{"ooc_engine_invalidations_total", "cache entries dropped by overlapping dirty tiles", s.Invalidations},
		{"ooc_engine_writebacks_total", "dirty tiles flushed to the backend", s.Writebacks},
		{"ooc_engine_writeback_errors_total", "tile write-backs that failed (retried while dirty)", s.WritebackErrors},
	} {
		e.reg.Counter(c.name, c.help).Add(c.v)
	}
}

// Resident returns the number of cached entries (tests/telemetry).
func (e *Engine) Resident() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.resident
}

// writebackLocked flushes one dirty entry (data tiles via WriteTile,
// accounting entries via the TouchWrite charge) and marks it clean. On
// failure the entry STAYS dirty — the data still exists only in
// memory, so clearing the flag would silently drop an acknowledged
// write; the next flush/eviction/close retries, and once the backend
// heals the write-back succeeds.
func (e *Engine) writebackLocked(ent *entry) error {
	t := &ent.tile
	if ent.touch {
		t.plan(true)
	} else {
		var t0 time.Time
		if e.trace != nil {
			t0 = time.Now()
		}
		if err := t.WriteTile(); err != nil {
			e.met.writebackErrors.Inc()
			return fmt.Errorf("ooc: engine write-back of %s %v: %w", t.Arr.Meta.Name, t.Box, err)
		}
		if !t0.IsZero() {
			e.observeSpan(obs.KindWriteback, t.Arr.Meta.Name, t0, t.Box.Size()*ElemSize)
		}
	}
	ent.dirty = false
	e.met.writebacks.Inc()
	return nil
}

// flushOverlapDirtyLocked makes the backend current for box: every
// dirty resident tile of the same array overlapping box (other than
// self) is written back, so a subsequent backend read observes all
// released writes. A write-back failure is returned — reading the
// backend anyway would serve data older than a released write.
func (e *Engine) flushOverlapDirtyLocked(ar *Array, box layout.Box, self *entry) error {
	var first error
	for ent := e.lru.prev; ent != &e.lru; ent = ent.prev {
		if ent != self && ent.tile.Arr == ar && ent.dirty && ent.tile.Box.Overlaps(box) {
			if err := e.writebackLocked(ent); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// FlushOverlapping writes back every dirty resident tile of ar that
// overlaps box, without syncing the backends: the targeted write-back a
// per-PUT durability path needs (write back, then Array.Sync) without
// paying a full Flush. Failed tiles stay dirty.
func (e *Engine) FlushOverlapping(ar *Array, box layout.Box) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.flushOverlapDirtyLocked(ar, box, nil)
}

// invalidateOverlapLocked drops every other cache entry of the same
// array whose box overlaps the newly dirtied entry: their copies are
// stale. Pinned entries — a loading one included, since its acquirer
// pins it — are skipped: overlapping them is outside the engine's
// consistency contract (see the Engine doc).
func (e *Engine) invalidateOverlapLocked(dirtied *entry) {
	var prev *entry
	for ent := e.lru.prev; ent != &e.lru; ent = prev {
		prev = ent.prev // removeLocked below unlinks ent
		if ent == dirtied || ent.tile.Arr != dirtied.tile.Arr || ent.pins > 0 || !ent.tile.Box.Overlaps(dirtied.tile.Box) {
			continue
		}
		if ent.dirty {
			// Two overlapping dirty tiles violate the contract; flushing
			// before dropping at least loses no released write entirely.
			// If even the flush fails, keep the entry — dropping it
			// would lose the write outright.
			if e.writebackLocked(ent) != nil {
				continue
			}
		}
		e.removeLocked(ent)
		e.recycleLocked(ent)
		e.met.invalidations.Inc()
	}
}

// evictLocked enforces the capacity bound: unpinned entries are
// written back (when dirty) and dropped, in victimLocked's order, until
// the cache fits.
func (e *Engine) evictLocked() {
	for e.resident > e.capTiles {
		ent, use, pos := e.victimLocked(never, -1)
		for ent != nil && ent.dirty && e.writebackLocked(ent) != nil {
			// Evicting a tile whose write-back failed would lose the only
			// copy of its data; keep it dirty and try the next victim.
			// The cache may transiently exceed its bound while the
			// backend is unhealthy.
			ent, use, pos = e.victimLocked(use, pos)
		}
		if ent == nil {
			return // everything pinned or unwritable; shrink at release
		}
		e.removeLocked(ent)
		e.met.evictions.Inc()
		if e.trace != nil {
			e.trace.Emit(obs.Event{Kind: obs.KindEviction, Name: ent.tile.Arr.Meta.Name,
				Start: e.trace.Now(), Bytes: ent.tile.Box.Size() * ElemSize})
		}
		e.recycleLocked(ent)
	}
}

// never ranks a tile with no known next use: behind every known one.
const never = math.MaxInt64

// victimLocked returns the unpinned entry to evict next, with its rank:
// the next use furthest away (unknown or past counts as never), and
// among equals the least recently used, at LRU position pos counted
// from the tail. Only entries ranked strictly below (belowUse,
// belowPos) qualify, which is how a victim whose write-back failed
// hands over to the next best; (never, -1) admits every entry. The scan
// stops at the first qualifying entry used never, so a cache without
// hints costs what an LRU tail pop does.
func (e *Engine) victimLocked(belowUse int64, belowPos int) (victim *entry, use int64, pos int) {
	use = -1
	p := 0
	for ent := e.lru.prev; ent != &e.lru; ent, p = ent.prev, p+1 {
		if ent.pins > 0 {
			continue
		}
		u := ent.use
		if u <= e.clock {
			u = never
		}
		if u > belowUse || u == belowUse && p <= belowPos {
			continue
		}
		if u > use {
			victim, use, pos = ent, u, p
			if u == belowUse {
				break // nothing that qualifies ranks higher
			}
		}
	}
	return victim, use, pos
}

// tileHash keys the frame table: the array's name hash mixed with every
// box bound, integer arithmetic only. Equal (array, box) pairs hash
// equal; distinct pairs may collide, which lookupLocked's exact
// comparison resolves.
func tileHash(ar *Array, box layout.Box) uint64 {
	h := ar.nameSum ^ uint64(len(box.Lo))
	for d := range box.Lo {
		h = (h ^ uint64(box.Lo[d])) * 0x9e3779b97f4a7c15
		h = (h ^ uint64(box.Hi[d])) * 0xc2b2ae3d27d4eb4f
	}
	return keyhash.Fmix64(h)
}

// lookupLocked returns the frame holding exactly (ar, box), or nil.
func (e *Engine) lookupLocked(hash uint64, ar *Array, box layout.Box) *entry {
	for ent := e.buckets[hash&e.mask]; ent != nil; ent = ent.hnext {
		if ent.hash == hash && ent.tile.Arr == ar && sameBox(ent.tile.Box, box) {
			return ent
		}
	}
	return nil
}

func sameBox(a, b layout.Box) bool {
	return slices.Equal(a.Lo, b.Lo) && slices.Equal(a.Hi, b.Hi)
}

// insertLocked links a frame for (ar, box) into the table and at the
// LRU front: a recycled one when the free list has one, else a new one.
// The frame copies box, so the caller may reuse its slices; withData
// sizes the tile buffer for the box, reusing the old one when it fits
// and is at most twice the box (its contents are stale until a read or
// copy fills it). A larger buffer is dropped for a fresh one, so a frame
// that once held a big scan chunk does not pin that memory while it
// serves small tiles.
func (e *Engine) insertLocked(hash uint64, ar *Array, box layout.Box, withData bool) *entry {
	ent := e.free
	if ent != nil {
		e.free, e.nfree = ent.hnext, e.nfree-1
	} else {
		ent = new(entry)
	}
	r := len(box.Lo)
	if cap(ent.boxBuf) < 2*r {
		ent.boxBuf = make([]int64, 2*r)
	}
	lo, hi := ent.boxBuf[:r:r], ent.boxBuf[r:2*r:2*r]
	copy(lo, box.Lo)
	copy(hi, box.Hi)
	ent.tile.Arr, ent.tile.Box = ar, layout.Box{Lo: lo, Hi: hi}
	if n := int(box.Size()); !withData {
		ent.tile.data = ent.tile.data[:0]
	} else if c := cap(ent.tile.data); c >= n && c <= 2*n {
		ent.tile.data = ent.tile.data[:n]
	} else {
		ent.tile.data = make([]float64, n)
	}
	ent.touch, ent.dirty, ent.pins, ent.loading = false, false, 0, false
	ent.hash = hash
	if 2*(e.resident+1) > len(e.buckets) {
		e.growLocked()
	}
	b := &e.buckets[hash&e.mask]
	ent.hnext, *b = *b, ent
	e.resident++
	e.pushFrontLocked(ent)
	return ent
}

// minBuckets is the frame table's starting size. The table doubles
// whenever it would pass half full and never shrinks, so it grows with
// the tiles actually resident, not with the configured capacity, and
// stops allocating once the working set is in.
const minBuckets = 16

// growLocked doubles the bucket array and relinks every chain into it.
func (e *Engine) growLocked() {
	buckets := make([]*entry, 2*len(e.buckets))
	mask := uint64(len(buckets) - 1)
	for _, ent := range e.buckets {
		for ent != nil {
			next := ent.hnext
			b := &buckets[ent.hash&mask]
			ent.hnext, *b = *b, ent
			ent = next
		}
	}
	e.buckets, e.mask = buckets, mask
}

// removeLocked unlinks the frame from the table and the LRU ring; a
// frame in neither (prev == nil: already removed, or discarded by
// Abandon under its acquirer's pin) is left alone.
func (e *Engine) removeLocked(ent *entry) {
	if ent.prev == nil {
		return
	}
	for p := &e.buckets[ent.hash&e.mask]; *p != nil; p = &(*p).hnext {
		if *p == ent {
			*p = ent.hnext
			break
		}
	}
	ent.hnext = nil
	e.resident--
	ent.prev.next, ent.next.prev = ent.next, ent.prev
	ent.prev, ent.next = nil, nil
}

// recycleLocked puts a frame that has left the table onto the free
// list, keeping its buffers for the next miss — but only when nobody
// can still reach it (unpinned) and the list holds fewer than capTiles
// frames.
func (e *Engine) recycleLocked(ent *entry) {
	if ent.pins > 0 || e.nfree >= e.capTiles {
		return
	}
	ent.hnext, e.free = e.free, ent
	e.nfree++
}

func (e *Engine) pushFrontLocked(ent *entry) {
	ent.prev, ent.next = &e.lru, e.lru.next
	e.lru.next.prev = ent
	e.lru.next = ent
}

// toFrontLocked marks a resident frame most recently used. A frame
// Abandon discarded while pinned is in no ring and stays out.
func (e *Engine) toFrontLocked(ent *entry) {
	if ent.prev == nil {
		return
	}
	ent.prev.next, ent.next.prev = ent.next, ent.prev
	e.pushFrontLocked(ent)
}
