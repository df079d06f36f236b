// Package server is occd's serving core: an HTTP API that exposes
// disk-resident out-of-core arrays through the shared tile engine.
// It is the paper's thesis turned into a service boundary — many
// clients asking for rectangular tiles, the engine underneath turning
// them into few, large, layout-aware backend calls.
//
// The package has two halves joined by the Plane interface (plane.go).
// FrontEnd (front.go, ops.go) is the one HTTP surface — routes, tenant
// resolution, admission, box validation, payload and codec
// negotiation, the tile/batch/scan/reduce/array handlers — and serves
// any Plane; internal/cluster mounts the same front end over its
// fan-out. This file is the plane occd serves: the local engine.
//
// What the stack does on top of the engine:
//
//   - Request coalescing (plane): concurrent GETs of the same tile join
//     one flight (one acquire, one payload encode, one backend read),
//     with an exact exported count of coalesced requests.
//   - Admission control (front end): per-tenant token-bucket quotas
//     (429 + Retry-After) in front of weighted-fair per-tenant queues
//     over a bounded slot pool (503 + Retry-After when the queues
//     overflow), so overload degrades with backpressure instead of
//     collapse.
//   - Graceful drain: new work is refused while in-flight requests
//     finish (Drain itself waits them out, even when the HTTP server's
//     shutdown grace period expired first), then every dirty tile is
//     flushed and the backends synced and closed, so an acknowledged
//     write survives a SIGTERM.
//   - Consistency (plane): tile access is serialized per array — GETs
//     share a reader lock, a PUT excludes them — so concurrent clients
//     can never tear the pinned in-memory tile a request is encoding or
//     decoding, and a GET issued after a PUT's 204 observes that write
//     (the write generation versions the coalescing flight key).
//   - Abuse limits (front end): array creation caps the
//     overflow-checked element count (Config.MaxArrayElems, 400) and
//     tile requests cap the clipped per-request element count
//     (Config.MaxTileElems, 413), so a client cannot drive unbounded
//     allocations.
//
// API (payloads are raw little-endian float64, box-local row-major;
// clients offering "Accept-Encoding: x-ooc-gorilla" on tile GETs get
// the body as a compressed codec frame instead, and may PUT one with
// "Content-Encoding: x-ooc-gorilla" — old clients that send neither
// header keep the raw format):
//
//	GET  /healthz                            liveness ("ok" / 503 "draining")
//	GET  /metrics[?format=json]              obs registry exposition
//	GET  /v1/stats                           live engine + server counters
//	GET  /v1/arrays                          list arrays
//	POST /v1/arrays                          create: {"name","dims",["layout"]}
//	GET  /v1/arrays/{name}                   one array's metadata
//	GET  /v1/arrays/{name}/tile?lo=i,j&hi=k,l   read a tile
//	PUT  /v1/arrays/{name}/tile?lo=i,j&hi=k,l   write a tile
//	POST /v1/arrays/{name}/batch             many tile ops, one request (ops.go)
//	GET  /v1/arrays/{name}/scan?lo=&hi=      streaming layout-aware range scan (ops.go)
//	POST /v1/arrays/{name}/reduce            pushed-down sum/min/max/count (ops.go)
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/obs"
	"outcore/internal/ooc"
)

// Config tunes the serving core. The zero value gets sane defaults
// from New.
type Config struct {
	// MaxInflight bounds how many requests may operate on the engine
	// concurrently (default 2*GOMAXPROCS). Excess admitted requests
	// wait in the queue.
	MaxInflight int
	// QueueDepth bounds how many requests may wait for an inflight
	// slot (default 64). Beyond it the server answers 503.
	QueueDepth int
	// RetryAfter is the hint returned with 503 responses (default 1s);
	// 429 responses compute the exact token refill wait instead.
	RetryAfter time.Duration
	// MaxArrayElems caps the total element count of a created array
	// (overflow-checked product of its dims). 0 means
	// DefaultMaxArrayElems; negative disables the cap. Beyond it,
	// POST /v1/arrays answers 400.
	MaxArrayElems int64
	// MaxTileElems caps one tile request's element count after
	// clipping. 0 means DefaultMaxTileElems; negative disables the
	// cap. Beyond it, tile GET/PUT answer 413.
	MaxTileElems int64
	// DurablePuts makes tile PUTs durable before the 204: the written
	// box is flushed through the engine and the array synced. On a
	// WAL-enabled disk the sync is a group-committed log fsync shared
	// by every concurrent PUT in the commit window; without a WAL it
	// is a real per-PUT backend fsync.
	DurablePuts bool
	// NodeID names this server as a cluster storage node (occd
	// -cluster-node). Purely informational: it surfaces in /v1/stats so
	// operators and the router's scorecard can tell nodes apart. Empty
	// outside cluster mode.
	NodeID string
	// Tenants is the multi-tenant isolation plane: DRR weights,
	// per-tenant request/byte quotas (the one rate limit: 429 +
	// Retry-After), and the in-flight chunk cap. The zero value keeps
	// every tenant equal and unmetered.
	Tenants TenantConfig
	// Obs supplies the metrics registry behind /metrics (a registry is
	// created when absent, so the endpoints always work).
	Obs *obs.Sink
	// Clock overrides time.Now for the tenant quotas (tests).
	Clock func() time.Time
}

// Server serves one Disk through one tile engine: the shared front
// end over the engine plane. Create with New, mount
// Handler, and call Drain after the HTTP server has shut down.
type Server struct {
	front     *FrontEnd
	plane     *enginePlane
	drainOnce sync.Once
	drainErr  error
}

// enginePlane is the Plane occd serves: one disk's arrays read and
// written through the tile engine under the per-array tile lock.
type enginePlane struct {
	disk    *ooc.Disk
	eng     *ooc.Engine
	nodeID  string
	durable bool
	// reduceChunk bounds the elements a reduce pins at once.
	reduceChunk int64

	flights   flightGroup
	coalesced *obs.Counter

	// locks serializes the data plane per array; see tileLock. The map
	// only grows, bounded by the number of arrays ever addressed.
	lockMu sync.Mutex
	locks  map[string]*tileLock
}

// tileLock serializes tile data access for one array. Tile GETs read
// the pinned in-memory tile's buffer and tile PUTs write that same
// buffer in place, and the engine's consistency contract (see
// ooc.Engine) forbids releasing a tile dirty while overlapping pinned
// tiles are held elsewhere — a rule the schedule guarantees for
// codegen but that two arbitrary HTTP clients can violate. Readers
// therefore share the lock and a writer excludes them, for aligned and
// unaligned overlapping boxes alike.
//
// gen counts acknowledged writes. It versions the GET flight key so a
// read that starts after a completed PUT can never join a flight whose
// leader acquired the tile before that write applied
// (read-your-writes; see flightGroup).
//
// boxGens is the cluster replication plane's per-box write-generation
// table: a PUT carrying X-Tile-Gen records its generation under the
// box it wrote, and a GET reports the max generation over the
// recorded boxes overlapping it (an unaligned read is as fresh as the
// freshest write it can observe). Overlapping boxes always share a
// routing grid tile (the router decomposes every request along the
// grid), so their generations are totally ordered and comparable even
// when the box shapes differ — a client PUT of a sub-box, a hint
// replay, and a read-repair rewrite of a read piece all compete in
// one order. A PUT applies only to the cells no strictly-newer
// recorded box covers (newerOverlaps/subtractBoxes), which makes the
// final bytes a pure function of the set of writes seen, independent
// of arrival order — replicas that saw the same writes hold the same
// bytes AND report the same generations. Equal reported generations
// mean equal data only while every box recorded under generation g
// holds, over the whole box, the bytes its writer had at g: true of a
// client write and its hint replay (the box the write covered) and of
// a whole-tile read-repair (the winner's entire tile). It is why the
// router never read-repairs a partial piece: that would record g over
// a sub-box, and a read overlapping it would report g for bytes
// outside the piece that never saw write g. Entries are written under mu held exclusively (the PUT
// path) and read under the shared lock, and are bounded by the
// distinct boxes ever PUT with a generation — the router's
// replication grid in cluster mode, none otherwise. The table is
// deliberately volatile: a crashed node forgets its generations,
// reports 0, loses every freshness comparison, and gets read-repaired
// by the replica that remembers.
type tileLock struct {
	mu  sync.RWMutex
	gen atomic.Uint64

	boxGens []boxGen
	genIdx  map[string]int
}

// boxGen is one recorded (box, write generation) pair.
type boxGen struct {
	box layout.Box
	gen uint64
}

// newerOverlaps returns the recorded boxes overlapping box whose
// generation is strictly newer than g — the writes that supersede (a
// part of) an incoming generation-g write. Callers hold mu in either
// mode.
func (l *tileLock) newerOverlaps(box layout.Box, g uint64) []layout.Box {
	var out []layout.Box
	for i := range l.boxGens {
		if l.boxGens[i].gen > g && l.boxGens[i].box.Overlaps(box) {
			out = append(out, l.boxGens[i].box)
		}
	}
	return out
}

// setGen records g for the exact box. Callers hold mu exclusively.
func (l *tileLock) setGen(key string, box layout.Box, g uint64) {
	if i, ok := l.genIdx[key]; ok {
		l.boxGens[i].gen = g
		return
	}
	if l.genIdx == nil {
		l.genIdx = map[string]int{}
	}
	l.genIdx[key] = len(l.boxGens)
	l.boxGens = append(l.boxGens, boxGen{box: box, gen: g})
}

// overlapGen returns the max generation over recorded boxes that
// overlap box. Callers hold mu in either mode.
func (l *tileLock) overlapGen(box layout.Box) uint64 {
	var max uint64
	for i := range l.boxGens {
		if l.boxGens[i].gen > max && l.boxGens[i].box.Overlaps(box) {
			max = l.boxGens[i].gen
		}
	}
	return max
}

// subtractBoxes returns the parts of box covered by none of covers, as
// disjoint boxes. Empty result means covers blanket the whole box.
func subtractBoxes(box layout.Box, covers []layout.Box) []layout.Box {
	remain := []layout.Box{box}
	for _, c := range covers {
		var next []layout.Box
		for _, r := range remain {
			next = subtractBox(next, r, c)
		}
		remain = next
		if len(remain) == 0 {
			break
		}
	}
	return remain
}

// subtractBox appends the parts of a outside b to out: a guillotine
// split peeling at most two slabs per dimension off a, leaving the
// core a∩b dropped.
func subtractBox(out []layout.Box, a, b layout.Box) []layout.Box {
	if !a.Overlaps(b) {
		return append(out, a)
	}
	lo := append([]int64(nil), a.Lo...)
	hi := append([]int64(nil), a.Hi...)
	for d := range lo {
		if b.Lo[d] > lo[d] {
			slabHi := append([]int64(nil), hi...)
			slabHi[d] = b.Lo[d]
			out = append(out, layout.NewBox(append([]int64(nil), lo...), slabHi))
			lo[d] = b.Lo[d]
		}
		if b.Hi[d] < hi[d] {
			slabLo := append([]int64(nil), lo...)
			slabLo[d] = b.Hi[d]
			out = append(out, layout.NewBox(slabLo, append([]int64(nil), hi...)))
			hi[d] = b.Hi[d]
		}
	}
	return out
}

// copyBoxLocal copies region's elements from src to dst, both box-local
// row-major buffers of box (region must lie inside box). Runs along
// the innermost dimension are contiguous at identical offsets in both
// buffers, so the copy moves whole rows.
func copyBoxLocal(dst, src []float64, box, region layout.Box) {
	rank := len(box.Lo)
	strides := make([]int64, rank)
	acc := int64(1)
	for d := rank - 1; d >= 0; d-- {
		strides[d] = acc
		acc *= box.Hi[d] - box.Lo[d]
	}
	rowLen := region.Hi[rank-1] - region.Lo[rank-1]
	cur := append([]int64(nil), region.Lo...)
	for {
		var off int64
		for d := 0; d < rank; d++ {
			off += (cur[d] - box.Lo[d]) * strides[d]
		}
		copy(dst[off:off+rowLen], src[off:off+rowLen])
		d := rank - 2
		for d >= 0 {
			cur[d]++
			if cur[d] < region.Hi[d] {
				break
			}
			cur[d] = region.Lo[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}

// lockFor returns (creating on first use) the array's tile lock.
func (p *enginePlane) lockFor(name string) *tileLock {
	p.lockMu.Lock()
	defer p.lockMu.Unlock()
	l, ok := p.locks[name]
	if !ok {
		l = &tileLock{}
		p.locks[name] = l
	}
	return l
}

// New wires a serving core over the disk and engine. The engine must
// be running over the same disk; the server takes ownership of both at
// Drain (engine closed, disk synced and closed).
func New(d *ooc.Disk, eng *ooc.Engine, cfg Config) *Server {
	reg := cfg.Obs.MetricsOf()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	p := &enginePlane{
		disk:        d,
		eng:         eng,
		nodeID:      cfg.NodeID,
		durable:     cfg.DurablePuts,
		reduceChunk: DefaultScanChunkElems,
		coalesced:   reg.Counter("occd_coalesced_requests_total", "tile reads served by joining an in-flight fetch"),
		locks:       map[string]*tileLock{},
	}
	if lim := cfg.MaxTileElems; lim > 0 && lim < p.reduceChunk {
		p.reduceChunk = lim
	}
	return &Server{plane: p, front: NewFrontEnd(p, FrontConfig{
		MetricPrefix:  "occd",
		Reg:           reg,
		MaxInflight:   cfg.MaxInflight,
		QueueDepth:    cfg.QueueDepth,
		RetryAfter:    cfg.RetryAfter,
		MaxArrayElems: cfg.MaxArrayElems,
		MaxTileElems:  cfg.MaxTileElems,
		Tenants:       cfg.Tenants,
		Clock:         cfg.Clock,
		Series: FrontSeries{
			Inflight:      reg.Gauge("occd_inflight", "requests currently holding an engine slot"),
			RejectedRate:  reg.Counter("occd_rejected_ratelimit_total", "requests rejected by a tenant quota (429)"),
			RejectedQueue: reg.Counter("occd_rejected_queue_total", "requests rejected by the full admission queue (503)"),
			WireRaw:       reg.Counter("occd_wire_raw_bytes_total", "logical tile payload bytes served or accepted"),
			WireBytes:     reg.Counter("occd_wire_bytes_total", "tile payload bytes on the wire after content negotiation"),
		},
	})}
}

// Handler returns the HTTP handler to mount (see FrontEnd.Handler).
func (s *Server) Handler() http.Handler { return s.front.Handler() }

// Drain finishes the server's storage side: it stops admitting new
// data-plane work, waits for every in-flight request to finish, then
// flushes every dirty tile through the engine, syncs the backends and
// closes disk and engine. Normally the HTTP server's Shutdown has
// already waited out in-flight requests; when it gave up (drain
// timeout), Drain's own barrier (FrontEnd.Quiesce) still guarantees no
// handler is mid-engine-operation when the engine closes — otherwise a
// PUT could be acknowledged with 204 while its dirty tile, pinned
// during Close, silently missed the final flush. Drain is idempotent;
// the first error wins.
func (s *Server) Drain() error {
	s.front.StopAdmitting()
	s.drainOnce.Do(func() {
		s.front.Quiesce(func() {
			s.drainErr = s.plane.eng.Close()
			if err := s.plane.disk.Close(); s.drainErr == nil {
				s.drainErr = err
			}
		})
	})
	return s.drainErr
}

// Draining reports whether Drain has begun (healthz flips to 503).
func (s *Server) Draining() bool { return s.front.Draining() }

// arrayOf renders a disk array as a catalog row.
func arrayOf(ar *ooc.Array) Array {
	return Array{Name: ar.Meta.Name, Dims: ar.Meta.Dims, Layout: ar.Layout}
}

func (p *enginePlane) Lookup(name string) (Array, bool) {
	ar := p.disk.ArrayByName(name)
	if ar == nil {
		return Array{}, false
	}
	return arrayOf(ar), true
}

func (p *enginePlane) List() []Array {
	arrays := p.disk.Arrays()
	out := make([]Array, len(arrays))
	for i, ar := range arrays {
		out[i] = arrayOf(ar)
	}
	return out
}

func (p *enginePlane) Create(_ context.Context, a Array) error {
	_, err := p.disk.CreateArray(ir.NewArray(a.Name, a.Dims...), a.Layout)
	return err
}

// open resolves a catalog row to the disk array and its tile lock. The
// front end looks every array up first, so the error is only for a
// caller bypassing it.
func (p *enginePlane) open(a Array) (*ooc.Array, *tileLock, error) {
	ar := p.disk.ArrayByName(a.Name)
	if ar == nil {
		return nil, nil, fmt.Errorf("no array %q", a.Name)
	}
	return ar, p.lockFor(a.Name), nil
}

// ReadBox pins the box under the shared tile lock and renders from the
// pinned tile. With a share key the read is a coalescing flight.
func (p *enginePlane) ReadBox(_ context.Context, a Array, box layout.Box, share string,
	render func([]float64, uint64) []byte) ([]byte, uint64, bool, error) {
	ar, lk, err := p.open(a)
	if err != nil {
		return nil, 0, false, err
	}
	if share == "" {
		out, gen, err := p.read(ar, lk, box, render)
		return out, gen, false, err
	}
	out, gen, coalesced, err := p.flights.do(flightKey(lk, a.Name, box, share), func() ([]byte, uint64, error) {
		return p.read(ar, lk, box, render)
	})
	if coalesced {
		p.coalesced.Inc()
	}
	return out, gen, coalesced, err
}

func (p *enginePlane) read(ar *ooc.Array, lk *tileLock, box layout.Box, render func([]float64, uint64) []byte) ([]byte, uint64, error) {
	// Shared lock: concurrent reads overlap freely; a PUT to this array
	// is excluded while the pinned tile's buffer is rendered, and the
	// lock is dropped between a scan's chunks so writers are never
	// starved by a long stream.
	lk.mu.RLock()
	defer lk.mu.RUnlock()
	h, err := p.eng.Acquire(ar, box)
	if err != nil {
		return nil, 0, err
	}
	defer p.eng.Release(h, false)
	// The generation is read under the same lock hold as the bytes, so a
	// replica never reports a freshness its payload lacks.
	g := lk.overlapGen(box)
	return render(h.Tile().Data(), g), g, nil
}

// flightKey names the coalescing flight for (array, box, rendering).
// The write generation in the key keeps read-your-writes: a GET that
// starts after a PUT's 204 reads a bumped generation and so can only
// land on a flight whose leader acquired the tile after that write
// applied. Flights keyed by older generations may still be in the
// map, but no new-generation reader can join them.
func flightKey(lk *tileLock, name string, box layout.Box, share string) string {
	return fmt.Sprintf("%s|g%d|%s|%s", name, lk.gen.Load(), box.String(), share)
}

// WriteBox lands one write: per-cell LWW generation merge under the
// exclusive lock, flight-key versioning, and flush-before-ack under
// DurablePuts. A write that applies to its whole box — every ungated
// PUT, batch op, hint replay and read-repair rewrite — is a blind
// engine Store and reads nothing; only a gen-gated write that newer
// overlapping writes partly supersede reads the tile to merge into.
func (p *enginePlane) WriteBox(_ context.Context, a Array, box layout.Box, src []float64, gen uint64) (uint64, bool, error) {
	ar, lk, err := p.open(a)
	if err != nil {
		return 0, false, err
	}
	// Exclusive lock: while this write overwrites the cached tile's
	// buffer and dirties it, no reader of the same array holds a pin —
	// which both prevents torn reads of the shared slice and upholds the
	// engine's contract that a store or dirty release never races
	// overlapping pinned tiles (so overlap invalidation cannot skip a
	// reader-pinned stale entry).
	lk.mu.Lock()
	// Replicated writes are last-writer-wins by generation, per cell:
	// generations are comparable across box shapes (overlapping boxes
	// share a routing tile — see the boxGens comment), so any recorded
	// overlapping box with a strictly newer generation supersedes the
	// cells it covers, and the write applies only to the remainder.
	// That keeps the bytes a pure function of the writes seen, whatever
	// order a sub-box PUT, a full-tile PUT, a hint replay, and a
	// read-repair rewrite arrive in — gating on the exact box key alone
	// would let an older differently-shaped write roll back newer cells
	// while overlapGen still reported the newer generation, diverging
	// the replicas invisibly. Equal generations re-apply — a handoff
	// replay or retry of the same write is idempotent.
	var apply []layout.Box // nil: the whole box; non-nil: the merge remainder
	if gen != 0 {
		if newer := lk.newerOverlaps(box, gen); len(newer) > 0 {
			if apply = subtractBoxes(box, newer); len(apply) == 0 {
				// Newer writes blanket every cell: skip, and report the
				// newest overlapping generation so the router catches
				// its counter up.
				stored := lk.overlapGen(box)
				lk.mu.Unlock()
				return stored, true, nil
			}
		}
	}
	if apply == nil {
		// The write supplies every cell of the box, so nothing of the old
		// tile is needed: install it without reading (the engine copies
		// src, which the front end recycles).
		err = p.eng.Store(ar, box, src)
	} else {
		// Only the merge remainder needs the old cells.
		var h *ooc.Handle
		if h, err = p.eng.Acquire(ar, box); err == nil {
			for _, region := range apply {
				copyBoxLocal(h.Tile().Data(), src, box, region)
			}
			p.eng.Release(h, true)
		}
	}
	if err != nil {
		lk.mu.Unlock()
		return 0, false, err
	}
	if gen != 0 {
		lk.setGen(box.String(), box, gen)
	}
	lk.gen.Add(1) // version GET flights past this write before acknowledging
	lk.mu.Unlock()
	if p.durable {
		// Push this write to stable storage before the ack. The flush
		// happens outside the tile lock so concurrent PUTs to the same
		// array overlap here — and on a WAL-enabled disk the Sync is a
		// group commit, so they share one log fsync.
		if err := p.eng.FlushOverlapping(ar, box); err != nil {
			return 0, false, err
		}
		if err := ar.Sync(); err != nil {
			return 0, false, err
		}
	}
	return gen, false, nil
}

// ReduceBox folds the box tile-side, chunked through the engine so a
// whole-array reduce stays within cache memory. Chunks are row-major
// slabs regardless of layout: the fold must visit elements in the
// box's row-major order for sum exactness (the engine underneath still
// does layout-aware backend I/O per chunk).
func (p *enginePlane) ReduceBox(_ context.Context, a Array, box layout.Box, op string) (float64, int64, error) {
	ar, lk, err := p.open(a)
	if err != nil {
		return 0, 0, err
	}
	fold := NewFold(op)
	add := func(data []float64, _ uint64) []byte { fold.Add(data); return nil }
	for _, ch := range layout.PlanRowMajor(box, p.reduceChunk) {
		if _, _, err := p.read(ar, lk, ch, add); err != nil {
			return 0, 0, err
		}
	}
	return fold.Value(), fold.Count, nil
}

// Status maps engine failures: an array that already exists is a
// conflict, a closed engine means we are shutting down (503), anything
// else is a real 500.
func (p *enginePlane) Status(err error) (int, string) {
	switch {
	case errors.Is(err, ooc.ErrArrayExists):
		return http.StatusConflict, err.Error()
	case errors.Is(err, ooc.ErrEngineClosed):
		return http.StatusServiceUnavailable, "engine closed"
	}
	return http.StatusInternalServerError, err.Error()
}

// statsPayload is the /v1/stats JSON: live engine counters plus the
// front end's block.
type statsPayload struct {
	NodeID      string            `json:"node_id,omitempty"`
	Engine      ooc.EngineStats   `json:"engine"`
	HitRate     float64           `json:"hit_rate"`
	WAL         *ooc.WALStats     `json:"wal,omitempty"`
	Compression *compressionStats `json:"compression,omitempty"`
	Coalesced   int64             `json:"coalesced"`
	FrontStats
}

// compressionStats is the /v1/stats compression scorecard, present
// when the disk compresses backends or WAL payloads: the disk/WAL
// raw-vs-encoded byte counters, the wire-level tallies, and the
// buffer-arena hit rate behind them.
type compressionStats struct {
	ooc.CompressionStats
	WireRawBytes int64         `json:"wire_raw_bytes"`
	WireBytes    int64         `json:"wire_bytes"`
	Pool         ooc.PoolStats `json:"pool"`
}

func (p *enginePlane) Stats(front FrontStats) any {
	es := p.eng.Stats()
	out := statsPayload{
		NodeID:     p.nodeID,
		Engine:     es,
		HitRate:    es.HitRate(),
		WAL:        p.disk.WALStats(),
		Coalesced:  p.coalesced.Value(),
		FrontStats: front,
	}
	if cs := p.disk.CompressionStats(); cs != nil {
		out.Compression = &compressionStats{
			CompressionStats: *cs,
			WireRawBytes:     front.WireRawBytes,
			WireBytes:        front.WireBytes,
			Pool:             ooc.ReadPoolStats(),
		}
	}
	return out
}
