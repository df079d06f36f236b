// Package server is occd's serving core: an HTTP API that exposes
// disk-resident out-of-core arrays through the shared tile engine.
// It is the paper's thesis turned into a service boundary — many
// clients asking for rectangular tiles, the engine underneath turning
// them into few, large, layout-aware backend calls.
//
// The package has two halves joined by the Plane interface (plane.go).
// FrontEnd (front.go, ops.go) is the one HTTP surface — routes,
// admission, box validation, payload and codec negotiation, the
// tile/scan/reduce/array handlers — and serves
// any Plane; internal/cluster mounts the same front end over its
// fan-out. This file is the plane occd serves: the local engine.
//
// What the stack does on top of the engine (which already gives
// concurrent GETs of one cold tile one backend read and one cached
// tile; see ooc.Engine.Acquire):
//
//   - Admission control (front end): a bounded slot pool with one FIFO
//     wait queue in front of it (503 + Retry-After when the queue
//     overflows), so overload degrades with backpressure instead of
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
//     (the PUT applied under the exclusive lock before it was acked).
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
//	GET  /v1/arrays/{name}/scan?lo=&hi=      streaming layout-aware range scan (ops.go)
//	POST /v1/arrays/{name}/reduce            pushed-down sum/min/max/count (ops.go)
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sync"

	"outcore/internal/ir"
	"outcore/internal/keyhash"
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
	// by every concurrent PUT in one commit round; without a WAL it
	// is a real per-PUT backend fsync.
	DurablePuts bool
	// NodeID names this server as a cluster storage node (occd
	// -cluster-node). Purely informational: it surfaces in /v1/stats so
	// operators and the router's scorecard can tell nodes apart. Empty
	// outside cluster mode.
	NodeID string
	// Obs supplies the metrics registry behind /metrics (a registry is
	// created when absent, so the endpoints always work).
	Obs *obs.Sink
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
// unaligned overlapping boxes alike. A PUT applies under the exclusive
// lock before it is acknowledged, so a GET that starts after the 204
// reads the written tile (read-your-writes).
//
// gens is the cluster replication plane's per-box write-generation
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
	mu sync.RWMutex

	// gens is written under mu held exclusively and read under either
	// mode.
	gens genIndex
}

// boxGen is one recorded (box, write generation) pair.
type boxGen struct {
	box layout.Box
	gen uint64
}

// genIndex is the generation table, addressed by position rather than
// searched: each recorded box sits in the bucket of the grid cell its
// Lo corner falls in, with a per-dimension cell edge of 1<<shift[d]
// kept at least every recorded extent. A box overlapping query q then
// has, in every dimension, Lo in (q.Lo-edge, q.Hi), so a lookup visits
// the few cells of that range instead of every box the node ever
// recorded. A box wider than the current edge doubles it and re-buckets
// the table (at most 63 times per dimension). Answers, and their order,
// are exactly those of a scan over entries in record order.
type genIndex struct {
	entries []boxGen // in first-record order
	// cells maps a hash of (rank, cell coordinates) to the entries whose
	// Lo lies in that cell. Distinct cells may share a hash; lookups
	// check each entry's own cell, so a collision costs a comparison,
	// never a wrong or repeated answer.
	cells map[uint64][]int32
	shift []uint8 // per dimension, over every recorded rank
}

// maxIndexRank bounds the ranks a lookup walks cells for on the stack;
// higher-rank queries scan the entries.
const maxIndexRank = 8

// cellKey hashes a rank and its cell coordinates into a bucket key.
func cellKey(cell []int64) uint64 {
	h := uint64(len(cell))
	for _, c := range cell {
		h = keyhash.Fmix64(h ^ uint64(c))
	}
	return h
}

// inCell reports whether lo (an entry's corner) lies in cell.
func (x *genIndex) inCell(lo, cell []int64) bool {
	if len(lo) != len(cell) {
		return false
	}
	for d := range lo {
		if lo[d]>>x.shift[d] != cell[d] {
			return false
		}
	}
	return true
}

// bucket adds entry i to the bucket of the cell its Lo lies in.
func (x *genIndex) bucket(i int) {
	lo := x.entries[i].box.Lo
	cell := make([]int64, len(lo))
	for d := range lo {
		cell[d] = lo[d] >> x.shift[d]
	}
	if x.cells == nil {
		x.cells = map[uint64][]int32{}
	}
	k := cellKey(cell)
	x.cells[k] = append(x.cells[k], int32(i))
}

// setGen records g for the exact box, replacing the generation of an
// equal box recorded before. An empty box overlaps nothing, so it is
// never observable and not recorded.
func (x *genIndex) setGen(box layout.Box, g uint64) {
	if box.Empty() {
		return
	}
	found := -1
	x.visit(box, func(i int) {
		if e := &x.entries[i]; slices.Equal(e.box.Lo, box.Lo) && slices.Equal(e.box.Hi, box.Hi) {
			found = i
		}
	})
	if found >= 0 {
		x.entries[found].gen = g
		return
	}
	widened := false
	for d := range box.Lo {
		if d == len(x.shift) {
			x.shift = append(x.shift, 0)
		}
		for x.shift[d] < 63 && uint64(box.Hi[d]-box.Lo[d]) > uint64(1)<<x.shift[d] {
			x.shift[d]++
			widened = true
		}
	}
	x.entries = append(x.entries, boxGen{box: box, gen: g})
	if !widened {
		x.bucket(len(x.entries) - 1)
		return
	}
	clear(x.cells)
	for i := range x.entries {
		x.bucket(i)
	}
}

// visit calls fn with the index of every recorded box overlapping q,
// each exactly once, in no particular order.
func (x *genIndex) visit(q layout.Box, fn func(i int)) {
	rank := len(q.Lo)
	if len(x.entries) == 0 || rank > len(x.shift) || q.Empty() {
		return // no recorded box of q's rank, or nothing to overlap
	}
	var lo, hi, cur [maxIndexRank]int64
	scan := rank > maxIndexRank
	for n, d := uint64(1), 0; !scan && d < rank; d++ {
		s := x.shift[d]
		lo[d], hi[d] = q.Lo[d]>>s-1, (q.Hi[d]-1)>>s
		// Past one cell per entry, walking cells costs more than a scan.
		span := uint64(hi[d]-lo[d]) + 1
		n *= span
		scan = span > uint64(len(x.entries)) || n > uint64(len(x.entries))
	}
	if scan {
		for i := range x.entries {
			if x.entries[i].box.Overlaps(q) {
				fn(i)
			}
		}
		return
	}
	cell := cur[:rank]
	copy(cell, lo[:rank])
	for {
		for _, i := range x.cells[cellKey(cell)] {
			if b := x.entries[i].box; x.inCell(b.Lo, cell) && b.Overlaps(q) {
				fn(int(i))
			}
		}
		d := rank - 1
		for ; d >= 0 && cell[d] == hi[d]; d-- {
			cell[d] = lo[d]
		}
		if d < 0 {
			return
		}
		cell[d]++
	}
}

// newerOverlaps returns the recorded boxes overlapping box whose
// generation is strictly newer than g — the writes that supersede (a
// part of) an incoming generation-g write — in record order.
func (x *genIndex) newerOverlaps(box layout.Box, g uint64) []layout.Box {
	var idx []int
	x.visit(box, func(i int) {
		if x.entries[i].gen > g {
			idx = append(idx, i)
		}
	})
	if len(idx) == 0 {
		return nil
	}
	slices.Sort(idx)
	out := make([]layout.Box, len(idx))
	for j, i := range idx {
		out[j] = x.entries[i].box
	}
	return out
}

// overlapGen returns the max generation over recorded boxes that
// overlap box; it allocates nothing.
func (x *genIndex) overlapGen(box layout.Box) uint64 {
	var top uint64
	x.visit(box, func(i int) { top = max(top, x.entries[i].gen) })
	return top
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

// CopyRegion copies the elements of region (which must be contained in
// both boxes) from src (srcBox-local row-major) into dst (dstBox-local
// row-major). The innermost dimension is contiguous in both buffers,
// so the copy moves whole rows.
func CopyRegion(dst []float64, dstBox layout.Box, src []float64, srcBox layout.Box, region layout.Box) {
	rank := len(region.Lo)
	ds, ss := strides(dstBox), strides(srcBox)
	rowLen := region.Hi[rank-1] - region.Lo[rank-1]

	// Odometer over every region coordinate except the innermost dim.
	cur := make([]int64, rank)
	copy(cur, region.Lo)
	for {
		var doff, soff int64
		for d := 0; d < rank; d++ {
			doff += (cur[d] - dstBox.Lo[d]) * ds[d]
			soff += (cur[d] - srcBox.Lo[d]) * ss[d]
		}
		copy(dst[doff:doff+rowLen], src[soff:soff+rowLen])
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

// strides returns box's row-major element strides.
func strides(box layout.Box) []int64 {
	s := make([]int64, len(box.Lo))
	acc := int64(1)
	for d := len(box.Lo) - 1; d >= 0; d-- {
		s[d] = acc
		acc *= box.Hi[d] - box.Lo[d]
	}
	return s
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
		MaxArrayElems: cfg.MaxArrayElems,
		MaxTileElems:  cfg.MaxTileElems,
		Series: FrontSeries{
			Inflight:      reg.Gauge("occd_inflight", "requests currently holding an engine slot"),
			RejectedQueue: reg.Counter("occd_rejected_queue_total", "requests rejected by the full admission queue (503)"),
			WireRaw:       reg.Counter("occd_wire_raw_bytes_total", "logical tile payload bytes served or accepted"),
			WireBytes:     reg.Counter("occd_wire_bytes_total", "tile payload bytes on the wire after content negotiation"),
		},
	})}
}

// Open brings a storage node up over the disk's surviving bytes; occd
// and every in-process cluster node start through it. It creates the
// catalog's arrays, replays the WAL over them (a record naming any
// other array refuses the open), and only then starts the engine and
// the serving core. On any error the disk is abandoned, not closed: a
// close would checkpoint away the very records a refusal protects, and
// an abandoned disk leaves no lock behind for the next start.
func Open(d *ooc.Disk, catalog []Array, eo ooc.EngineOptions, cfg Config) (_ *Server, err error) {
	defer func() {
		if err != nil {
			err = errors.Join(err, d.Abandon())
		}
	}()
	// Every kept array is checked before any is created: the first
	// creation opens the WAL log, and a refusal must leave the directory
	// as it found it.
	arrays := make([]*ir.Array, len(catalog))
	for i, a := range catalog {
		arrays[i] = ir.NewArray(a.Name, a.Dims...)
		if err := d.CheckKept(a.Name, arrays[i].Len()); err != nil {
			return nil, err
		}
	}
	for i, a := range catalog {
		if _, err := d.CreateArray(arrays[i], a.Layout); err != nil {
			return nil, err
		}
	}
	if _, err := d.ReplayWAL(); err != nil {
		return nil, err
	}
	return New(d, ooc.NewEngine(d, eo), cfg), nil
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

// Abandon is the crash path for harnesses: healthz flips to 503 as it
// does for a drain, the engine drops its cache without writing back,
// every later request answers 503, and nothing is synced or closed. A
// dead process answers no health check, so a router must not see this
// node as back until it restarts.
func (s *Server) Abandon() {
	s.front.StopAdmitting()
	s.plane.eng.Abandon()
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
// pinned tile; a nil render reports the generation without pinning.
func (p *enginePlane) ReadBox(_ context.Context, a Array, box layout.Box,
	render func([]float64, uint64) []byte) ([]byte, uint64, error) {
	ar, lk, err := p.open(a)
	if err != nil {
		return nil, 0, err
	}
	return p.read(ar, lk, box, render)
}

func (p *enginePlane) read(ar *ooc.Array, lk *tileLock, box layout.Box, render func([]float64, uint64) []byte) ([]byte, uint64, error) {
	// Shared lock: concurrent reads overlap freely; a PUT to this array
	// is excluded while the pinned tile's buffer is rendered, and the
	// lock is dropped between a scan's chunks so writers are never
	// starved by a long stream.
	lk.mu.RLock()
	defer lk.mu.RUnlock()
	if render == nil {
		return nil, lk.gens.overlapGen(box), nil
	}
	h, err := p.eng.Acquire(ar, box)
	if err != nil {
		return nil, 0, err
	}
	defer p.eng.Release(h, false)
	// The generation is read under the same lock hold as the bytes, so a
	// replica never reports a freshness its payload lacks.
	g := lk.gens.overlapGen(box)
	return render(h.Tile().Data(), g), g, nil
}

// WriteBox lands one write: per-cell LWW generation merge under the
// exclusive lock, and flush-before-ack under
// DurablePuts. A write that applies to its whole box — every ungated
// PUT, hint replay and read-repair rewrite — is a blind
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
	// share a routing tile — see the gens comment), so any recorded
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
		if newer := lk.gens.newerOverlaps(box, gen); len(newer) > 0 {
			if apply = subtractBoxes(box, newer); len(apply) == 0 {
				// Newer writes blanket every cell: skip, and report the
				// newest overlapping generation so the router catches
				// its counter up.
				stored := lk.gens.overlapGen(box)
				lk.mu.Unlock()
				return stored, true, nil
			}
		}
	}
	if apply == nil {
		// The write supplies every cell of the box, so nothing of the old
		// tile is needed: install it without reading (the engine copies
		// src, which the front end recycles).
		err = p.eng.Store(ooc.TileReq{Arr: ar, Box: box}, src)
	} else {
		// Only the merge remainder needs the old cells.
		var h *ooc.Handle
		if h, err = p.eng.Acquire(ar, box); err == nil {
			for _, region := range apply {
				CopyRegion(h.Tile().Data(), box, src, box, region)
			}
			p.eng.Release(h, true)
		}
	}
	if err != nil {
		lk.mu.Unlock()
		return 0, false, err
	}
	if gen != 0 {
		lk.gens.setGen(box, gen)
	}
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
	NodeID  string          `json:"node_id,omitempty"`
	Engine  ooc.EngineStats `json:"engine"`
	HitRate float64         `json:"hit_rate"`
	WAL     *ooc.WALStats   `json:"wal,omitempty"`
	FrontStats
}

func (p *enginePlane) Stats(front FrontStats) any {
	es := p.eng.Stats()
	return statsPayload{
		NodeID:     p.nodeID,
		Engine:     es,
		HitRate:    es.HitRate(),
		WAL:        p.disk.WALStats(),
		FrontStats: front,
	}
}
