// Package codegen turns an optimized nest (loop transformation + file
// layouts + tiling strategy) into an executable out-of-core schedule.
//
// A schedule enumerates data tiles over the TRANSFORMED iteration
// space, reads each referenced array's footprint box through the ooc
// runtime (paying the I/O calls the layouts imply), executes the
// original statement semantics on the in-memory tiles (iterating the
// transformed space via Fourier-Motzkin bounds and mapping back through
// Q), and writes modified tiles out. Executing a schedule is therefore
// both a correctness check (results must match the in-core reference)
// and the measurement instrument for every experiment in the paper.
//
// Tiles are held per (array, access matrix) group: references that
// move together share one in-memory tile whose box is exact, while
// differently-patterned reads of the same array (e.g. A(i,k) and
// A(j,k) in syr2k) get independent tiles. A written array must have a
// single access-matrix group — otherwise in-memory copies could
// diverge — which Build rejects up front.
//
// On the engine path the schedule also drives the cache: its tile
// order is a pure function of (plan, budget, part), so a look-ahead
// pass over the slice tells the engine when each requested tile comes
// back, and a group the nest only writes, one element per point, is
// stored on a dense tile without being read.
package codegen

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"outcore/internal/core"
	"outcore/internal/deps"
	"outcore/internal/fm"
	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/matrix"
	"outcore/internal/obs"
	"outcore/internal/ooc"
	"outcore/internal/tiling"
)

// Options configures schedule construction.
type Options struct {
	Strategy  tiling.Strategy
	MemBudget int64 // elements; 0 = unlimited
	// NoFallback disables the automatic fall-back to traditional tiling
	// when the out-of-core strategy cannot fit the memory budget.
	NoFallback bool
	// DryRun executes the schedule's control structure and I/O
	// accounting (calls, bytes, trace, memory budget) without moving
	// data or evaluating statements — the measurement mode used by the
	// parallel-performance simulator, where only the I/O behaviour and
	// iteration counts matter.
	DryRun bool
	// Engine, when non-nil, routes tile I/O through the tile engine:
	// group tiles are acquired from its cache (read from the backend on
	// a miss) and released with write-back dirty tracking, and a
	// write-only group on a dense tile is stored without a read. Every
	// request carries its exact next use in the slice, so the engine
	// evicts the tile needed furthest in the future. The engine's
	// tile-count capacity replaces the Memory budget, which is not
	// consulted on this path. A dry run needs the engine over a
	// measurement-only disk. The caller owns the engine: Flush/Close it
	// before reading results or I/O stats so dirty cached tiles reach
	// the backend.
	Engine *ooc.Engine
	// Obs, when it carries a trace, emits one KindCompute span per
	// executed tile (the statement-iteration work between I/O bursts) —
	// the counterpart to the engine's fetch and write-back spans in the
	// exported timeline. Dry runs execute no compute and emit nothing.
	Obs *obs.Sink
}

// Schedule is an executable tiled out-of-core loop nest.
type Schedule struct {
	Nest *ir.Nest
	Plan *core.NestPlan
	Spec tiling.Spec

	dryRun    bool
	engine    *ooc.Engine
	trace     *obs.Trace
	traceName string
	bounds    *fm.Bounds
	stmts     []schedStmt
	refs      []schedRef
	groups    []*refGroup
	qLast     []int64 // Q's last column: the original-space step of the innermost loop
}

// refGroup is one (array, access matrix) tile group.
type refGroup struct {
	arr  *ir.Array
	id   int         // index of the first group of arr: (id, box) names one engine tile
	m    *matrix.Int // composite access L·Q
	offs [][]int64   // offsets of the member references
	// written: a statement of the nest writes arr.
	written bool
	// blind: on a dense tile the nest writes every element of the
	// group's footprint and reads none, so the engine path stores the
	// tile without reading it (see writeOnly).
	blind bool
}

// schedRef is one statement reference: its group and constant offset.
type schedRef struct {
	group int
	off   []int64
}

// schedStmt binds each statement to its references (indexes into
// Schedule.refs).
type schedStmt struct {
	st  *ir.Stmt
	out int
	in  []int
}

// Build constructs the schedule for one nest under a plan.
func Build(n *ir.Nest, np *core.NestPlan, opts Options) (*Schedule, error) {
	if np == nil || np.Nest != n {
		return nil, fmt.Errorf("codegen: plan does not match nest %d", n.ID)
	}
	k := n.Depth()
	lo := make([]int64, k)
	hi := make([]int64, k)
	for i, l := range n.Loops {
		lo[i], hi[i] = l.Lo, l.Hi
	}
	nin := 0
	for _, st := range n.Body {
		nin += len(st.In)
	}
	nrefs := len(n.Body) + nin
	s := &Schedule{Nest: n, Plan: np, dryRun: opts.DryRun, engine: opts.Engine,
		stmts: make([]schedStmt, 0, len(n.Body)), refs: make([]schedRef, 0, nrefs),
		groups: make([]*refGroup, 0, nrefs), qLast: make([]int64, k)}
	if s.trace = opts.Obs.TraceOf(); s.trace != nil {
		s.traceName = fmt.Sprintf("nest-%d", n.ID)
	}
	s.bounds = fm.TransformedBounds(np.Q, lo, hi).Eliminate()

	// Room for a group per reference, so s.groups' pointers never move.
	groups := make([]refGroup, 0, nrefs)
	var lq *matrix.Int // L·Q of the reference being grouped; a new group keeps it
	refOf := func(r ir.Ref) int {
		lq = r.L.MulTo(lq, np.Q)
		gi := slices.IndexFunc(s.groups, func(g *refGroup) bool { return g.arr == r.Array && g.m.Equal(lq) })
		if gi < 0 {
			id := slices.IndexFunc(s.groups, func(g *refGroup) bool { return g.arr == r.Array })
			gi = len(s.groups)
			if id < 0 {
				id = gi
			}
			groups = append(groups, refGroup{arr: r.Array, id: id, m: lq})
			s.groups, lq = append(s.groups, &groups[gi]), nil
		}
		s.refs = append(s.refs, schedRef{group: gi, off: r.Off})
		return len(s.refs) - 1
	}
	ins := make([]int, nin)
	for _, st := range n.Body {
		ss := schedStmt{st: st, out: refOf(st.Out), in: ins[:len(st.In):len(st.In)]}
		for i, r := range st.In {
			ss.in[i] = refOf(r)
		}
		ins = ins[len(st.In):]
		s.stmts = append(s.stmts, ss)
	}
	for r := range s.qLast {
		s.qLast[r] = np.Q.At(r, k-1)
	}
	// Each group's member offsets, in reference order, share one array.
	offs := make([][]int64, 0, nrefs)
	for gi, g := range s.groups {
		from := len(offs)
		for _, r := range s.refs {
			if r.group == gi {
				offs = append(offs, r.off)
			}
		}
		g.offs = offs[from:len(offs):len(offs)]
		g.written = slices.ContainsFunc(n.Body, func(st *ir.Stmt) bool { return st.Out.Array == g.arr })
		g.blind = s.writeOnly(g)
	}
	// A written array must have exactly one access-matrix group.
	for _, st := range n.Body {
		count := 0
		for _, g := range s.groups {
			if g.arr == st.Out.Array {
				count++
			}
		}
		if count > 1 {
			return nil, fmt.Errorf("codegen: nest %d: array %s is written and accessed through %d access patterns; aliased multi-pattern updates are not supported", n.ID, st.Out.Array.Name, count)
		}
	}

	// Tiling legality: the tiled band must be fully permutable under the
	// dependence cells of the TRANSFORMED nest. Traditional tiling bands
	// all k loops, out-of-core tiling the outer k-1; a permutable k-band
	// makes its prefix permutable too.
	tds := deps.Transformed(n, np.T)
	full := deps.FullyPermutable(tds, 0, k)
	if !full && (opts.Strategy == tiling.Traditional || !deps.FullyPermutable(tds, 0, k-1)) {
		return nil, fmt.Errorf("codegen: nest %d: tiled band not fully permutable under transformed dependences", n.ID)
	}

	tlo, thi := tiling.TransformedBox(np.T, lo, hi)
	acc := s.groupAccesses()
	spec, err := tiling.Choose(acc, tlo, thi, opts.MemBudget, opts.Strategy)
	if err != nil && opts.Strategy == tiling.OutOfCore && !opts.NoFallback {
		// A nest whose innermost loop sweeps too much data for the budget
		// (e.g. many small vectors) falls back to traditional tiling, as
		// a real out-of-core compiler must. That tiles the innermost loop
		// too, so the band checked above grows by one.
		spec, err = tiling.Choose(acc, tlo, thi, opts.MemBudget, tiling.Traditional)
		if err == nil && !full {
			return nil, fmt.Errorf("codegen: nest %d: out-of-core slab does not fit the budget and the traditional fallback's band is not fully permutable under transformed dependences", n.ID)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("codegen: nest %d: %w", n.ID, err)
	}
	s.Spec = spec
	return s, nil
}

// writeOnly reports whether every point of a tile box writes its own
// element of g and nothing reads g: the array is written and never
// read, through unguarded statements and a single offset, and each row
// of g's access matrix is one ±1 in a column of its own, so the points
// of a dense tile cover the footprint box exactly.
func (s *Schedule) writeOnly(g *refGroup) bool {
	if !g.written {
		return false
	}
	for _, st := range s.Nest.Body {
		if st.Out.Array == g.arr && len(st.Guard) > 0 {
			return false
		}
		for _, r := range st.In {
			if r.Array == g.arr {
				return false
			}
		}
	}
	for _, off := range g.offs[1:] {
		if !slices.Equal(off, g.offs[0]) {
			return false
		}
	}
	var used uint64
	for d := 0; d < g.m.Rows(); d++ {
		col := -1
		for j := 0; j < g.m.Cols(); j++ {
			switch c := g.m.At(d, j); {
			case c == 0:
			case (c == 1 || c == -1) && col < 0 && j < 64:
				col = j
			default:
				return false
			}
		}
		if col < 0 || used&(1<<col) != 0 {
			return false
		}
		used |= 1 << col
	}
	return true
}

// groupAccesses converts tile groups to the tiling package's per-group
// footprint inputs (one RefAccess per group per member offset; the
// estimator unions offsets within a group key).
func (s *Schedule) groupAccesses() []tiling.RefAccess {
	out := make([]tiling.RefAccess, 0, len(s.refs))
	for gi, g := range s.groups {
		for _, off := range g.offs {
			out = append(out, tiling.RefAccess{Array: g.arr, M: g.m, Off: off, Group: gi})
		}
	}
	return out
}

// ExecStats reports what one schedule execution did.
type ExecStats struct {
	Iterations int64 // statement-loop iterations executed
	Tiles      int64 // non-empty tiles processed
}

// Execute runs the whole schedule against the disk.
func (s *Schedule) Execute(d *ooc.Disk, mem *ooc.Memory) (ExecStats, error) {
	return s.ExecuteSlice(d, mem, 0, 1)
}

// ExecuteSlice runs the schedule's share for processor `part` of
// `parts`: the outermost tile loop is block-partitioned, the paper's
// communication-free parallelization. Tiles run in lexicographic
// origin order.
func (s *Schedule) ExecuteSlice(d *ooc.Disk, mem *ooc.Memory, part, parts int) (ExecStats, error) {
	if parts < 1 || part < 0 || part >= parts {
		return ExecStats{}, fmt.Errorf("codegen: bad partition %d/%d", part, parts)
	}
	if !s.bounds.Feasible() {
		return ExecStats{}, nil
	}
	x := s.newExecutor(d, mem)
	last0, tiles := x.first(part, parts)
	origin := x.origin
	if s.engine == nil {
		for ok := origin[0] <= last0; ok; ok = s.nextOrigin(origin, last0) {
			if err := x.tile(origin); err != nil {
				return x.stats, err
			}
		}
		return x.stats, nil
	}
	x.look(append(x.scan[:0], origin...), last0, tiles)
	f := x.future
	defer futures.Put(f)
	reqs := f.reqs
	for ti, ok := 0, origin[0] <= last0; ok; ti, ok = ti+1, s.nextOrigin(origin, last0) {
		t := f.tiles[ti]
		if t.iters == 0 {
			continue
		}
		if err := x.engineTile(origin, t, reqs[:t.nreq]); err != nil {
			return x.stats, err
		}
		reqs = reqs[t.nreq:]
	}
	return x.stats, nil
}

// first sets x.origin to the first tile origin of processor part's
// slice and returns where its level 0 ends and how many tile origins it
// holds.
func (x *executor) first(part, parts int) (last0 int64, tiles int) {
	sp := &x.s.Spec
	// Tile counts along level 0 for block partitioning.
	nt0 := ceilDiv(sp.Hi[0]-sp.Lo[0]+1, sp.Sizes[0])
	t0from, t0to := blockRange(nt0, int64(part), int64(parts))
	copy(x.origin, sp.Lo)
	x.origin[0] += t0from * sp.Sizes[0]
	n := t0to - t0from
	for lvl := 1; lvl < len(sp.Lo); lvl++ {
		n *= ceilDiv(sp.Hi[lvl]-sp.Lo[lvl]+1, sp.Sizes[lvl])
	}
	return min(sp.Lo[0]+t0to*sp.Sizes[0]-1, sp.Hi[0]), int(n)
}

// nextOrigin steps a tile origin to its lexicographic successor, level
// 0 ending at last0; false past the last tile.
func (s *Schedule) nextOrigin(o []int64, last0 int64) bool {
	for lvl := len(o) - 1; lvl >= 0; lvl-- {
		o[lvl] += s.Spec.Sizes[lvl]
		if o[lvl] <= s.Spec.Hi[lvl] && (lvl > 0 || o[0] <= last0) {
			return true
		}
		o[lvl] = s.Spec.Lo[lvl]
	}
	return false
}

// tileBounds fills the inclusive iteration-space bounds of the tile at
// origin, clipped to the spec.
func (s *Schedule) tileBounds(origin, tLo, tHi []int64) {
	for lvl, o := range origin {
		tLo[lvl] = o
		tHi[lvl] = min(o+s.Spec.Sizes[lvl]-1, s.Spec.Hi[lvl])
	}
}

// executor is one ExecuteSlice call's state, reused across its tiles:
// tile bounds, the group tiles with their offset tables, the request
// list, the look-ahead and the statement loop's scratch.
type executor struct {
	s     *Schedule
	d     *ooc.Disk
	mem   *ooc.Memory
	stats ExecStats

	origin, scan []int64 // the tile origin, and the look-ahead's copy
	tLo, tHi     []int64 // this tile's iteration box
	iv, origIv   []int64
	in           []float64 // statement inputs; a StmtFunc may not keep its slice
	reqs         []ooc.TileReq
	reqGroup     []int // group of each of reqs
	handles      []*ooc.Handle
	future       *future // the engine path's look-ahead, from the futures pool

	gs []groupState
	// lin[g*k+l] = Σ_d m[d][l]·tileStride_d, the change in group g's
	// tile offset per unit step of level l.
	lin []int64
	// Per reference: its tile's data, its tile offset at iv = 0, at the
	// current point, and per innermost step.
	data            [][]float64
	base, pos, step []int64
	proven          bool // every reference provably stays inside its tile over the tile box
}

// groupState is one group's share of an executor: its array on the
// disk, its tile on the memory path, the data the statements read and
// write (nil when its footprint is empty), the scratch a blind store is
// computed into, and its footprint box (refilled in place: the engine
// copies the boxes it keeps).
type groupState struct {
	arr     *ooc.Array
	tile    *ooc.Tile
	data    []float64
	scratch []float64
	box     layout.Box
}

// newExecutor sizes an executor's tables for the schedule. Every int64
// table shares one allocation.
func (s *Schedule) newExecutor(d *ooc.Disk, mem *ooc.Memory) *executor {
	k, ng, nr := s.Spec.Depth(), len(s.groups), len(s.refs)
	n := 6*k + ng*k + 3*nr
	for _, g := range s.groups {
		n += 2 * g.arr.Rank()
	}
	ints := make([]int64, n)
	take := func(n int) []int64 {
		b := ints[:n:n]
		ints = ints[n:]
		return b
	}
	nin := 0
	for _, ss := range s.stmts {
		nin = max(nin, len(ss.in))
	}
	x := &executor{s: s, d: d, mem: mem,
		origin: take(k), scan: take(k), tLo: take(k), tHi: take(k), iv: take(k), origIv: take(k),
		lin: take(ng * k), base: take(nr), pos: take(nr), step: take(nr),
		in: make([]float64, 0, nin), gs: make([]groupState, ng), data: make([][]float64, nr),
		reqs: make([]ooc.TileReq, 0, ng), reqGroup: make([]int, 0, ng), handles: make([]*ooc.Handle, 0, ng)}
	for gi, g := range s.groups {
		r := g.arr.Rank()
		x.gs[gi] = groupState{arr: d.ArrayOf(g.arr), box: layout.Box{Lo: take(r), Hi: take(r)}}
	}
	return x
}

// footprints fills every group's footprint box for the tile box and
// clears the per-group data.
func (x *executor) footprints() {
	for gi, g := range x.s.groups {
		gs := &x.gs[gi]
		g.footprintBox(gs.box, x.tLo, x.tHi)
		gs.tile, gs.data = nil, nil
	}
}

// tileReq returns the engine request for group gi's footprint.
func (x *executor) tileReq(gi, next int) (ooc.TileReq, error) {
	gs := &x.gs[gi]
	if gs.arr == nil {
		return ooc.TileReq{}, fmt.Errorf("codegen: array %s not on disk", x.s.groups[gi].arr.Name)
	}
	return ooc.TileReq{Arr: gs.arr, Box: gs.box, Next: next}, nil
}

// tile processes the tile at origin on the memory path: it reads the
// group footprints under the Memory budget (or only accounts for them
// in a dry run), executes, and writes the written groups back.
func (x *executor) tile(origin []int64) error {
	s := x.s
	s.tileBounds(origin, x.tLo, x.tHi)
	// Dry runs need the exact count; executing needs only "non-empty?".
	iters := s.countWithin(0, x.tLo, x.tHi, x.iv, !s.dryRun)
	if iters == 0 {
		return nil
	}
	x.footprints()
	x.reqs, x.reqGroup = x.reqs[:0], x.reqGroup[:0]
	for gi := range s.groups {
		if x.gs[gi].box.Empty() {
			continue
		}
		r, err := x.tileReq(gi, 0)
		if err != nil {
			return err
		}
		x.reqs = append(x.reqs, r)
		x.reqGroup = append(x.reqGroup, gi)
	}
	return x.memoryTile(iters)
}

// written reports whether request req's group is written by the nest.
func (x *executor) written(req int) bool { return x.s.groups[x.reqGroup[req]].written }

// memoryTile reads the group footprints under the Memory budget (or
// only accounts for them in a dry run), executes, and writes the
// written groups back. The reservation is returned on every exit.
func (x *executor) memoryTile(iters int64) (err error) {
	var allocated int64
	defer func() { x.mem.Release(allocated) }()
	for i, r := range x.reqs {
		if err := x.mem.Alloc(r.Box.Size()); err != nil {
			return err
		}
		allocated += r.Box.Size()
		switch gs := &x.gs[x.reqGroup[i]]; {
		case !x.s.dryRun:
			if gs.tile, err = r.Arr.ReadTile(r.Box); err != nil {
				return err
			}
			gs.data = gs.tile.Data()
		case x.written(i):
			r.Arr.TouchRead(r.Box)
			r.Arr.TouchWrite(r.Box)
		default:
			r.Arr.TouchRead(r.Box)
		}
	}
	if x.s.dryRun {
		x.stats.Iterations += iters
		x.stats.Tiles++
		return nil
	}
	x.compute()
	for i := range x.reqs {
		if x.written(i) {
			if err := x.gs[x.reqGroup[i]].tile.WriteTile(); err != nil {
				return err
			}
		}
	}
	return nil
}

// engineTile runs the tile at origin through the engine, issuing the
// look-ahead's requests rs in order: it acquires the groups it reads
// from the cache, executes (a dry run only counts), releases them with
// dirty marking so write-back happens on eviction or flush, and then
// stores the blind groups, computed into scratch (accounted only in a
// dry run).
func (x *executor) engineTile(origin []int64, t futureTile, rs []futureReq) error {
	s, e := x.s, x.s.engine
	nread, err := x.requests(origin, t, rs)
	if err != nil {
		return err
	}
	handles, err := e.AcquireAll(x.handles[:0], x.reqs[:nread])
	if err != nil {
		return err
	}
	x.handles = handles
	if s.dryRun {
		x.stats.Iterations += t.iters
		x.stats.Tiles++
	} else {
		for i, h := range handles {
			x.gs[x.reqGroup[i]].data = h.Tile().Data()
		}
		x.compute()
	}
	for i, h := range handles {
		e.Release(h, x.written(i))
	}
	for i := nread; i < len(x.reqs); i++ {
		if err := e.Store(x.reqs[i], x.gs[x.reqGroup[i]].data); err != nil {
			return err
		}
	}
	return nil
}

// requests fills x.reqs with the engine requests of the tile at origin,
// the look-ahead's rs with the boxes it found and their next uses: the
// nread reads first, then the blind stores, each pointed at its scratch
// on a real run. A group the tile requests nothing of gets an empty box.
func (x *executor) requests(origin []int64, t futureTile, rs []futureReq) (nread int, err error) {
	s, f := x.s, x.future
	s.tileBounds(origin, x.tLo, x.tHi)
	for gi := range x.gs {
		gs := &x.gs[gi]
		gs.tile, gs.data = nil, nil
		clear(gs.box.Lo)
		clear(gs.box.Hi)
	}
	x.reqs, x.reqGroup = x.reqs[:0], x.reqGroup[:0]
	for _, fr := range rs {
		gi, k := int(fr.group), f.keys[fr.key]
		copy(x.gs[gi].box.Lo, f.boxes[k.box:])
		copy(x.gs[gi].box.Hi, f.boxes[k.box+k.dim:])
		r, err := x.tileReq(gi, int(fr.next))
		if err != nil {
			return 0, err
		}
		x.reqs = append(x.reqs, r)
		x.reqGroup = append(x.reqGroup, gi)
		if !(t.dense && s.groups[gi].blind) {
			nread++
		} else if !s.dryRun {
			gs := &x.gs[gi]
			if n := int(r.Box.Size()); cap(gs.scratch) < n {
				gs.scratch = make([]float64, n)
			}
			gs.data = gs.scratch[:r.Box.Size()]
		}
	}
	return nread, nil
}

// future is the engine path's look-ahead over one slice. A pass over
// the tile origins, stepped exactly as execution steps them, records
// each tile's iteration count, density and engine requests (reads in
// group order, then blind stores), and for each request the distance
// to the next request of the same (array, box). The tiles a request
// names are its keys, found through an open-addressed table with exact
// box comparison. Every table is sized up front from the tile counts,
// so a pass makes at most one allocation per table.
type future struct {
	tiles []futureTile
	reqs  []futureReq
	keys  []futureKey
	boxes []int64 // key boxes, Lo then Hi
	slots []int32 // the table: 1 + key index, 0 = empty
}

// futureTile is one tile origin's look-ahead.
type futureTile struct {
	iters int64 // statement iterations (exact on dry runs; else > 0 means non-empty)
	nreq  int32 // engine requests the tile issues
	dense bool  // every point of the tile box executes
}

// futureReq is one engine request: its group, its key, and how many
// requests later its tile is requested again (0 = not in this slice).
type futureReq struct {
	group, key, next int32
}

// futureKey is one distinct (array, box): its hash, the array's first
// group, the box's offset in future.boxes, its latest request and the
// box's rank.
type futureKey struct {
	hash      uint64
	id, box   int32
	last, dim int32
}

// futures recycles look-ahead tables: they are sized by the slice, and
// a steady stream of executions reuses them instead of collecting them.
var futures = sync.Pool{New: func() any { return new(future) }}

// reuse returns buf emptied, with room for n elements.
func reuse[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// look fills x.future for the slice whose first origin is origin
// (stepped in place), whose level 0 ends at last0 and which holds
// tiles tile origins.
func (x *executor) look(origin []int64, last0 int64, tiles int) {
	s, f := x.s, futures.Get().(*future)
	x.future = f
	// A group's footprint box depends only on the tile ranges of the
	// levels its access matrix uses, which bounds its distinct boxes.
	nkeys, words := 0, 0
	for _, g := range s.groups {
		n := 1
		for lvl := range origin {
			used := false
			for d := 0; d < g.m.Rows(); d++ {
				used = used || g.m.At(d, lvl) != 0
			}
			switch {
			case !used:
			case lvl == 0:
				n *= int(ceilDiv(last0-origin[0]+1, s.Spec.Sizes[0]))
			default:
				n *= int(ceilDiv(s.Spec.Hi[lvl]-s.Spec.Lo[lvl]+1, s.Spec.Sizes[lvl]))
			}
		}
		nkeys += n
		words += 2 * g.arr.Rank() * n
	}
	size := 1
	for size < 2*nkeys {
		size <<= 1
	}
	f.tiles, f.reqs = reuse(f.tiles, tiles), reuse(f.reqs, tiles*len(s.groups))
	f.keys, f.boxes, f.slots = reuse(f.keys, nkeys), reuse(f.boxes, words), reuse(f.slots, size)[:size]
	clear(f.slots)
	blind := false
	for _, g := range s.groups {
		blind = blind || g.blind
	}
	for ok := origin[0] <= last0; ok; ok = s.nextOrigin(origin, last0) {
		s.tileBounds(origin, x.tLo, x.tHi)
		var t futureTile
		switch {
		case s.dryRun:
			t.iters = s.countWithin(0, x.tLo, x.tHi, x.iv, false)
			vol := int64(1)
			for lvl := range x.tLo {
				vol *= x.tHi[lvl] - x.tLo[lvl] + 1
			}
			t.dense = t.iters == vol
		case blind && s.denseWithin(0, x.tLo, x.tHi, x.iv):
			t.iters, t.dense = 1, true
		default:
			t.iters = s.countWithin(0, x.tLo, x.tHi, x.iv, true)
		}
		if t.iters > 0 {
			n := len(f.reqs)
			x.footprints()
			for _, stores := range [2]bool{false, true} {
				for gi, g := range s.groups {
					if box := x.gs[gi].box; (t.dense && g.blind) == stores && !box.Empty() {
						f.request(gi, g.id, box)
					}
				}
			}
			t.nreq = int32(len(f.reqs) - n)
		}
		f.tiles = append(f.tiles, t)
	}
}

// request appends a request of group gi for box, linking the previous
// request of the same (array, box) to it.
func (f *future) request(gi, id int, box layout.Box) {
	i := int32(len(f.reqs))
	h := uint64(id+1) * 0x9e3779b97f4a7c15
	for d := range box.Lo {
		h = (h ^ uint64(box.Lo[d])) * 0xbf58476d1ce4e5b9
		h = (h ^ uint64(box.Hi[d])) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	mask := uint64(len(f.slots) - 1)
	for j := h & mask; ; j = (j + 1) & mask {
		if f.slots[j] == 0 {
			if 2*len(f.keys) >= len(f.slots) {
				panic("codegen: look-ahead found more tiles than its key bound") // the table would fill and never stop probing
			}
			f.slots[j] = int32(len(f.keys) + 1)
			f.reqs = append(f.reqs, futureReq{group: int32(gi), key: int32(len(f.keys))})
			f.keys = append(f.keys, futureKey{hash: h, id: int32(id), box: int32(len(f.boxes)), last: i, dim: int32(len(box.Lo))})
			f.boxes = append(append(f.boxes, box.Lo...), box.Hi...)
			return
		}
		ki := f.slots[j] - 1
		k := &f.keys[ki]
		if k.hash == h && k.id == int32(id) &&
			slices.Equal(f.boxes[k.box:k.box+k.dim], box.Lo) && slices.Equal(f.boxes[k.box+k.dim:k.box+2*k.dim], box.Hi) {
			f.reqs = append(f.reqs, futureReq{group: int32(gi), key: ki})
			f.reqs[k.last].next = i - k.last
			k.last = i
			return
		}
	}
}

// compute executes the statements over the tile's points. Every
// reference is affine, so its offset into its tile's row-major data is
// base + Σ_l lin_l·iv_l. When each reference's range over the tile box
// lies inside its tile the accesses are proven in bounds once here;
// otherwise run checks each row's two ends.
func (x *executor) compute() {
	s := x.s
	k := len(x.iv)
	for gi, g := range s.groups {
		lin, box := x.lin[gi*k:gi*k+k], x.gs[gi].box
		clear(lin)
		for d, stride := g.arr.Rank()-1, int64(1); d >= 0; d-- {
			for l := range lin {
				lin[l] += g.m.At(d, l) * stride
			}
			stride *= box.Hi[d] - box.Lo[d]
		}
	}
	x.proven = true
	for ri, r := range s.refs {
		g, box := s.groups[r.group], x.gs[r.group].box
		x.data[ri] = x.gs[r.group].data
		var base int64
		for d, stride := g.arr.Rank()-1, int64(1); d >= 0; d-- {
			base += (r.off[d] - box.Lo[d]) * stride
			stride *= box.Hi[d] - box.Lo[d]
			if mn, mx := g.extent(d, x.tLo, x.tHi); mn+r.off[d] < box.Lo[d] || mx+r.off[d] >= box.Hi[d] {
				x.proven = false
			}
		}
		x.base[ri], x.step[ri] = base, x.lin[r.group*k+k-1]
	}
	x.stats.Tiles++
	t0 := s.computeStart()
	x.walk(0)
	s.computeEnd(t0)
}

// walk enumerates the transformed space within the tile box, level by
// level, handing each innermost row to run.
func (x *executor) walk(lvl int) {
	lo, hi, empty := x.s.bounds.Range(lvl, x.iv[:lvl])
	if empty {
		return
	}
	lo, hi = max(lo, x.tLo[lvl]), min(hi, x.tHi[lvl])
	if lvl < len(x.iv)-1 {
		for v := lo; v <= hi; v++ {
			x.iv[lvl] = v
			x.walk(lvl + 1)
		}
	} else if lo <= hi {
		x.run(lo, hi)
	}
}

// run executes the statements along the row iv[k-1] = lo..hi: each
// reference's tile offset and the original iteration vector (through
// Q's last column) advance by a constant per step; guards are still
// tested per point.
func (x *executor) run(lo, hi int64) {
	s := x.s
	k := len(x.iv)
	x.iv[k-1] = lo
	if !x.proven {
		x.checkRun(lo, hi)
	}
	for r := range x.origIv {
		var acc int64
		for c, v := range x.iv {
			acc += s.Plan.Q.At(r, c) * v
		}
		x.origIv[r] = acc
	}
	for ri, r := range s.refs {
		p := x.base[ri]
		for l, v := range x.iv {
			p += x.lin[r.group*k+l] * v
		}
		x.pos[ri] = p
	}
	x.stats.Iterations += hi - lo + 1
	for v := lo; v <= hi; v++ {
		for _, ss := range s.stmts {
			if !ss.st.Guarded(x.origIv) {
				continue
			}
			in := x.in[:0]
			for _, ri := range ss.in {
				in = append(in, x.data[ri][x.pos[ri]])
			}
			x.data[ss.out][x.pos[ss.out]] = ss.st.F(in, x.origIv)
			x.in = in
		}
		for ri, st := range x.step {
			x.pos[ri] += st
		}
		for r, q := range s.qLast {
			x.origIv[r] += q
		}
	}
}

// checkRun panics unless every reference lies inside its tile at both
// ends of the row iv[k-1] = lo..hi; an affine reference is monotone
// along the row, so its ends bound it.
func (x *executor) checkRun(lo, hi int64) {
	k := len(x.iv)
	for _, r := range x.s.refs {
		g, box := x.s.groups[r.group], x.gs[r.group].box
		for d := range box.Lo {
			c := r.off[d]
			for l := 0; l < k-1; l++ {
				c += g.m.At(d, l) * x.iv[l]
			}
			for _, v := range [2]int64{lo, hi} {
				if e := c + g.m.At(d, k-1)*v; e < box.Lo[d] || e >= box.Hi[d] {
					panic(fmt.Sprintf("codegen: %s coordinate %d = %d outside tile %v at iteration %v (innermost %d)",
						g.arr.Name, d, e, box, x.iv[:k-1], v))
				}
			}
		}
	}
}

// computeStart/computeEnd bracket one tile's statement execution as a
// KindCompute trace span; without an attached trace they cost a nil
// check and a zero time.Time.
func (s *Schedule) computeStart() time.Time {
	if s.trace == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *Schedule) computeEnd(t0 time.Time) {
	if s.trace == nil || t0.IsZero() {
		return
	}
	s.trace.Emit(obs.Event{Kind: obs.KindCompute, Name: s.traceName,
		Start: s.trace.Stamp(t0), Dur: time.Since(t0).Nanoseconds()})
}

// denseWithin reports whether every point of the tile box from level
// lvl down, iv[:lvl] fixed, lies in the transformed space: the dense
// test, which stops at the first row that falls short.
func (s *Schedule) denseWithin(lvl int, tLo, tHi, iv []int64) bool {
	lo, hi, empty := s.bounds.Range(lvl, iv[:lvl])
	if empty || lo > tLo[lvl] || hi < tHi[lvl] {
		return false
	}
	if lvl == len(iv)-1 {
		return true
	}
	for v := tLo[lvl]; v <= tHi[lvl]; v++ {
		iv[lvl] = v
		if !s.denseWithin(lvl+1, tLo, tHi, iv) {
			return false
		}
	}
	return true
}

// countWithin counts the integer points of the transformed space
// restricted to the tile box from level lvl down, iv[:lvl] fixed,
// without visiting them individually: the innermost level contributes
// its range length directly, which makes dry runs cost
// O(points / innermost-extent). With first it stops at the first
// non-empty innermost row (a non-empty test).
func (s *Schedule) countWithin(lvl int, tLo, tHi, iv []int64, first bool) int64 {
	lo, hi, empty := s.bounds.Range(lvl, iv[:lvl])
	lo, hi = max(lo, tLo[lvl]), min(hi, tHi[lvl])
	if empty || hi < lo {
		return 0
	}
	if lvl == len(iv)-1 {
		return hi - lo + 1
	}
	var n int64
	for v := lo; v <= hi && !(first && n > 0); v++ {
		iv[lvl] = v
		n += s.countWithin(lvl+1, tLo, tHi, iv, first)
	}
	return n
}

// extent bounds row d of the group's access matrix over the iteration
// box [tLo, tHi].
func (g *refGroup) extent(d int, tLo, tHi []int64) (mn, mx int64) {
	for j := range tLo {
		if c := g.m.At(d, j); c > 0 {
			mn, mx = mn+c*tLo[j], mx+c*tHi[j]
		} else {
			mn, mx = mn+c*tHi[j], mx+c*tLo[j]
		}
	}
	return mn, mx
}

// footprintBox fills box with the clipped bounding box of the group's
// accesses over the tile iteration box [tLo, tHi] (inclusive). Exact
// for the group because all members share the access matrix.
func (g *refGroup) footprintBox(box layout.Box, tLo, tHi []int64) {
	lo, hi := box.Lo, box.Hi
	for d := range lo {
		mn, mx := g.extent(d, tLo, tHi)
		offLo, offHi := g.offs[0][d], g.offs[0][d]
		for _, off := range g.offs[1:] {
			offLo, offHi = min(offLo, off[d]), max(offHi, off[d])
		}
		lo[d] = max(mn+offLo, 0)
		hi[d] = max(min(mx+offHi+1, g.arr.Dims[d]), lo[d]) // half-open
	}
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// blockRange splits n items into `parts` blocks and returns the
// half-open item range of block `part`.
func blockRange(n, part, parts int64) (from, to int64) {
	base := n / parts
	rem := n % parts
	from = part*base + min(part, rem)
	to = from + base
	if part < rem {
		to++
	}
	return from, to
}
