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
package codegen

import (
	"fmt"
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
	// group tiles are acquired from its LRU cache (read from the backend
	// on a miss) and released with write-back dirty tracking. The
	// engine's tile-count capacity replaces the Memory budget, which is
	// not consulted on this path. The caller owns the engine:
	// Flush/Close it before reading results or I/O stats so dirty
	// cached tiles reach the backend.
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
	writes    map[*ir.Array]bool
	qLast     []int64 // Q's last column: the original-space step of the innermost loop
}

// refGroup is one (array, access matrix) tile group.
type refGroup struct {
	arr  *ir.Array
	m    *matrix.Int // composite access L·Q
	offs [][]int64   // offsets of the member references
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
	s := &Schedule{Nest: n, Plan: np, writes: map[*ir.Array]bool{}, dryRun: opts.DryRun, engine: opts.Engine}
	if s.trace = opts.Obs.TraceOf(); s.trace != nil {
		s.traceName = fmt.Sprintf("nest-%d", n.ID)
	}
	s.bounds = fm.TransformedBounds(np.Q, lo, hi).Eliminate()

	groupOf := func(r ir.Ref) int {
		m := r.L.Mul(np.Q)
		for gi, g := range s.groups {
			if g.arr == r.Array && g.m.Equal(m) {
				g.offs = append(g.offs, r.Off)
				return gi
			}
		}
		s.groups = append(s.groups, &refGroup{arr: r.Array, m: m, offs: [][]int64{r.Off}})
		return len(s.groups) - 1
	}
	refOf := func(r ir.Ref) int {
		s.refs = append(s.refs, schedRef{group: groupOf(r), off: r.Off})
		return len(s.refs) - 1
	}
	for _, st := range n.Body {
		ss := schedStmt{st: st, out: refOf(st.Out)}
		s.writes[st.Out.Array] = true
		for _, r := range st.In {
			ss.in = append(ss.in, refOf(r))
		}
		s.stmts = append(s.stmts, ss)
	}
	for r := 0; r < k; r++ {
		s.qLast = append(s.qLast, np.Q.At(r, k-1))
	}
	// A written array must have exactly one access-matrix group.
	for _, a := range s.writtenArrays() {
		count := 0
		for _, g := range s.groups {
			if g.arr == a {
				count++
			}
		}
		if count > 1 {
			return nil, fmt.Errorf("codegen: nest %d: array %s is written and accessed through %d access patterns; aliased multi-pattern updates are not supported", n.ID, a.Name, count)
		}
	}

	// Tiling legality: the tiled band must be fully permutable under the
	// TRANSFORMED dependences.
	tds := transformDeps(deps.Analyze(n), np.T)
	band := k - 1
	if opts.Strategy == tiling.Traditional {
		band = k
	}
	if !deps.FullyPermutable(tds, 0, band) {
		return nil, fmt.Errorf("codegen: nest %d: tiled band not fully permutable under transformed dependences", n.ID)
	}

	tlo, thi := tiling.TransformedBox(np.T, lo, hi)
	spec, err := tiling.Choose(s.groupAccesses(), tlo, thi, opts.MemBudget, opts.Strategy)
	if err != nil && opts.Strategy == tiling.OutOfCore && !opts.NoFallback {
		// A nest whose innermost loop sweeps too much data for the budget
		// (e.g. many small vectors) falls back to traditional tiling, as
		// a real out-of-core compiler must.
		spec, err = tiling.Choose(s.groupAccesses(), tlo, thi, opts.MemBudget, tiling.Traditional)
	}
	if err != nil {
		return nil, fmt.Errorf("codegen: nest %d: %w", n.ID, err)
	}
	s.Spec = spec
	return s, nil
}

// groupAccesses converts tile groups to the tiling package's per-group
// footprint inputs (one RefAccess per group per member offset; the
// estimator unions offsets within a group key).
func (s *Schedule) groupAccesses() []tiling.RefAccess {
	var out []tiling.RefAccess
	for gi, g := range s.groups {
		for _, off := range g.offs {
			out = append(out, tiling.RefAccess{Array: g.arr, M: g.m, Off: off, Group: gi})
		}
	}
	return out
}

func (s *Schedule) writtenArrays() []*ir.Array {
	var out []*ir.Array
	seen := map[*ir.Array]bool{}
	for _, st := range s.stmts {
		a := st.st.Out.Array
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// transformDeps maps dependence vectors through T.
func transformDeps(ds []deps.Dependence, t *matrix.Int) []deps.Dependence {
	out := make([]deps.Dependence, 0, len(ds))
	for _, d := range ds {
		if !d.Uniform {
			nd := d
			nd.Dirs = deps.TransformDirs(t, d.Dirs)
			out = append(out, nd)
			continue
		}
		nd := d
		nd.Distance = t.MulVec(d.Distance)
		nd.Dirs = make([]deps.Dir, len(nd.Distance))
		for i, x := range nd.Distance {
			switch {
			case x > 0:
				nd.Dirs[i] = deps.Pos
			case x < 0:
				nd.Dirs[i] = deps.Neg
			default:
				nd.Dirs[i] = deps.Zero
			}
		}
		out = append(out, nd)
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
	// Tile counts along level 0 for block partitioning.
	nt0 := ceilDiv(s.Spec.Hi[0]-s.Spec.Lo[0]+1, s.Spec.Sizes[0])
	t0from, t0to := blockRange(nt0, int64(part), int64(parts))
	last0 := min(s.Spec.Lo[0]+t0to*s.Spec.Sizes[0]-1, s.Spec.Hi[0])
	origin := append([]int64(nil), s.Spec.Lo...)
	origin[0] += t0from * s.Spec.Sizes[0]
	for ok := origin[0] <= last0; ok; ok = s.nextOrigin(origin, last0) {
		if err := x.tile(origin); err != nil {
			return x.stats, err
		}
	}
	return x.stats, nil
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
// list and the statement loop's scratch.
type executor struct {
	s     *Schedule
	d     *ooc.Disk
	mem   *ooc.Memory
	stats ExecStats

	tLo, tHi   []int64 // this tile's iteration box
	iv, origIv []int64
	in         []float64 // statement inputs; a StmtFunc may not keep its slice
	reqs       []ooc.TileReq
	reqGroup   []int // group of each of reqs
	handles    []*ooc.Handle

	// Per group: its tile (nil when its footprint is empty), its
	// footprint box (refilled in place: the engine copies the boxes it
	// keeps), and lin[g*k+l] = Σ_d m[d][l]·tileStride_d, the change in
	// tile offset per unit step of level l.
	tiles []*ooc.Tile
	boxes []layout.Box
	lin   []int64
	// Per reference: its tile's data, its tile offset at iv = 0, at the
	// current point, and per innermost step.
	data            [][]float64
	base, pos, step []int64
	proven          bool // every reference provably stays inside its tile over the tile box
}

// newExecutor sizes an executor's tables for the schedule.
func (s *Schedule) newExecutor(d *ooc.Disk, mem *ooc.Memory) *executor {
	k, ng, nr := s.Spec.Depth(), len(s.groups), len(s.refs)
	x := &executor{s: s, d: d, mem: mem,
		tLo: make([]int64, k), tHi: make([]int64, k),
		iv: make([]int64, k), origIv: make([]int64, k),
		tiles: make([]*ooc.Tile, ng), boxes: make([]layout.Box, ng), lin: make([]int64, ng*k),
		data: make([][]float64, nr), base: make([]int64, nr), pos: make([]int64, nr), step: make([]int64, nr)}
	for gi, g := range s.groups {
		x.boxes[gi] = newBox(g.arr.Rank())
	}
	return x
}

// newBox returns a rank-r box whose Lo and Hi share one allocation.
func newBox(r int) layout.Box {
	buf := make([]int64, 2*r)
	return layout.Box{Lo: buf[:r:r], Hi: buf[r:]}
}

// tile processes the tile at origin.
func (x *executor) tile(origin []int64) error {
	s := x.s
	s.tileBounds(origin, x.tLo, x.tHi)
	// Dry runs need the exact count; executing needs only "non-empty?".
	iters := s.countWithin(0, x.tLo, x.tHi, x.iv, !s.dryRun)
	if iters == 0 {
		return nil
	}
	x.reqs, x.reqGroup = x.reqs[:0], x.reqGroup[:0]
	for gi, g := range s.groups {
		x.tiles[gi] = nil
		if g.footprintBox(x.boxes[gi], x.tLo, x.tHi); x.boxes[gi].Empty() {
			continue
		}
		arr := x.d.ArrayOf(g.arr)
		if arr == nil {
			return fmt.Errorf("codegen: array %s not on disk", g.arr.Name)
		}
		x.reqs = append(x.reqs, ooc.TileReq{Arr: arr, Box: x.boxes[gi]})
		x.reqGroup = append(x.reqGroup, gi)
	}
	switch {
	case s.engine == nil:
		return x.memoryTile(iters)
	case s.dryRun:
		// Cached dry run: the engine's tile cache decides which touches
		// reach the backend accounting; the memory budget is replaced by
		// the cache's tile-count capacity.
		x.stats.Iterations += iters
		x.stats.Tiles++
		for i, r := range x.reqs {
			if err := s.engine.Touch(r.Arr, r.Box, x.written(i)); err != nil {
				return err
			}
		}
		return nil
	}
	return x.engineTile()
}

// written reports whether request req's group is written by the nest.
func (x *executor) written(req int) bool { return x.s.writes[x.s.groups[x.reqGroup[req]].arr] }

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
		switch {
		case !x.s.dryRun:
			if x.tiles[x.reqGroup[i]], err = r.Arr.ReadTile(r.Box); err != nil {
				return err
			}
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
			if err := x.tiles[x.reqGroup[i]].WriteTile(); err != nil {
				return err
			}
		}
	}
	return nil
}

// engineTile acquires the group footprints from the engine's cache,
// executes, and releases with dirty marking so write-back happens on
// eviction or flush.
func (x *executor) engineTile() error {
	s := x.s
	handles, err := s.engine.AcquireAll(x.handles[:0], x.reqs)
	if err != nil {
		return err
	}
	x.handles = handles
	for i, h := range handles {
		x.tiles[x.reqGroup[i]] = h.Tile()
	}
	x.compute()
	for i, h := range handles {
		s.engine.Release(h, x.written(i))
	}
	return nil
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
		lin, box := x.lin[gi*k:gi*k+k], x.boxes[gi]
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
		g, box := s.groups[r.group], x.boxes[r.group]
		x.data[ri] = nil
		if t := x.tiles[r.group]; t != nil {
			x.data[ri] = t.Data()
		}
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
		g, box := x.s.groups[r.group], x.boxes[r.group]
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
