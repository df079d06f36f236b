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
	// Engine, when non-nil, routes tile I/O through the concurrent tile
	// engine: group tiles are acquired from its LRU cache (fetched in
	// parallel on a miss), released with write-back dirty tracking, and
	// the next tile's footprints are prefetched while the current tile
	// computes. The engine's tile-count capacity replaces the Memory
	// budget, which is not consulted on this path. The caller owns the
	// engine: Flush/Close it before reading results or I/O stats so
	// dirty cached tiles reach the backend.
	Engine *ooc.Engine
	// Obs, when it carries a trace, emits one KindCompute span per
	// executed tile (the statement-iteration work between I/O bursts) —
	// the counterpart to the engine's fetch/prefetch spans that makes
	// the compute/I/O overlap visible in the exported timeline. Dry
	// runs execute no compute and emit nothing.
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
	groups    []*refGroup
	writes    map[*ir.Array]bool
}

// refGroup is one (array, access matrix) tile group.
type refGroup struct {
	arr  *ir.Array
	m    *matrix.Int // composite access L·Q
	offs [][]int64   // offsets of the member references
}

// schedStmt binds each statement reference to its group.
type schedStmt struct {
	st       *ir.Stmt
	outGroup int
	outOff   []int64
	inGroup  []int
	inOff    [][]int64
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
	for _, st := range n.Body {
		ss := schedStmt{st: st, outGroup: groupOf(st.Out), outOff: st.Out.Off}
		s.writes[st.Out.Array] = true
		for _, r := range st.In {
			ss.inGroup = append(ss.inGroup, groupOf(r))
			ss.inOff = append(ss.inOff, r.Off)
		}
		s.stmts = append(s.stmts, ss)
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
// communication-free parallelization.
func (s *Schedule) ExecuteSlice(d *ooc.Disk, mem *ooc.Memory, part, parts int) (ExecStats, error) {
	if parts < 1 || part < 0 || part >= parts {
		return ExecStats{}, fmt.Errorf("codegen: bad partition %d/%d", part, parts)
	}
	var stats ExecStats
	if !s.bounds.Feasible() {
		return stats, nil
	}
	k := s.Spec.Depth()
	// Tile counts along level 0 for block partitioning.
	nt0 := ceilDiv(s.Spec.Hi[0]-s.Spec.Lo[0]+1, s.Spec.Sizes[0])
	t0from, t0to := blockRange(nt0, int64(part), int64(parts))

	if s.engine != nil && !s.dryRun {
		err := s.executeSliceEngine(d, t0from, t0to, &stats)
		return stats, err
	}
	origin := make([]int64, k)
	var rec func(lvl int) error
	rec = func(lvl int) error {
		if lvl == k {
			return s.runTile(d, mem, origin, &stats)
		}
		from, to := s.Spec.Lo[lvl], s.Spec.Hi[lvl]
		step := s.Spec.Sizes[lvl]
		if lvl == 0 {
			from = s.Spec.Lo[0] + t0from*step
			to = s.Spec.Lo[0] + t0to*step - 1
			if to > s.Spec.Hi[0] {
				to = s.Spec.Hi[0]
			}
		}
		for o := from; o <= to; o += step {
			origin[lvl] = o
			if err := rec(lvl + 1); err != nil {
				return err
			}
		}
		return nil
	}
	err := rec(0)
	return stats, err
}

// executeSliceEngine runs the partition's tiles through the concurrent
// tile engine: the tile origins are materialized up front so that while
// tile i computes, tile i+1's read footprints are already being
// prefetched — the PASSION double-buffering pattern.
func (s *Schedule) executeSliceEngine(d *ooc.Disk, t0from, t0to int64, stats *ExecStats) error {
	k := s.Spec.Depth()
	var origins [][]int64
	origin := make([]int64, k)
	var rec func(lvl int)
	rec = func(lvl int) {
		if lvl == k {
			origins = append(origins, append([]int64(nil), origin...))
			return
		}
		from, to := s.Spec.Lo[lvl], s.Spec.Hi[lvl]
		step := s.Spec.Sizes[lvl]
		if lvl == 0 {
			from = s.Spec.Lo[0] + t0from*step
			to = s.Spec.Lo[0] + t0to*step - 1
			if to > s.Spec.Hi[0] {
				to = s.Spec.Hi[0]
			}
		}
		for o := from; o <= to; o += step {
			origin[lvl] = o
			rec(lvl + 1)
		}
	}
	rec(0)
	for i, org := range origins {
		var next []int64
		if i+1 < len(origins) {
			next = origins[i+1]
		}
		if err := s.runEngineTile(d, org, next, stats); err != nil {
			return err
		}
	}
	return nil
}

// tileBounds returns the inclusive iteration-space bounds of the tile
// at origin, clipped to the spec.
func (s *Schedule) tileBounds(origin []int64) (tLo, tHi []int64) {
	k := s.Spec.Depth()
	tLo = make([]int64, k)
	tHi = make([]int64, k)
	for lvl := 0; lvl < k; lvl++ {
		tLo[lvl] = origin[lvl]
		tHi[lvl] = origin[lvl] + s.Spec.Sizes[lvl] - 1
		if tHi[lvl] > s.Spec.Hi[lvl] {
			tHi[lvl] = s.Spec.Hi[lvl]
		}
	}
	return tLo, tHi
}

// runTile processes one tile: read group footprints, execute
// iterations, write back.
func (s *Schedule) runTile(d *ooc.Disk, mem *ooc.Memory, origin []int64, stats *ExecStats) error {
	k := s.Spec.Depth()
	tLo, tHi := s.tileBounds(origin)
	if s.dryRun {
		return s.dryRunTile(d, mem, tLo, tHi, stats)
	}
	tiles := make([]*ooc.Tile, len(s.groups))
	var allocated int64
	var tileErr error
	loaded := false
	ensureTiles := func() bool {
		if loaded || tileErr != nil {
			return tileErr == nil
		}
		loaded = true
		for gi, g := range s.groups {
			box := g.footprintBox(tLo, tHi)
			if box.Empty() {
				continue
			}
			if err := mem.Alloc(box.Size()); err != nil {
				tileErr = err
				return false
			}
			allocated += box.Size()
			arr := d.ArrayOf(g.arr)
			if arr == nil {
				tileErr = fmt.Errorf("codegen: array %s not on disk", g.arr.Name)
				return false
			}
			tile, err := arr.ReadTile(box)
			if err != nil {
				tileErr = err
				return false
			}
			tiles[gi] = tile
		}
		return true
	}

	iterated := false
	origIv := make([]int64, k)
	coord := make([]int64, 0, 8)
	var in []float64 // statement inputs, reused: a StmtFunc may not keep its slice
	t0 := s.computeStart()
	s.enumerateWithin(tLo, tHi, func(iv []int64) {
		if tileErr != nil {
			return
		}
		if !ensureTiles() {
			return
		}
		iterated = true
		stats.Iterations++
		// Original iteration vector for guards and statement functions.
		for r := 0; r < k; r++ {
			var acc int64
			for c := 0; c < k; c++ {
				acc += s.Plan.Q.At(r, c) * iv[c]
			}
			origIv[r] = acc
		}
		for _, ss := range s.stmts {
			if !ss.st.Guarded(origIv) {
				continue
			}
			in = in[:0]
			for i, gi := range ss.inGroup {
				coord = elementCoord(coord[:0], s.groups[gi].m, ss.inOff[i], iv)
				in = append(in, tiles[gi].Get(coord))
			}
			v := ss.st.F(in, origIv)
			coord = elementCoord(coord[:0], s.groups[ss.outGroup].m, ss.outOff, iv)
			tiles[ss.outGroup].Set(coord, v)
		}
	})
	s.computeEnd(t0)
	if tileErr != nil {
		return tileErr
	}
	if iterated {
		stats.Tiles++
		for gi, g := range s.groups {
			if s.writes[g.arr] && tiles[gi] != nil {
				if err := tiles[gi].WriteTile(); err != nil {
					return err
				}
			}
		}
	}
	mem.Release(allocated)
	return nil
}

// runEngineTile processes one tile through the concurrent engine:
// acquire the group footprints from the cache (parallel fetch on
// misses), kick off prefetches for the next tile's read-only
// footprints, execute the iterations, and release with dirty marking so
// write-back happens on eviction or flush.
func (s *Schedule) runEngineTile(d *ooc.Disk, origin, next []int64, stats *ExecStats) error {
	k := s.Spec.Depth()
	tLo, tHi := s.tileBounds(origin)
	if s.countWithin(tLo, tHi) == 0 {
		return nil
	}
	var reqs []ooc.TileReq
	var reqGroup []int
	tiles := make([]*ooc.Tile, len(s.groups))
	for gi, g := range s.groups {
		box := g.footprintBox(tLo, tHi)
		if box.Empty() {
			continue
		}
		arr := d.ArrayOf(g.arr)
		if arr == nil {
			return fmt.Errorf("codegen: array %s not on disk", g.arr.Name)
		}
		reqs = append(reqs, ooc.TileReq{Arr: arr, Box: box})
		reqGroup = append(reqGroup, gi)
	}
	handles, err := s.engine.AcquireAll(reqs)
	if err != nil {
		return err
	}
	for i, h := range handles {
		tiles[reqGroup[i]] = h.Tile()
	}
	// Double buffering: while this tile computes, the workers read the
	// next tile's footprints. Written arrays are excluded — their boxes
	// may be dirtied by this tile's release, which would force the
	// prefetched copy to be discarded and re-read (extra I/O the
	// sequential runtime never pays). The same economics gate the whole
	// batch on cache capacity: unless the cache can hold this tile's
	// pinned working set plus the prefetched tiles, prefetching evicts
	// tiles before they are used and inflates the call count instead of
	// hiding it.
	if next != nil {
		nLo, nHi := s.tileBounds(next)
		if s.countWithin(nLo, nHi) > 0 {
			var pre []ooc.TileReq
			for _, g := range s.groups {
				if s.writes[g.arr] {
					continue
				}
				box := g.footprintBox(nLo, nHi)
				if box.Empty() {
					continue
				}
				if arr := d.ArrayOf(g.arr); arr != nil {
					pre = append(pre, ooc.TileReq{Arr: arr, Box: box})
				}
			}
			if s.engine.Capacity() >= len(reqs)+len(pre) {
				for _, p := range pre {
					s.engine.Prefetch(p.Arr, p.Box)
				}
			}
		}
	}
	stats.Tiles++
	origIv := make([]int64, k)
	coord := make([]int64, 0, 8)
	var in []float64 // statement inputs, reused: a StmtFunc may not keep its slice
	t0 := s.computeStart()
	s.enumerateWithin(tLo, tHi, func(iv []int64) {
		stats.Iterations++
		for r := 0; r < k; r++ {
			var acc int64
			for c := 0; c < k; c++ {
				acc += s.Plan.Q.At(r, c) * iv[c]
			}
			origIv[r] = acc
		}
		for _, ss := range s.stmts {
			if !ss.st.Guarded(origIv) {
				continue
			}
			in = in[:0]
			for i, gi := range ss.inGroup {
				coord = elementCoord(coord[:0], s.groups[gi].m, ss.inOff[i], iv)
				in = append(in, tiles[gi].Get(coord))
			}
			v := ss.st.F(in, origIv)
			coord = elementCoord(coord[:0], s.groups[ss.outGroup].m, ss.outOff, iv)
			tiles[ss.outGroup].Set(coord, v)
		}
	})
	s.computeEnd(t0)
	for i, h := range handles {
		s.engine.Release(h, s.writes[s.groups[reqGroup[i]].arr])
	}
	return nil
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

// dryRunTile accounts one tile's I/O and iteration count without
// touching data.
func (s *Schedule) dryRunTile(d *ooc.Disk, mem *ooc.Memory, tLo, tHi []int64, stats *ExecStats) error {
	iters := s.countWithin(tLo, tHi)
	if iters == 0 {
		return nil
	}
	stats.Iterations += iters
	stats.Tiles++
	if s.engine != nil {
		// Cached dry run: the engine's tile cache decides which touches
		// reach the backend accounting; the memory budget is replaced by
		// the cache's tile-count capacity.
		for _, g := range s.groups {
			box := g.footprintBox(tLo, tHi)
			if box.Empty() {
				continue
			}
			arr := d.ArrayOf(g.arr)
			if arr == nil {
				return fmt.Errorf("codegen: array %s not on disk", g.arr.Name)
			}
			s.engine.Touch(arr, box, s.writes[g.arr])
		}
		return nil
	}
	var allocated int64
	for _, g := range s.groups {
		box := g.footprintBox(tLo, tHi)
		if box.Empty() {
			continue
		}
		if err := mem.Alloc(box.Size()); err != nil {
			return err
		}
		allocated += box.Size()
		arr := d.ArrayOf(g.arr)
		if arr == nil {
			return fmt.Errorf("codegen: array %s not on disk", g.arr.Name)
		}
		arr.TouchRead(box)
		if s.writes[g.arr] {
			arr.TouchWrite(box)
		}
	}
	mem.Release(allocated)
	return nil
}

// countWithin counts the integer points of the transformed space
// restricted to the tile box without visiting them individually: the
// innermost level contributes its range length directly, which makes
// dry runs cost O(points / innermost-extent).
func (s *Schedule) countWithin(tLo, tHi []int64) int64 {
	k := s.Spec.Depth()
	iv := make([]int64, k)
	var rec func(lvl int) int64
	rec = func(lvl int) int64 {
		lo, hi, empty := s.bounds.Range(lvl, iv[:lvl])
		if empty {
			return 0
		}
		if lo < tLo[lvl] {
			lo = tLo[lvl]
		}
		if hi > tHi[lvl] {
			hi = tHi[lvl]
		}
		if hi < lo {
			return 0
		}
		if lvl == k-1 {
			return hi - lo + 1
		}
		var n int64
		for v := lo; v <= hi; v++ {
			iv[lvl] = v
			n += rec(lvl + 1)
		}
		return n
	}
	return rec(0)
}

// enumerateWithin visits the integer points of the transformed space
// restricted to the tile box, in lexicographic order.
func (s *Schedule) enumerateWithin(tLo, tHi []int64, visit func(iv []int64)) {
	k := s.Spec.Depth()
	iv := make([]int64, k)
	var rec func(lvl int)
	rec = func(lvl int) {
		if lvl == k {
			visit(iv)
			return
		}
		lo, hi, empty := s.bounds.Range(lvl, iv[:lvl])
		if empty {
			return
		}
		if lo < tLo[lvl] {
			lo = tLo[lvl]
		}
		if hi > tHi[lvl] {
			hi = tHi[lvl]
		}
		for v := lo; v <= hi; v++ {
			iv[lvl] = v
			rec(lvl + 1)
		}
	}
	rec(0)
}

// footprintBox returns the clipped bounding box of the group's accesses
// over the tile iteration box [tLo, tHi] (inclusive). Exact for the
// group because all members share the access matrix.
func (g *refGroup) footprintBox(tLo, tHi []int64) layout.Box {
	rank := g.arr.Rank()
	lo := make([]int64, rank)
	hi := make([]int64, rank)
	for d := 0; d < rank; d++ {
		mn, mx := int64(0), int64(0)
		for j := 0; j < g.m.Cols(); j++ {
			c := g.m.At(d, j)
			if c > 0 {
				mn += c * tLo[j]
				mx += c * tHi[j]
			} else {
				mn += c * tHi[j]
				mx += c * tLo[j]
			}
		}
		offLo, offHi := g.offs[0][d], g.offs[0][d]
		for _, off := range g.offs[1:] {
			if off[d] < offLo {
				offLo = off[d]
			}
			if off[d] > offHi {
				offHi = off[d]
			}
		}
		lo[d] = mn + offLo
		hi[d] = mx + offHi + 1 // half-open
	}
	return layout.NewBox(lo, hi).Clip(g.arr.Dims)
}

func elementCoord(dst []int64, m *matrix.Int, off []int64, iv []int64) []int64 {
	for r := 0; r < m.Rows(); r++ {
		var acc int64
		for c := 0; c < m.Cols(); c++ {
			acc += m.At(r, c) * iv[c]
		}
		dst = append(dst, acc+off[r])
	}
	return dst
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// blockRange splits n items into `parts` blocks and returns the
// half-open item range of block `part`.
func blockRange(n, part, parts int64) (from, to int64) {
	base := n / parts
	rem := n % parts
	from = part*base + minI64(part, rem)
	to = from + base
	if part < rem {
		to++
	}
	return from, to
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
