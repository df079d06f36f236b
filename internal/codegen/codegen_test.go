package codegen

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"outcore/internal/core"
	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/matrix"
	"outcore/internal/ooc"
	"outcore/internal/tiling"
)

// motivating builds the paper's two-nest fragment.
func motivating(n int64) *ir.Program {
	u, v, w := ir.NewArray("U", n, n), ir.NewArray("V", n, n), ir.NewArray("W", n, n)
	return &ir.Program{
		Name:   "motivating",
		Arrays: []*ir.Array{u, v, w},
		Nests: []*ir.Nest{
			{ID: 0, Loops: ir.Rect(n, n), Body: []*ir.Stmt{
				ir.Assign(ir.RefIdx(u, 2, 0, 1), []ir.Ref{ir.RefIdx(v, 2, 1, 0)}, "", ir.AddConst(1)),
			}},
			{ID: 1, Loops: ir.Rect(n, n), Body: []*ir.Stmt{
				ir.Assign(ir.RefIdx(v, 2, 0, 1), []ir.Ref{ir.RefIdx(w, 2, 1, 0)}, "", ir.AddConst(2)),
			}},
		},
	}
}

func seedStore(p *ir.Program, seed int64) *ir.Store {
	s := ir.NewStore(p.Arrays...)
	rng := rand.New(rand.NewSource(seed))
	for _, a := range p.Arrays {
		data := s.Data(a)
		for i := range data {
			data[i] = rng.Float64()
		}
	}
	return s
}

// matmul builds C += A*B as a depth-3 nest.
func matmul(n int64) *ir.Program {
	a, b, c := ir.NewArray("A", n, n), ir.NewArray("B", n, n), ir.NewArray("C", n, n)
	return &ir.Program{
		Name:   "matmul",
		Arrays: []*ir.Array{a, b, c},
		Nests: []*ir.Nest{
			{ID: 0, Loops: ir.Rect(n, n, n), Body: []*ir.Stmt{
				ir.Assign(ir.RefIdx(c, 3, 0, 1),
					[]ir.Ref{ir.RefIdx(c, 3, 0, 1), ir.RefIdx(a, 3, 0, 2), ir.RefIdx(b, 3, 2, 1)},
					"muladd", ir.MulAdd()),
			}},
		},
	}
}

func allPlans(p *ir.Program) map[string]*core.Plan {
	var o core.Optimizer
	return map[string]*core.Plan{
		"col":   core.FixedLayouts(p, func(d []int64) *layout.Layout { return layout.ColMajor(d...) }),
		"row":   core.FixedLayouts(p, func(d []int64) *layout.Layout { return layout.RowMajor(d...) }),
		"l-opt": o.OptimizeLoopOnly(p),
		"d-opt": o.OptimizeDataOnly(p),
		"c-opt": o.OptimizeCombined(p),
	}
}

func TestSemanticsAllPlansAllStrategies(t *testing.T) {
	for _, mk := range []struct {
		name string
		prog *ir.Program
	}{
		{"motivating", motivating(24)},
		{"matmul", matmul(12)},
	} {
		init := seedStore(mk.prog, 42)
		for name, plan := range allPlans(mk.prog) {
			for _, strat := range []tiling.Strategy{tiling.Traditional, tiling.OutOfCore} {
				memBudget := int64(0)
				for _, a := range mk.prog.Arrays {
					memBudget += a.Len()
				}
				memBudget /= 4
				diff, err := Verify(mk.prog, plan, Options{Strategy: strat, MemBudget: memBudget}, 64, init)
				if err != nil {
					t.Errorf("%s/%s/%s: %v", mk.prog.Name, name, strat, err)
					continue
				}
				if diff != 0 {
					t.Errorf("%s/%s/%s: result differs by %g", mk.prog.Name, name, strat, diff)
				}
				_ = mk
			}
		}
	}
}

// TestFigure3OOCBeatsTraditional verifies the paper's Figure 3 claim at
// system level: with the c-opt plan, out-of-core tiling issues fewer
// I/O calls than traditional tiling for the same memory budget.
func TestFigure3OOCBeatsTraditional(t *testing.T) {
	p := motivating(32)
	var o core.Optimizer
	plan := o.OptimizeCombined(p)
	init := seedStore(p, 7)
	memBudget := int64(32 * 32) // enough for a band but not whole arrays

	calls := map[tiling.Strategy]int64{}
	for _, strat := range []tiling.Strategy{tiling.Traditional, tiling.OutOfCore} {
		d, err := SetupDisk(p, plan, 64, init)
		if err != nil {
			t.Fatal(err)
		}
		mem := ooc.NewMemory(memBudget)
		if _, err := RunProgram(p, plan, d, mem, Options{Strategy: strat, MemBudget: memBudget}); err != nil {
			t.Fatal(err)
		}
		calls[strat] = d.Stats.Calls()
	}
	if calls[tiling.OutOfCore] >= calls[tiling.Traditional] {
		t.Errorf("OOC tiling %d calls >= traditional %d", calls[tiling.OutOfCore], calls[tiling.Traditional])
	}
}

func TestMemoryBudgetRespected(t *testing.T) {
	p := motivating(32)
	var o core.Optimizer
	plan := o.OptimizeCombined(p)
	init := seedStore(p, 9)
	budget := int64(256)
	d, err := SetupDisk(p, plan, 0, init)
	if err != nil {
		t.Fatal(err)
	}
	mem := ooc.NewMemory(budget)
	if _, err := RunProgram(p, plan, d, mem, Options{Strategy: tiling.OutOfCore, MemBudget: budget}); err != nil {
		t.Fatal(err)
	}
	if mem.Peak() > budget {
		t.Errorf("peak memory %d exceeds budget %d", mem.Peak(), budget)
	}
	if mem.Used() != 0 {
		t.Errorf("leaked memory: %d", mem.Used())
	}
}

func TestPartitionedExecutionMatchesSerial(t *testing.T) {
	p := motivating(24)
	var o core.Optimizer
	plan := o.OptimizeCombined(p)
	init := seedStore(p, 11)

	// Serial reference.
	ref := init.Clone()
	p.Execute(ref)

	// 4-way partitioned: run each part against the SAME disk (the
	// partitions touch disjoint output regions, like the paper's
	// communication-free parallelization).
	d, err := SetupDisk(p, plan, 64, init)
	if err != nil {
		t.Fatal(err)
	}
	const parts = 4
	for _, n := range p.Nests {
		sched, err := Build(n, plan.Nests[n], Options{Strategy: tiling.OutOfCore, MemBudget: 24 * 24})
		if err != nil {
			t.Fatal(err)
		}
		for part := 0; part < parts; part++ {
			mem := ooc.NewMemory(24 * 24)
			if _, err := sched.ExecuteSlice(d, mem, part, parts); err != nil {
				t.Fatal(err)
			}
		}
	}
	got := DiskToStore(p, d)
	for _, a := range p.Arrays {
		if diff := ir.MaxAbsDiff(ref, got, a); diff != 0 {
			t.Errorf("array %s differs by %g after partitioned run", a.Name, diff)
		}
	}
}

func TestPartitionSlicesDisjointAndComplete(t *testing.T) {
	p := motivating(20)
	var o core.Optimizer
	plan := o.OptimizeCombined(p)
	n := p.Nests[0]
	sched, err := Build(n, plan.Nests[n], Options{Strategy: tiling.OutOfCore, MemBudget: 20 * 20})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for part := 0; part < 3; part++ {
		d, _ := SetupDisk(p, plan, 0, nil)
		mem := ooc.NewMemory(0)
		st, err := sched.ExecuteSlice(d, mem, part, 3)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Iterations
	}
	if total != n.Iterations() {
		t.Errorf("slices cover %d iterations, nest has %d", total, n.Iterations())
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	p := motivating(8)
	var o core.Optimizer
	plan := o.OptimizeCombined(p)
	if _, err := Build(p.Nests[0], nil, Options{}); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := Build(p.Nests[0], plan.Nests[p.Nests[1]], Options{}); err == nil {
		t.Error("mismatched plan accepted")
	}
	// Impossible memory budget for OOC tiling: without fallback it must
	// error; with fallback it degrades to traditional tiling.
	if _, err := Build(p.Nests[0], plan.Nests[p.Nests[0]], Options{Strategy: tiling.OutOfCore, MemBudget: 3, NoFallback: true}); err == nil {
		t.Error("infeasible budget accepted with NoFallback")
	}
	if sched, err := Build(p.Nests[0], plan.Nests[p.Nests[0]], Options{Strategy: tiling.OutOfCore, MemBudget: 3}); err != nil {
		t.Errorf("fallback failed: %v", err)
	} else if sched.Spec.Strategy != tiling.Traditional {
		t.Errorf("fallback strategy = %s", sched.Spec.Strategy)
	}
	// A budget below even traditional B=1 stays an error.
	if _, err := Build(p.Nests[0], plan.Nests[p.Nests[0]], Options{Strategy: tiling.OutOfCore, MemBudget: 1}); err == nil {
		t.Error("hopeless budget accepted")
	}
	sched, err := Build(p.Nests[0], plan.Nests[p.Nests[0]], Options{Strategy: tiling.OutOfCore, MemBudget: 64})
	if err != nil {
		t.Fatal(err)
	}
	d, _ := SetupDisk(p, plan, 0, nil)
	if _, err := sched.ExecuteSlice(d, ooc.NewMemory(64), 5, 2); err == nil {
		t.Error("bad partition accepted")
	}
}

func TestTransformedNestWithGuards(t *testing.T) {
	// A guarded statement (from code sinking) must execute exactly once
	// per original guard-satisfying iteration even under transformation
	// and tiling.
	const n = 10
	a := ir.NewArray("A", n)
	b := ir.NewArray("B", n, n)
	nest := &ir.Nest{ID: 0, Loops: ir.Rect(n, n), Body: []*ir.Stmt{
		{
			Out:   ir.RefIdx(a, 2, 0),
			F:     func(_ []float64, iv []int64) float64 { return float64(iv[0]) },
			Guard: []ir.GuardEq{{Level: 1, Value: 0}},
		},
		ir.Assign(ir.RefIdx(b, 2, 0, 1), []ir.Ref{ir.RefIdx(a, 2, 0)}, "", ir.AddConst(5)),
	}}
	p := &ir.Program{Name: "guards", Arrays: []*ir.Array{a, b}, Nests: []*ir.Nest{nest}}
	var o core.Optimizer
	plan := o.OptimizeCombined(p)
	init := ir.NewStore(a, b)
	diff, err := Verify(p, plan, Options{Strategy: tiling.OutOfCore, MemBudget: 4 * n * n}, 16, init)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Errorf("guarded nest differs by %g", diff)
	}
}

func TestStencilDependenceTilingLegality(t *testing.T) {
	// Stencil A(i,j) = A(i-1,j) + A(i,j-1): forward deps; tiling legal.
	const n = 12
	a := ir.NewArray("A", n+1, n+1)
	out := ir.RefAffine(a, [][]int64{{1, 0}, {0, 1}}, []int64{1, 1})
	in1 := ir.RefAffine(a, [][]int64{{1, 0}, {0, 1}}, []int64{0, 1})
	in2 := ir.RefAffine(a, [][]int64{{1, 0}, {0, 1}}, []int64{1, 0})
	nest := &ir.Nest{ID: 0, Loops: ir.Rect(n, n), Body: []*ir.Stmt{
		ir.Assign(out, []ir.Ref{in1, in2}, "", ir.Sum()),
	}}
	p := &ir.Program{Name: "stencil", Arrays: []*ir.Array{a}, Nests: []*ir.Nest{nest}}
	var o core.Optimizer
	plan := o.OptimizeCombined(p)
	init := seedStore(p, 5)
	diff, err := Verify(p, plan, Options{Strategy: tiling.OutOfCore, MemBudget: (n + 1) * (n + 1)}, 8, init)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Errorf("stencil differs by %g", diff)
	}
}

func TestScheduleString(t *testing.T) {
	p := motivating(16)
	var o core.Optimizer
	plan := o.OptimizeCombined(p)
	sched, err := Build(p.Nests[1], plan.Nests[p.Nests[1]], Options{Strategy: tiling.OutOfCore, MemBudget: 64})
	if err != nil {
		t.Fatal(err)
	}
	out := sched.String()
	for _, want := range []string{"loop transformation", "read data tiles", "write data tiles", "end do", "do IT ="} {
		if !strings.Contains(out, want) {
			t.Errorf("schedule listing missing %q:\n%s", want, out)
		}
	}
	// The innermost element loop must be untiled (full range), per
	// Section 3.3.
	if !strings.Contains(out, "do J' = 0, 15") {
		t.Errorf("innermost loop not rendered full-range:\n%s", out)
	}
}

// TestDryRunAccountingMatchesRealExecution pins the measurement mode to
// the executable truth: identical I/O calls, bytes and iteration counts.
func TestDryRunAccountingMatchesRealExecution(t *testing.T) {
	for _, progMk := range []func() *ir.Program{
		func() *ir.Program { return motivating(20) },
		func() *ir.Program { return matmul(10) },
	} {
		p := progMk()
		var o core.Optimizer
		plan := o.OptimizeCombined(p)
		budget := int64(0)
		for _, a := range p.Arrays {
			budget += a.Len()
		}
		budget /= 8
		opts := Options{Strategy: tiling.OutOfCore, MemBudget: budget}

		dReal, err := SetupDisk(p, plan, 64, nil)
		if err != nil {
			t.Fatal(err)
		}
		sReal, err := RunProgram(p, plan, dReal, ooc.NewMemory(budget), opts)
		if err != nil {
			t.Fatal(err)
		}

		optsDry := opts
		optsDry.DryRun = true
		dDry, err := SetupDiskOn(ooc.NewDisk(64).NoBacking(), p, plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		sDry, err := RunProgram(p, plan, dDry, ooc.NewMemory(budget), optsDry)
		if err != nil {
			t.Fatal(err)
		}

		if dReal.Stats != dDry.Stats {
			t.Errorf("%s: stats diverge: real %+v dry %+v", p.Name, dReal.Stats, dDry.Stats)
		}
		if sReal.Iterations != sDry.Iterations || sReal.Tiles != sDry.Tiles {
			t.Errorf("%s: exec stats diverge: real %+v dry %+v", p.Name, sReal, sDry)
		}
	}
}

// TestFileBackedVerification runs a whole program against real files.
func TestFileBackedVerification(t *testing.T) {
	p := motivating(16)
	var o core.Optimizer
	plan := o.OptimizeCombined(p)
	init := seedStore(p, 21)
	ref := init.Clone()
	p.Execute(ref)

	d, err := SetupDiskOn(ooc.NewDisk(64).Dir(t.TempDir()), p, plan, init)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	budget := int64(16 * 16)
	if _, err := RunProgram(p, plan, d, ooc.NewMemory(budget), Options{
		Strategy: tiling.OutOfCore, MemBudget: budget,
	}); err != nil {
		t.Fatal(err)
	}
	got := DiskToStore(p, d)
	for _, a := range p.Arrays {
		if diff := ir.MaxAbsDiff(ref, got, a); diff != 0 {
			t.Errorf("file-backed array %s differs by %g", a.Name, diff)
		}
	}
}

// TestFailedTileReleasesMemory: a tile whose second group cannot get
// its reservation fails the run, and the first group's reservation is
// returned — on the real and the dry-run path alike.
func TestFailedTileReleasesMemory(t *testing.T) {
	p := motivating(32)
	var o core.Optimizer
	plan := o.OptimizeCombined(p)
	for _, dry := range []bool{false, true} {
		d := ooc.NewDisk(64)
		if dry {
			d = d.NoBacking()
		}
		if _, err := SetupDiskOn(d, p, plan, nil); err != nil {
			t.Fatal(err)
		}
		mem := ooc.NewMemory(128)
		_, err := RunProgram(p, plan, d, mem, Options{Strategy: tiling.OutOfCore, MemBudget: 256, DryRun: dry})
		if err == nil || !strings.Contains(err.Error(), "128 + 128 > 128") {
			t.Fatalf("dry=%v: err = %v, want the budget overflow", dry, err)
		}
		if mem.Used() != 0 {
			t.Errorf("dry=%v: %d elements still reserved after the failed tile", dry, mem.Used())
		}
	}
}

// skewed builds B(i,j) = A(i,j) + 1 under a plan that skews the nest
// (j' = i + j): the transformed tile boxes cover points outside the
// original square, so the group footprints are clipped to the arrays
// and the executor cannot prove a tile's accesses in bounds up front.
func skewed(n int64) (*ir.Program, *core.Plan) {
	a, b := ir.NewArray("A", n, n), ir.NewArray("B", n, n)
	p := &ir.Program{Name: "skewed", Arrays: []*ir.Array{a, b}, Nests: []*ir.Nest{
		{ID: 0, Loops: ir.Rect(n, n), Body: []*ir.Stmt{
			ir.Assign(ir.RefIdx(b, 2, 0, 1), []ir.Ref{ir.RefIdx(a, 2, 0, 1)}, "", ir.AddConst(1)),
		}},
	}}
	plan := core.FixedLayouts(p, func(d []int64) *layout.Layout { return layout.RowMajor(d...) })
	np := plan.Nests[p.Nests[0]]
	np.T = matrix.FromRows([][]int64{{1, 0}, {1, 1}})
	np.Q = matrix.FromRows([][]int64{{1, 0}, {-1, 1}})
	np.QLast = []int64{0, 1}
	return p, plan
}

// proofCounts executes a schedule tile by tile and counts the tiles
// whose accesses were proven in bounds once and those checked per row.
func proofCounts(t *testing.T, s *Schedule, d *ooc.Disk, mem *ooc.Memory) (proven, checked int) {
	t.Helper()
	x := s.newExecutor(d, mem)
	origin := append([]int64(nil), s.Spec.Lo...)
	for ok := true; ok; ok = s.nextOrigin(origin, s.Spec.Hi[0]) {
		before := x.stats.Tiles
		if err := x.tile(origin); err != nil {
			t.Fatal(err)
		}
		if x.stats.Tiles > before && x.proven {
			proven++
		} else if x.stats.Tiles > before {
			checked++
		}
	}
	return proven, checked
}

// TestSkewedNestChecksRows: under a skew the per-tile proof fails, the
// per-row endpoint check runs, and the result still matches the in-core
// reference; an unskewed nest is proven on every tile.
func TestSkewedNestChecksRows(t *testing.T) {
	const n = 12
	p, plan := skewed(n)
	opts := Options{Strategy: tiling.OutOfCore, MemBudget: 2 * n * n}
	diff, err := Verify(p, plan, opts, 16, seedStore(p, 3))
	if err != nil || diff != 0 {
		t.Fatalf("skewed nest: diff %g, err %v", diff, err)
	}
	sched, err := Build(p.Nests[0], plan.Nests[p.Nests[0]], opts)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := SetupDisk(p, plan, 16, seedStore(p, 3))
	if _, checked := proofCounts(t, sched, d, ooc.NewMemory(0)); checked == 0 {
		t.Error("no skewed tile fell back to the per-row check")
	}

	m := motivating(16)
	var o core.Optimizer
	mplan := o.OptimizeCombined(m)
	msched, err := Build(m.Nests[0], mplan.Nests[m.Nests[0]], Options{Strategy: tiling.OutOfCore, MemBudget: 64})
	if err != nil {
		t.Fatal(err)
	}
	md, _ := SetupDisk(m, mplan, 16, seedStore(m, 3))
	if proven, checked := proofCounts(t, msched, md, ooc.NewMemory(0)); proven == 0 || checked != 0 {
		t.Errorf("unskewed nest: %d tiles proven, %d checked per row; want all proven", proven, checked)
	}
}

// TestCorruptFootprintPanicsOutsideTile shifts the read group's
// footprint one row past its references after Build: the executor must
// refuse with an "outside tile" panic rather than read the neighbouring
// element, on the Memory and the engine path alike.
func TestCorruptFootprintPanicsOutsideTile(t *testing.T) {
	p := motivating(16)
	var o core.Optimizer
	plan := o.OptimizeCombined(p)
	n := p.Nests[0]
	for _, engine := range []bool{false, true} {
		sched, err := Build(n, plan.Nests[n], Options{Strategy: tiling.OutOfCore, MemBudget: 16 * 16})
		if err != nil {
			t.Fatal(err)
		}
		d, _ := SetupDisk(p, plan, 64, seedStore(p, 3))
		if engine {
			sched.engine = ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 8})
		}
		for _, g := range sched.groups {
			if !g.written {
				// A fresh slice: the references share the original.
				g.offs[0] = []int64{g.offs[0][0] + 1, g.offs[0][1]}
			}
		}
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "outside tile") {
					t.Errorf("engine=%v: recovered %v, want an outside-tile panic", engine, r)
				}
			}()
			_, _ = sched.Execute(d, ooc.NewMemory(0))
		}()
	}
}
