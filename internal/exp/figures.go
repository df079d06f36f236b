package exp

import (
	"fmt"
	"strings"

	"outcore/internal/codegen"
	"outcore/internal/core"
	"outcore/internal/igraph"
	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/matrix"
	"outcore/internal/restructure"
	"outcore/internal/sim"
	"outcore/internal/suite"
	"outcore/internal/tiling"
)

// Figure1 reproduces the paper's Figure 1: an imperfect two-tree input
// is normalized (fusion + distribution) and the interference graph
// splits into two connected components.
func Figure1() (string, error) {
	const n = 8
	u := ir.NewArray("U", n, n)
	v := ir.NewArray("V", n, n)
	w := ir.NewArray("W", n, n)
	x := ir.NewArray("X", n, n)
	y := ir.NewArray("Y", n, n)

	s1 := ir.Assign(ir.RefIdx(u, 2, 0, 1), []ir.Ref{ir.RefIdx(v, 2, 0, 1)}, "", ir.AddConst(1))
	s2 := ir.Assign(ir.RefIdx(w, 2, 0, 1), []ir.Ref{ir.RefIdx(v, 2, 0, 1)}, "", ir.AddConst(2))
	tree1 := restructure.NewLoop("i", 0, n-1,
		restructure.NewLoop("j", 0, n-1, restructure.NewStmt(s1, 2)),
		restructure.NewLoop("j", 0, n-1, restructure.NewStmt(s2, 2)),
	)
	s3 := ir.Assign(ir.RefIdx(x, 2, 0, 1), nil, "", func(_ []float64, iv []int64) float64 { return float64(iv[1]) })
	s4 := ir.Assign(ir.RefIdx(y, 2, 0, 1), []ir.Ref{ir.RefAffine(x, [][]int64{{1, 0}, {0, 0}}, []int64{0, 0})}, "", ir.AddConst(1))
	tree2 := restructure.NewLoop("i", 0, n-1,
		restructure.NewLoop("j", 0, n-1, restructure.NewStmt(s3, 2)),
		restructure.NewLoop("j", 0, n-1, restructure.NewStmt(s4, 2)),
	)
	nests, err := restructure.Normalize([]*restructure.Node{tree1, tree2})
	if err != nil {
		return "", err
	}
	p := &ir.Program{Name: "figure1", Nests: nests}
	for _, nst := range nests {
		p.Arrays = append(p.Arrays, nst.Arrays()...)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 1: %d imperfect trees -> %d perfect nests\n\n", 2, len(nests))
	for _, nst := range nests {
		fmt.Fprintf(&b, "nest %d:\n%s\n", nst.ID, nst)
	}
	comps := igraph.Build(p).Components()
	fmt.Fprintf(&b, "interference graph: %d connected components\n", len(comps))
	for ci, c := range comps {
		names := make([]string, len(c.Arrays))
		for i, a := range c.Arrays {
			names[i] = a.Name
		}
		nids := make([]string, len(c.Nests))
		for i, nst := range c.Nests {
			nids[i] = fmt.Sprintf("%d", nst.ID)
		}
		fmt.Fprintf(&b, "  component %d: nests {%s}  arrays {%s}\n", ci, strings.Join(nids, ","), strings.Join(names, ","))
	}
	return b.String(), nil
}

// Figure2 renders the paper's Figure 2: canonical file layouts with
// their hyperplane vectors and the file-offset map of a small array.
func Figure2() string {
	const n = 4
	var b strings.Builder
	b.WriteString("Figure 2: file layouts and their hyperplane vectors (4x4 offsets)\n")
	entries := []struct {
		l *layout.Layout
	}{
		{layout.ColMajor(n, n)},
		{layout.RowMajor(n, n)},
		{layout.Diagonal(n, n)},
		{layout.AntiDiagonal(n, n)},
		{layout.Blocked(n, n, 2, 2)},
	}
	for _, e := range entries {
		g := e.l.Hyperplane()
		if g != nil {
			fmt.Fprintf(&b, "\n%s  g = (%d,%d)\n", e.l.Name(), g[0], g[1])
		} else {
			fmt.Fprintf(&b, "\n%s  (blocked: ordered block by block)\n", e.l.Name())
		}
		for i := int64(0); i < n; i++ {
			for j := int64(0); j < n; j++ {
				fmt.Fprintf(&b, "%4d", e.l.Offset([]int64{i, j}))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Figure3Result reports the I/O calls per data tile under the two
// tiling strategies for the paper's 8x8 / 32-element / 8-element-call
// illustration, plus whole-program counts on the motivating fragment.
type Figure3Result struct {
	TraditionalTileCalls int64 // 4 in the paper
	OOCTileCalls         int64 // 2 in the paper
	ProgramTraditional   int64
	ProgramOOC           int64
}

// Figure3 reproduces the Figure-3 arithmetic and then demonstrates the
// same effect at whole-program scale on the Section-3.1 fragment.
func Figure3() (Figure3Result, error) {
	var res Figure3Result
	// The paper's illustration: column-major V, 8-element calls.
	colV := layout.ColMajor(8, 8)
	calls := func(l *layout.Layout, box layout.Box, cap int64) int64 {
		var c int64
		for _, r := range l.Runs(box) {
			c += (r.Len + cap - 1) / cap
		}
		return c
	}
	res.TraditionalTileCalls = calls(colV, layout.NewBox([]int64{0, 0}, []int64{4, 4}), 8)
	res.OOCTileCalls = calls(colV, layout.NewBox([]int64{0, 0}, []int64{8, 2}), 8)

	// Whole-program: the motivating fragment under the c-opt plan.
	prog := workedExample(64)
	var o core.Optimizer
	plan := o.OptimizeCombined(prog)
	budget := suite.TotalElems(prog) / 32
	for _, c := range []struct {
		strat tiling.Strategy
		calls *int64
	}{{tiling.Traditional, &res.ProgramTraditional}, {tiling.OutOfCore, &res.ProgramOOC}} {
		d, _, err := dryCount(prog, plan, 64, codegen.Options{Strategy: c.strat, MemBudget: budget, NoFallback: true}, false)
		if err != nil {
			return res, err
		}
		*c.calls = d.Stats.Calls()
	}
	return res, nil
}

// Render formats the Figure-3 result.
func (r Figure3Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3: I/O calls per 16-element tile of column-major V (8-elt calls)\n")
	fmt.Fprintf(&b, "  (a) traditional 4x4 tile : %d calls\n", r.TraditionalTileCalls)
	fmt.Fprintf(&b, "  (b) out-of-core 8x2 tile : %d calls\n", r.OOCTileCalls)
	b.WriteString("whole-program (Section 3.1 fragment, c-opt layouts):\n")
	fmt.Fprintf(&b, "  traditional tiling : %d calls\n", r.ProgramTraditional)
	fmt.Fprintf(&b, "  out-of-core tiling : %d calls\n", r.ProgramOOC)
	return b.String()
}

// TilingAblationRow compares strategies per kernel under the c-opt plan.
type TilingAblationRow struct {
	Kernel      string
	Traditional int64
	OutOfCore   int64
}

// TilingRows is the tiling ablation's table.
type TilingRows []TilingAblationRow

// TilingAblation measures I/O calls for the c-opt plan when the tiling
// strategy is flipped: the design choice Section 3.3 motivates.
func TilingAblation(o Options) (TilingRows, error) {
	kernels, err := o.kernels()
	if err != nil {
		return nil, err
	}
	var rows TilingRows
	for _, k := range kernels {
		row := TilingAblationRow{Kernel: k.Name}
		prog := k.Build(o.Cfg)
		plan, err := suite.PlanFor(prog, suite.COpt)
		if err != nil {
			return nil, err
		}
		for _, c := range []struct {
			strat tiling.Strategy
			calls *int64
		}{{tiling.Traditional, &row.Traditional}, {tiling.OutOfCore, &row.OutOfCore}} {
			d, _, err := dryCount(prog, plan, 0, codegen.Options{Strategy: c.strat, MemBudget: suite.MemBudget(prog, o.MemFrac)}, false)
			if err != nil {
				return nil, err
			}
			*c.calls = d.Stats.Calls()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Render formats the tiling ablation for occbench.
func (rows TilingRows) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tiling ablation: I/O calls of the c-opt plan under both strategies\n%-10s %14s %14s\n",
		"program", "traditional", "out-of-core")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %14d %14d\n", r.Kernel, r.Traditional, r.OutOfCore)
	}
	return b.String()
}

// MemorySweepRow is one memory-fraction measurement.
type MemorySweepRow struct {
	Frac    int64
	Seconds float64
	Calls   int64
}

// MemoryRows is one kernel's memory sweep.
type MemoryRows []MemorySweepRow

// MemorySweep measures a kernel's c-opt time as the memory budget
// shrinks (1/32 ... 1/512 of the data), an ablation over the paper's
// fixed 1/128 discipline.
func MemorySweep(o Options, kernel string, fracs []int64) (MemoryRows, error) {
	k, err := kernelNamed(kernel)
	if err != nil {
		return nil, err
	}
	if len(fracs) == 0 {
		fracs = []int64{32, 64, 128, 256, 512}
	}
	var rows MemoryRows
	for _, f := range fracs {
		st := o.setup(k, suite.COpt, o.Procs)
		st.MemFrac = f
		m, err := sim.Run(st)
		if err != nil {
			return nil, err
		}
		rows = append(rows, MemorySweepRow{Frac: f, Seconds: m.Seconds, Calls: m.Calls})
	}
	return rows, nil
}

// Render formats the sweep for occbench, below its title line.
func (rows MemoryRows) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %12s\n", "1/frac", "seconds", "calls")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8d %12.3f %12d\n", r.Frac, r.Seconds, r.Calls)
	}
	return b.String()
}

// OrderAblationResult compares the paper's cost-ordered layout
// propagation against the reversed order.
type OrderAblationResult struct {
	Kernel            string
	CostOrderCalls    int64
	ReverseOrderCalls int64
}

// OrderAblation flips the nest cost order (via a synthetic profile) and
// measures the effect on total I/O calls under the combined algorithm:
// Step 3.a's "optimize the costliest nest first" is the knob.
func OrderAblation(o Options, kernel string) (OrderAblationResult, error) {
	res := OrderAblationResult{Kernel: kernel}
	k, err := kernelNamed(kernel)
	if err != nil {
		return res, err
	}
	for _, c := range []struct {
		reversed bool
		calls    *int64
	}{{false, &res.CostOrderCalls}, {true, &res.ReverseOrderCalls}} {
		prog := k.Build(o.Cfg)
		var opt core.Optimizer
		if c.reversed {
			opt.Profile = map[int]int64{}
			for _, n := range prog.Nests {
				opt.Profile[n.ID] = -core.Cost(n) // invert the order
			}
		}
		d, _, err := dryCount(prog, opt.OptimizeCombined(prog), 0, codegen.Options{
			Strategy: tiling.OutOfCore, MemBudget: suite.MemBudget(prog, o.MemFrac),
		}, false)
		if err != nil {
			return res, err
		}
		*c.calls = d.Stats.Calls()
	}
	return res, nil
}

// Render formats the ablation for occbench.
func (r OrderAblationResult) Render() string {
	return fmt.Sprintf("Nest-order ablation for %s: cost order %d calls, reversed %d calls\n",
		r.Kernel, r.CostOrderCalls, r.ReverseOrderCalls)
}

// StorageDemo renders the Section-3.4 storage-reduction example.
func StorageDemo() string {
	var b strings.Builder
	b.WriteString("Section 3.4: storage reduction for skewed accesses\n")
	cases := []*matrix.Int{
		matrix.FromRows([][]int64{{3, 2}, {2, 0}}),
		matrix.FromRows([][]int64{{2, 1}, {1, 0}}),
		matrix.FromRows([][]int64{{1, 0}, {0, 1}}),
	}
	extents := []int64{1024, 1024}
	for _, m := range cases {
		d, before, after := core.ReduceStorage(m, extents)
		fmt.Fprintf(&b, "access rows %v: box %d -> %d elements", rowsOf(m), before, after)
		if d != nil {
			fmt.Fprintf(&b, "  (shear %v)", rowsOf(d))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func rowsOf(m *matrix.Int) [][]int64 {
	out := make([][]int64, m.Rows())
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}
