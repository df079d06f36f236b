// Integration test: the paper's whole pipeline in one pass — imperfect
// source trees through normalization, interference components, the
// combined optimizer, tiled code generation, out-of-core execution with
// verification, and finally the parallel-platform measurement.
package outcore_test

import (
	"math/rand"
	"testing"

	"outcore/internal/codegen"
	"outcore/internal/core"
	"outcore/internal/exp"
	"outcore/internal/igraph"
	"outcore/internal/ir"
	"outcore/internal/ooc"
	"outcore/internal/pfs"
	"outcore/internal/restructure"
	"outcore/internal/sim"
	"outcore/internal/suite"
	"outcore/internal/tiling"
)

func TestEndToEndPipeline(t *testing.T) {
	const n = 24
	// Step 0: an imperfect source program (Figure 1 shape).
	u := ir.NewArray("U", n, n)
	v := ir.NewArray("V", n, n)
	w := ir.NewArray("W", n, n)
	x := ir.NewArray("X", n, n)
	y := ir.NewArray("Y", n, n)
	s1 := ir.Assign(ir.RefIdx(u, 2, 0, 1), []ir.Ref{ir.RefIdx(v, 2, 1, 0)}, "", ir.AddConst(1))
	s2 := ir.Assign(ir.RefIdx(w, 2, 0, 1), []ir.Ref{ir.RefIdx(v, 2, 0, 1)}, "", ir.AddConst(2))
	s3 := ir.Assign(ir.RefIdx(x, 2, 0, 1), nil, "", func(_ []float64, iv []int64) float64 { return float64(iv[0] + iv[1]) })
	s4 := ir.Assign(ir.RefIdx(y, 2, 0, 1), []ir.Ref{ir.RefAffine(x, [][]int64{{1, 0}, {0, 0}}, []int64{0, 0})}, "", ir.AddConst(3))
	trees := []*restructure.Node{
		restructure.NewLoop("i", 0, n-1,
			restructure.NewLoop("j", 0, n-1, restructure.NewStmt(s1, 2)),
			restructure.NewLoop("j", 0, n-1, restructure.NewStmt(s2, 2)),
		),
		restructure.NewLoop("i", 0, n-1,
			restructure.NewLoop("j", 0, n-1, restructure.NewStmt(s3, 2)),
			restructure.NewLoop("j", 0, n-1, restructure.NewStmt(s4, 2)),
		),
	}

	// Step 1: normalization.
	nests, err := restructure.Normalize(trees)
	if err != nil {
		t.Fatal(err)
	}
	prog := &ir.Program{Name: "pipeline", Nests: nests}
	seen := map[*ir.Array]bool{}
	for _, nst := range nests {
		for _, a := range nst.Arrays() {
			if !seen[a] {
				seen[a] = true
				prog.Arrays = append(prog.Arrays, a)
			}
		}
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}

	// Step 2: interference components.
	comps := igraph.Build(prog).Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}

	// Step 3: the combined optimizer.
	var opt core.Optimizer
	plan := opt.OptimizeCombined(prog)
	badRefs := 0
	for _, rep := range plan.Report(prog, nil) {
		if rep.Locality == core.NoLocality {
			badRefs++
		}
	}
	// The fused first nest reads V both straight (i,j) and transposed
	// (j,i). The greedy Step-3 order fixes layouts data-only first, so
	// no row/column choice can serve both and one reference loses.
	if badRefs > 1 {
		t.Errorf("greedy left %d references without locality, want <= 1", badRefs)
	}
	// The exact oracle, free to pick layouts and q_last together, finds
	// the skewed solution q_last = (1,-1) with anti-diagonal layouts:
	// movements (1,-1) and (-1,1) both lie in the hyperplane g = (1,1),
	// so EVERY reference gets spatial locality — a solution inside the
	// paper's linear framework that the greedy ordering cannot reach.
	var opt2 core.Optimizer
	optimal := opt2.OptimizeOptimal(prog)
	optBad := 0
	for _, rep := range optimal.Report(prog, nil) {
		if rep.Locality == core.NoLocality {
			optBad++
		}
	}
	if optBad != 0 {
		t.Errorf("exact optimum left %d references without locality, want 0", optBad)
	}

	// Step 4: out-of-core execution + verification.
	init := ir.NewStore(prog.Arrays...)
	rng := rand.New(rand.NewSource(99))
	for _, a := range prog.Arrays {
		d := init.Data(a)
		for i := range d {
			d[i] = rng.Float64()
		}
	}
	budget := suite.MemBudget(prog, 16)
	diff, err := codegen.Verify(prog, plan, codegen.Options{
		Strategy: tiling.OutOfCore, MemBudget: budget,
	}, 128, init)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Fatalf("out-of-core execution differs from reference by %g", diff)
	}

	// Step 5: the versions must order correctly on the platform.
	kernel := suite.Kernel{Name: "pipeline", Iter: 1, Build: func(suite.Config) *ir.Program { return prog }}
	times := map[suite.Version]float64{}
	for _, ver := range []suite.Version{suite.Col, suite.COpt} {
		// Fresh program per version to keep plans independent is not
		// needed here: PlanFor computes from scratch each call.
		m, err := sim.Run(sim.Setup{
			Kernel:  kernel,
			Version: ver,
			Procs:   4,
			MemFrac: 16,
			PFS:     pfs.Config{IONodes: 8, StripeElems: 2 * n, NodeOverhead: 0.006, ProcOverhead: 0.002, NodeBandwidth: 500},
		})
		if err != nil {
			t.Fatal(err)
		}
		times[ver] = m.Seconds
	}
	if times[suite.COpt] > times[suite.Col] {
		t.Errorf("c-opt %.3fs slower than col %.3fs", times[suite.COpt], times[suite.Col])
	}

	// Step 6: the Figure-3 arithmetic stays pinned.
	fig3, err := exp.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if fig3.TraditionalTileCalls != 4 || fig3.OOCTileCalls != 2 {
		t.Errorf("Figure 3 drifted: %+v", fig3)
	}
	_ = ooc.ElemSize // anchor the runtime package in this integration build
}
