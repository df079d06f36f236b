package codegen

import (
	"testing"

	"outcore/internal/deps"
	"outcore/internal/ir"
	"outcore/internal/matrix"
	"outcore/internal/suite"
	"outcore/internal/tiling"
)

// verifyAllPlans runs the program under every version's plan, with
// both tiling strategies at two budgets, and requires the real
// execution to match the in-core one exactly.
func verifyAllPlans(t *testing.T, p *ir.Program) {
	t.Helper()
	init := seedStore(p, 3)
	for _, v := range suite.Versions {
		plan, err := suite.PlanFor(p, v)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []tiling.Strategy{tiling.Traditional, tiling.OutOfCore} {
			for _, frac := range []int64{4, 16} {
				diff, err := Verify(p, plan, Options{Strategy: strat, MemBudget: suite.MemBudget(p, frac)}, 8, init)
				if err != nil {
					t.Logf("%s %s 1/%d: refused: %v", v, strat, frac, err)
					continue
				}
				if diff != 0 {
					t.Errorf("%s %s 1/%d: T = %v: max |diff| vs in-core = %g, want 0", v, strat, frac, plan.Nests[p.Nests[0]].T, diff)
				}
			}
		}
	}
}

// TestMiscompileLexNegativeCell: in
//
//	do i, j: A0(i+1,i+1) = f(A0(i+2,i+2), B(i,j))
//
// the read at i′ meets the write at i = i′+1 for every j and j′, an
// anti dependence (<,*) from the read to the write. Its difference
// I′ − I is lex-negative, and analysis must report it reversed, not
// drop it: dropping it let every version tile (i, j), which runs a
// later i's write before an earlier i's read of the same element.
func TestMiscompileLexNegativeCell(t *testing.T) {
	a, b := ir.NewArray("A0", 16, 16), ir.NewArray("B", 14, 14)
	p := &ir.Program{Name: "lexneg", Arrays: []*ir.Array{a, b}, Nests: []*ir.Nest{
		{ID: 0, Loops: ir.Rect(14, 14), Body: []*ir.Stmt{
			ir.Assign(ir.RefAffine(a, [][]int64{{1, 0}, {1, 0}}, []int64{1, 1}),
				[]ir.Ref{ir.RefAffine(a, [][]int64{{1, 0}, {1, 0}}, []int64{2, 2}), ir.RefIdx(b, 2, 0, 1)},
				"f", func(in []float64, iv []int64) float64 { return 0.5*in[0] + in[1] + float64(iv[1]) }),
		}},
	}}
	ds := deps.Analyze(p.Nests[0])
	if deps.LegalTransform(matrix.FromRows([][]int64{{-1, 0}, {0, 1}}), ds) {
		t.Errorf("reversing i accepted under %v", ds)
	}
	if deps.FullyPermutable(ds, 0, 2) {
		t.Errorf("(i, j) band fully permutable under %v", ds)
	}
	verifyAllPlans(t, p)
}

// TestMiscompileSelfOutput: in
//
//	do i, j, k: A1(k,j) = f(B(i+12, k-i+12)) + i
//
// every i stores to the same A1(k,j), so the last i must win: the
// write's output dependence with itself, (<,=,*), orders i. Analysis
// must see it, or l-opt picks T with the row k-i, which runs the
// writes of i=0 last.
func TestMiscompileSelfOutput(t *testing.T) {
	a, b := ir.NewArray("A1", 15, 15), ir.NewArray("B", 40, 40)
	p := &ir.Program{Name: "selfout", Arrays: []*ir.Array{a, b}, Nests: []*ir.Nest{
		{ID: 0, Loops: ir.Rect(10, 10, 10), Body: []*ir.Stmt{
			ir.Assign(ir.RefIdx(a, 3, 2, 1),
				[]ir.Ref{ir.RefAffine(b, [][]int64{{1, 0, 0}, {-1, 0, 1}}, []int64{12, 12})},
				"f", func(in []float64, iv []int64) float64 { return in[0] + float64(iv[0]) }),
		}},
	}}
	ds := deps.Analyze(p.Nests[0])
	if deps.LegalTransform(matrix.FromRows([][]int64{{0, 1, 0}, {-1, 0, 1}, {0, 0, 1}}), ds) {
		t.Errorf("T with the row k-i accepted under %v", ds)
	}
	verifyAllPlans(t, p)
}
