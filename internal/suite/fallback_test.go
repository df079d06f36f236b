package suite

import (
	"testing"

	"outcore/internal/codegen"
	"outcore/internal/ir"
)

// TestFallbackChecksFullBand pins the legality check of the fallback
// to traditional tiling. In
//
//	do i = 0..11; do j = 0..1; do k = 0..11: A(j, i+k) = B(i, k)
//
// the self output dependence through A(j, i+k) carries along the
// innermost loop: the out-of-core band (the outer k-1 loops) is
// fully permutable, the k-loop band is not. At 1/16 of the data the
// out-of-core slab does not fit, so Build falls back to tiling all k
// loops, and it must either refuse that band or execute it bit for
// bit.
func TestFallbackChecksFullBand(t *testing.T) {
	a, b := ir.NewArray("A", 2, 26), ir.NewArray("B", 12, 12)
	p := &ir.Program{Name: "fallback", Arrays: []*ir.Array{a, b}, Nests: []*ir.Nest{
		{ID: 0, Loops: ir.Rect(12, 2, 12), Body: []*ir.Stmt{
			ir.Assign(ir.RefAffine(a, [][]int64{{0, 1, 0}, {1, 0, 1}}, []int64{0, 0}),
				[]ir.Ref{ir.RefIdx(b, 3, 0, 2)}, "copy", ir.AddConst(0)),
		}},
	}}
	init := seed(p, 7)
	for _, v := range Versions {
		plan, err := PlanFor(p, v)
		if err != nil {
			t.Fatal(err)
		}
		opts := codegen.Options{Strategy: StrategyFor(v), MemBudget: MemBudget(p, 16)}
		diff, err := codegen.Verify(p, plan, opts, 8, init)
		if err != nil {
			t.Logf("%s: refused: %v", v, err)
			continue
		}
		if diff != 0 {
			t.Errorf("%s: max |diff| vs in-core = %g, want 0", v, diff)
		}
	}
}
