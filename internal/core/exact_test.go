package core_test

import (
	"testing"

	"outcore/internal/core"
	"outcore/internal/ir"
	"outcore/internal/restructure"
	"outcore/internal/suite"
)

// TestOptimalIsExact checks OptimizeOptimal's objective against
// LayoutSideOptimum, which searches the same candidates from the layout
// side, on every suite kernel and on the worked example, the misleading
// profile and the end-to-end pipeline programs.
func TestOptimalIsExact(t *testing.T) {
	type tc struct {
		name string
		o    core.Optimizer
		prog *ir.Program
	}
	var cases []tc
	for _, k := range suite.Kernels {
		cases = append(cases, tc{name: k.Name, prog: k.Build(suite.SmallConfig())})
	}
	worked, _, _, _ := core.MotivatingFragment(16)
	misled, _, _, _ := core.MotivatingFragment(16)
	cases = append(cases,
		tc{name: "worked-example", prog: worked},
		tc{name: "misleading-profile", o: core.Optimizer{Profile: map[int]int64{0: 1, 1: 1000}}, prog: misled},
		tc{name: "pipeline", prog: pipelineProgram(t)},
	)
	for _, c := range cases {
		got := core.Penalty(&c.o, c.o.OptimizeOptimal(c.prog), c.prog)
		if want := core.LayoutSideOptimum(&c.o, c.prog); got != want {
			t.Errorf("%s: OptimizeOptimal objective %d, layout-side optimum %d", c.name, got, want)
		}
	}
}

// pipelineProgram normalizes the imperfect source of the end-to-end
// pipeline test (integration_test.go): two fused nests, the first
// reading V both straight and transposed.
func pipelineProgram(t *testing.T) *ir.Program {
	const n = 24
	u, v, w := ir.NewArray("U", n, n), ir.NewArray("V", n, n), ir.NewArray("W", n, n)
	x, y := ir.NewArray("X", n, n), ir.NewArray("Y", n, n)
	s1 := ir.Assign(ir.RefIdx(u, 2, 0, 1), []ir.Ref{ir.RefIdx(v, 2, 1, 0)}, "", ir.AddConst(1))
	s2 := ir.Assign(ir.RefIdx(w, 2, 0, 1), []ir.Ref{ir.RefIdx(v, 2, 0, 1)}, "", ir.AddConst(2))
	s3 := ir.Assign(ir.RefIdx(x, 2, 0, 1), nil, "", func(_ []float64, iv []int64) float64 { return float64(iv[0] + iv[1]) })
	s4 := ir.Assign(ir.RefIdx(y, 2, 0, 1), []ir.Ref{ir.RefAffine(x, [][]int64{{1, 0}, {0, 0}}, []int64{0, 0})}, "", ir.AddConst(3))
	nests, err := restructure.Normalize([]*restructure.Node{
		restructure.NewLoop("i", 0, n-1,
			restructure.NewLoop("j", 0, n-1, restructure.NewStmt(s1, 2)),
			restructure.NewLoop("j", 0, n-1, restructure.NewStmt(s2, 2)),
		),
		restructure.NewLoop("i", 0, n-1,
			restructure.NewLoop("j", 0, n-1, restructure.NewStmt(s3, 2)),
			restructure.NewLoop("j", 0, n-1, restructure.NewStmt(s4, 2)),
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &ir.Program{Name: "pipeline", Nests: nests, Arrays: []*ir.Array{u, v, w, x, y}}
}
