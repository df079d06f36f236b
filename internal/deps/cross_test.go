package deps

import (
	"slices"
	"testing"

	"outcore/internal/ir"
)

func TestCrossNestBackwardSameIteration(t *testing.T) {
	// E writes B(i,j); L reads B(i,j): conflicts only at the same common
	// iteration -> never backward -> distribution legal.
	b := ir.NewArray("B", 8, 8)
	refE := ir.RefIdx(b, 2, 0, 1)
	refL := ir.RefIdx(b, 2, 0, 1)
	if CrossNestBackward(refL, refE, 1) {
		t.Error("same-iteration conflict flagged as backward")
	}
}

func TestCrossNestBackwardPreviousIteration(t *testing.T) {
	// E reads B(i-1,j); L writes B(i,j): L's write at common iteration c
	// conflicts with E's read at c+1 -> backward -> illegal.
	b := ir.NewArray("B", 8, 8)
	refE := ir.RefAffine(b, [][]int64{{1, 0}, {0, 1}}, []int64{-1, 0})
	refL := ir.RefIdx(b, 2, 0, 1)
	if !CrossNestBackward(refL, refE, 1) {
		t.Error("backward conflict missed")
	}
}

func TestCrossNestBackwardNextIteration(t *testing.T) {
	// E reads B(i+1,j); L writes B(i,j): the conflicting write happens
	// at a LATER common iteration; distribution keeps that order.
	b := ir.NewArray("B", 8, 8)
	refE := ir.RefAffine(b, [][]int64{{1, 0}, {0, 1}}, []int64{1, 0})
	refL := ir.RefIdx(b, 2, 0, 1)
	if CrossNestBackward(refL, refE, 1) {
		t.Error("forward-only conflict flagged as backward")
	}
}

func TestCrossNestBackwardNoConflict(t *testing.T) {
	// Parity-disjoint accesses: no solution -> no backward conflict.
	b := ir.NewArray("B", 16, 16)
	refE := ir.RefAffine(b, [][]int64{{2, 0}, {0, 1}}, []int64{0, 0})
	refL := ir.RefAffine(b, [][]int64{{2, 0}, {0, 1}}, []int64{1, 0})
	if CrossNestBackward(refL, refE, 1) {
		t.Error("infeasible system flagged as backward")
	}
}

func TestCrossNestBackwardTransposedConservative(t *testing.T) {
	// E writes X(i,j); L reads X(j,i): the common-level difference is
	// kernel-free in one variable -> star -> conservatively backward.
	x := ir.NewArray("X", 8, 8)
	refE := ir.RefIdx(x, 2, 0, 1)
	refL := ir.RefIdx(x, 2, 1, 0)
	if !CrossNestBackward(refL, refE, 1) {
		t.Error("transposed conflict not treated conservatively")
	}
}

// TestAnalyzeUnderdetermined: a rank-deficient access pins some levels
// and leaves the rest free. A(i) = A(i) over (i,j) pins level 0 to 0
// and frees level 1: (=,<). A(i+3) = A(i) pins it to 3: (3,*), split
// into the cells (<,<), (<,>) and the distance (3,0).
func TestAnalyzeUnderdetermined(t *testing.T) {
	a := ir.NewArray("A", 16)
	for _, c := range []struct {
		off  int64
		want []string
	}{
		{0, []string{"anti A (=,<)", "flow A (=,<)", "output A (=,<)"}},
		{3, []string{"flow A (3,0)", "flow A (<,<)", "flow A (<,>)", "output A (=,<)"}},
	} {
		w := ir.RefAffine(a, [][]int64{{1, 0}}, []int64{c.off})
		n := &ir.Nest{Loops: ir.Rect(8, 8), Body: []*ir.Stmt{ir.Assign(w, []ir.Ref{ir.RefIdx(a, 2, 0)}, "", ir.AddConst(0))}}
		if got := depStrings(Analyze(n)); !slices.Equal(got, c.want) {
			t.Errorf("offset %d: %v, want %v", c.off, got, c.want)
		}
	}
}

func TestDependenceStringDirs(t *testing.T) {
	arr := ir.NewArray("A", 4, 4)
	d := Dependence{Array: arr, Kind: "output", Dirs: []Dir{Pos, Neg, Zero}}
	if d.String() != "output A (<,>,=)" {
		t.Errorf("String = %q", d.String())
	}
}
