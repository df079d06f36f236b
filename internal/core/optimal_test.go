package core

import (
	"testing"

	"outcore/internal/deps"
	"outcore/internal/ir"
)

func countOptimized(t *testing.T, plan *Plan, progReports []LocalityReport) int {
	t.Helper()
	good := 0
	for _, rep := range progReports {
		if rep.Locality != NoLocality {
			good++
		}
	}
	return good
}

func TestOptimalMatchesCombinedOnWorkedExample(t *testing.T) {
	p, _, _, _ := motivatingFragment(16)
	var o Optimizer
	opt := o.OptimizeOptimal(p)
	// All four references must have locality: the combined heuristic
	// already achieves the optimum here, so the exact search must too.
	if got := countOptimized(t, opt, opt.Report(p, nil)); got != 4 {
		t.Errorf("optimal plan optimized %d/4 refs", got)
	}
	// Emitted transforms must be legal and unimodular.
	for _, n := range p.Nests {
		np := opt.Nests[n]
		if np == nil || !np.T.IsUnimodular() {
			t.Fatalf("nest %d: bad transform", n.ID)
		}
		if !deps.LegalTransform(np.T, deps.Analyze(n)) {
			t.Fatalf("nest %d: illegal transform", n.ID)
		}
	}
}

func TestOptimalNeverWorseThanCombined(t *testing.T) {
	// Across several structured programs, the exact optimum must serve
	// at least as many (cost-weighted, here uniform) references as the
	// greedy propagation.
	for _, n := range []int64{8, 12} {
		p, _, _, _ := motivatingFragment(n)
		var o Optimizer
		combined := o.OptimizeCombined(p)
		optimal := o.OptimizeOptimal(p)
		cg := countOptimized(t, combined, combined.Report(p, nil))
		og := countOptimized(t, optimal, optimal.Report(p, nil))
		if og < cg {
			t.Errorf("n=%d: optimal %d < combined %d", n, og, cg)
		}
	}
}

func TestOptimalBeatsGreedyWhenOrderMisleads(t *testing.T) {
	// Force a bad greedy order via profile: the combined algorithm
	// processes the "wrong" nest first data-only and can lose a
	// reference; the exact search is order-free and must still reach the
	// global optimum achieved with the good order.
	p, _, _, _ := motivatingFragment(16)
	bad := Optimizer{Profile: map[int]int64{0: 1, 1: 1000}}
	_ = bad.OptimizeCombined(p)

	opt := bad.OptimizeOptimal(p)
	if got := countOptimized(t, opt, opt.Report(p, nil)); got != 4 {
		t.Errorf("optimal with misleading profile optimized %d/4 refs", got)
	}
}

func TestCandidateLayoutsByRank(t *testing.T) {
	if got := len(candidateLayouts(ir.NewArray("a1", 8))); got != 1 {
		t.Errorf("rank-1 candidates = %d", got)
	}
	if got := len(candidateLayouts(ir.NewArray("a2", 8, 8))); got != 4 {
		t.Errorf("rank-2 candidates = %d", got)
	}
	if got := len(candidateLayouts(ir.NewArray("a3", 8, 8, 8))); got != 3 {
		t.Errorf("rank-3 candidates = %d", got)
	}
}
