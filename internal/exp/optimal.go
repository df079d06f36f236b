package exp

import (
	"fmt"
	"strings"

	"outcore/internal/core"
	"outcore/internal/ir"
)

// OptimalRow compares the greedy combined algorithm against the exact
// optimal assignment on one kernel: the number of references (out of
// the total) each serves with locality, cost-weighted as in the
// optimum's objective.
type OptimalRow struct {
	Kernel        string
	TotalRefs     int
	CombinedGood  int
	OptimalGood   int
	CombinedScore float64 // cost-weighted locality score (higher is better)
	OptimalScore  float64
}

// OptimalRows is the optimal-assignment ablation's table.
type OptimalRows []OptimalRow

// Render formats the table for occbench.
func (rows OptimalRows) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Greedy propagation (c-opt) vs exact optimal assignment\n%-10s %6s %14s %14s %12s %12s\n",
		"program", "refs", "c-opt good", "optimal good", "c-opt score", "opt score")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %6d %14d %14d %12.2f %12.2f\n",
			r.Kernel, r.TotalRefs, r.CombinedGood, r.OptimalGood, r.CombinedScore, r.OptimalScore)
	}
	return b.String()
}

// OptimalAblation measures the gap between the paper's greedy layout
// propagation (Step 3) and the globally optimal assignment the
// conclusion proposes as future work (core.OptimizeOptimal).
func OptimalAblation(o Options) (OptimalRows, error) {
	kernels, err := o.kernels()
	if err != nil {
		return nil, err
	}
	var rows OptimalRows
	for _, k := range kernels {
		row := OptimalRow{Kernel: k.Name}

		progC := k.Build(o.Cfg)
		var oc core.Optimizer
		combined := oc.OptimizeCombined(progC)
		row.TotalRefs, row.CombinedGood, row.CombinedScore = scorePlan(combined, progC)

		progO := k.Build(o.Cfg)
		var oo core.Optimizer
		optimal := oo.OptimizeOptimal(progO)
		_, row.OptimalGood, row.OptimalScore = scorePlan(optimal, progO)
		rows = append(rows, row)
	}
	return rows, nil
}

// scorePlan counts locality-served references and the cost-weighted
// score matching the complement of the optimum's objective (weight =
// nest cost, normalized by the costliest nest).
func scorePlan(plan *core.Plan, prog *ir.Program) (total, good int, score float64) {
	maxCost := int64(1)
	for _, n := range prog.Nests {
		if c := core.Cost(n); c > maxCost {
			maxCost = c
		}
	}
	for _, rep := range plan.Report(prog, nil) {
		total++
		if rep.Locality != core.NoLocality {
			good++
			score += float64(core.Cost(rep.Nest)) / float64(maxCost)
		}
	}
	return total, good, score
}
