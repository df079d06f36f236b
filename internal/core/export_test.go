package core

import "outcore/internal/ir"

// Hooks for exact_test.go, an external test because it needs the suite
// kernels (and suite imports core).

var MotivatingFragment = motivatingFragment

// Penalty is OptimizeOptimal's objective for a plan: the summed nest
// cost of every reference the plan leaves without locality.
func Penalty(o *Optimizer, plan *Plan, prog *ir.Program) int64 {
	total := int64(0)
	for _, rep := range plan.Report(prog, o.defaultLayout()) {
		if rep.Locality == NoLocality {
			total += o.cost(rep.Nest)
		}
	}
	return total
}

// LayoutSideOptimum solves OptimizeOptimal's problem from the other
// side: it enumerates every assignment of candidate layouts to arrays
// and gives each nest, on its own, the candidate transformation that
// leaves the cheapest references without locality.
func LayoutSideOptimum(o *Optimizer, prog *ir.Program) int64 {
	var layouts []int // candidate layouts per array
	index := map[*ir.Array]int{}
	for _, n := range prog.Nests {
		for _, a := range n.Arrays() {
			if _, ok := index[a]; !ok {
				index[a] = len(layouts)
				layouts = append(layouts, len(candidateLayouts(a)))
			}
		}
	}
	// noLoc[i][c][j][l]: nest i's reference j has no locality under its
	// array's layout l and the nest's candidate c.
	type ref struct {
		array int
		cost  int64
	}
	refs := make([][]ref, len(prog.Nests))
	noLoc := make([][][][]bool, len(prog.Nests))
	dc := depCache{}
	for i, n := range prog.Nests {
		for _, np := range legalQCandidates(n, dc) {
			var row [][]bool
			for _, s := range n.Body {
				for _, r := range s.Refs() {
					var ls []bool
					for _, l := range candidateLayouts(r.Array) {
						ls = append(ls, RefLocality(r, l, np.QLast) == NoLocality)
					}
					row = append(row, ls)
				}
			}
			noLoc[i] = append(noLoc[i], row)
		}
		for _, s := range n.Body {
			for _, r := range s.Refs() {
				refs[i] = append(refs[i], ref{array: index[r.Array], cost: o.cost(n)})
			}
		}
	}

	choice := make([]int, len(layouts))
	best := int64(-1)
	for {
		total := int64(0)
		for i := range prog.Nests {
			least := int64(-1)
			for _, row := range noLoc[i] {
				sum := int64(0)
				for j, r := range refs[i] {
					if row[j][choice[r.array]] {
						sum += r.cost
					}
				}
				if least < 0 || sum < least {
					least = sum
				}
			}
			total += least
		}
		if best < 0 || total < best {
			best = total
		}
		a := len(choice) - 1
		for ; a >= 0; a-- {
			if choice[a]++; choice[a] < layouts[a] {
				break
			}
			choice[a] = 0
		}
		if a < 0 {
			return best
		}
	}
}
