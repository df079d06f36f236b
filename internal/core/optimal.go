package core

import (
	"fmt"
	"sort"

	"outcore/internal/deps"
	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/matrix"
)

// OptimizeOptimal computes a globally optimal layout + transformation
// assignment: the exact optimum the paper's conclusion announces as
// work in progress ("determining optimal file layouts using techniques
// from integer linear programming").
//
// Objective: minimize the references left without locality, each
// weighted by its nest's cost, over one candidate layout per array and
// one candidate transformation per nest (legalQCandidates). Every term
// pairs one array with one nest, so once each nest's q_last is fixed
// each array's best layout is an independent choice. The search
// therefore enumerates the q_last tuples of each interference-graph
// component and gives every array its cheapest layout under the tuple;
// the first minimum found wins, which keeps ties deterministic.
//
// The search is exact and exponential in the nests per component, so
// it is an oracle for modest programs (the benchmark kernels solve in
// milliseconds) against which the paper's greedy propagation
// (OptimizeCombined) can be measured.
func (o *Optimizer) OptimizeOptimal(prog *ir.Program) *Plan {
	plan := NewPlan()
	dc := depCache{}
	for _, comp := range components(prog) {
		nests := comp.Nests
		cands := make([][]*NestPlan, len(nests))
		for i, n := range nests {
			cands[i] = legalQCandidates(n, dc)
		}
		// The references of each array, with their nest and its weight.
		type use struct {
			ref  ir.Ref
			nest int
			cost int64
		}
		index := map[*ir.Array]int{}
		layouts := make([][]*layout.Layout, len(comp.Arrays))
		for a, arr := range comp.Arrays {
			index[arr] = a
			layouts[a] = candidateLayouts(arr)
		}
		uses := make([][]use, len(comp.Arrays))
		for i, n := range nests {
			for _, s := range n.Body {
				for _, r := range s.Refs() {
					a := index[r.Array]
					uses[a] = append(uses[a], use{ref: r, nest: i, cost: o.cost(n)})
				}
			}
		}

		tuple := make([]int, len(nests))
		pick := make([]int, len(comp.Arrays))
		bestTuple := make([]int, len(nests))
		bestPick := make([]int, len(comp.Arrays))
		best := int64(-1)
		for {
			total := int64(0)
			for a := range comp.Arrays {
				least := int64(-1)
				for l, lay := range layouts[a] {
					sum := int64(0)
					for _, u := range uses[a] {
						if RefLocality(u.ref, lay, cands[u.nest][tuple[u.nest]].QLast) == NoLocality {
							sum += u.cost
						}
					}
					if least < 0 || sum < least {
						pick[a], least = l, sum
					}
				}
				total += least
			}
			if best < 0 || total < best {
				best = total
				copy(bestTuple, tuple)
				copy(bestPick, pick)
			}
			// Next tuple, odometer style: the last nest turns fastest.
			i := len(tuple) - 1
			for ; i >= 0; i-- {
				if tuple[i]++; tuple[i] < len(cands[i]) {
					break
				}
				tuple[i] = 0
			}
			if i < 0 {
				break
			}
		}
		for i, n := range nests {
			plan.Nests[n] = cands[i][bestTuple[i]]
		}
		for a, arr := range comp.Arrays {
			plan.Layouts[arr] = layouts[a][bestPick[a]]
		}
	}
	o.finish(plan, prog)
	return plan
}

// candidateLayouts enumerates the layout families considered per array.
func candidateLayouts(a *ir.Array) []*layout.Layout {
	switch a.Rank() {
	case 1:
		return []*layout.Layout{layout.RowMajor(a.Dims...)}
	case 2:
		return []*layout.Layout{
			layout.RowMajor(a.Dims...),
			layout.ColMajor(a.Dims...),
			layout.Diagonal(a.Dims[0], a.Dims[1]),
			layout.AntiDiagonal(a.Dims[0], a.Dims[1]),
		}
	default:
		var out []*layout.Layout
		for d := 0; d < a.Rank(); d++ {
			out = append(out, layout.FastDim(a.Dims, d))
		}
		return out
	}
}

// legalQCandidates enumerates the candidate transformations of a nest:
// the identity first (always legal), then the other unit vectors and
// the primitive kernel directions of every (reference, candidate
// layout) Relation-(2) constraint, each completed to a unimodular Q and
// kept when legal.
func legalQCandidates(n *ir.Nest, dc depCache) []*NestPlan {
	k := n.Depth()
	ds := dc.get(n)
	identity := fmt.Sprint(unitVec(k, k-1))
	cand := map[string][]int64{}
	add := func(q []int64) {
		if matrix.IsZeroVec(q) {
			return
		}
		q = matrix.PrimitiveInt(q)
		if key := fmt.Sprint(q); key != identity {
			cand[key] = q
		}
	}
	for pos := 0; pos < k; pos++ {
		add(unitVec(k, pos))
	}
	for _, s := range n.Body {
		for _, r := range s.Refs() {
			for _, l := range candidateLayouts(r.Array) {
				rows := constraintRows(r, l)
				if len(rows) == 0 {
					continue
				}
				for _, b := range matrix.KernelBasis(matrix.FromRows(rows)) {
					add(b)
				}
			}
		}
	}
	keys := make([]string, 0, len(cand))
	for key := range cand {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	out := []*NestPlan{{Nest: n, T: matrix.Identity(k), Q: matrix.Identity(k), QLast: unitVec(k, k-1)}}
	for _, key := range keys {
		if qm, t, ok := completeLegal(cand[key], ds); ok {
			out = append(out, &NestPlan{Nest: n, T: t, Q: qm, QLast: qm.Col(k - 1)})
		}
	}
	return out
}

// completeLegal completes the innermost direction q to a unimodular
// Q (Bik–Wijshoff) and returns it with T = Q⁻¹; ok is false when q is
// zero or T violates a dependence in ds.
func completeLegal(q []int64, ds []deps.Dependence) (qm, t *matrix.Int, ok bool) {
	qm, ok = matrix.CompleteAny(q)
	if !ok {
		return nil, nil, false
	}
	tRat, ok := qm.Inverse()
	if !ok {
		return nil, nil, false
	}
	t, ok = tRat.ToInt()
	if !ok || !deps.LegalTransform(t, ds) {
		return nil, nil, false
	}
	return qm, t, true
}
