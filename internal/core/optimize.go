package core

import (
	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/matrix"
)

// OptimizeCombined runs the paper's full algorithm (c-opt): per
// interference-graph component, order nests by cost, optimize the
// costliest with data transformations only, then alternate loop and
// data transformations over the remaining nests while propagating the
// layouts fixed so far.
func (o *Optimizer) OptimizeCombined(prog *ir.Program) *Plan {
	plan := NewPlan()
	dc := depCache{}
	for _, comp := range components(prog) {
		ordered := o.orderByCost(comp.Nests)
		for i, n := range ordered {
			dataOnly := i == 0
			o.optimizeNest(plan, n, dc, dataOnly, true)
		}
	}
	o.finish(plan, prog)
	return plan
}

// OptimizeDataOnly is the d-opt comparison version: file layouts are
// chosen greedily in nest-cost order, but no loop transformation is
// applied anywhere.
func (o *Optimizer) OptimizeDataOnly(prog *ir.Program) *Plan {
	plan := NewPlan()
	dc := depCache{}
	for _, comp := range components(prog) {
		for _, n := range o.orderByCost(comp.Nests) {
			o.optimizeNest(plan, n, dc, true, true)
		}
	}
	o.finish(plan, prog)
	return plan
}

// OptimizeLoopOnly is the l-opt comparison version: every array keeps
// the default file layout and each nest gets the best legal loop
// transformation for those fixed layouts.
func (o *Optimizer) OptimizeLoopOnly(prog *ir.Program) *Plan {
	plan := NewPlan()
	def := o.defaultLayout()
	for _, a := range prog.Arrays {
		plan.Layouts[a] = def(a.Dims)
	}
	dc := depCache{}
	for _, n := range prog.Nests {
		o.optimizeNest(plan, n, dc, false, false)
	}
	o.finish(plan, prog)
	return plan
}

// FixedLayouts builds the col/row baseline plans: every array gets the
// given layout, every nest the identity transformation.
func FixedLayouts(prog *ir.Program, mk func(dims []int64) *layout.Layout) *Plan {
	plan := NewPlan()
	for _, a := range prog.Arrays {
		plan.Layouts[a] = mk(a.Dims)
	}
	for _, n := range prog.Nests {
		plan.ensureNest(n)
	}
	return plan
}

// finish fills identity plans for unplanned nests and default layouts
// for unconstrained arrays.
func (o *Optimizer) finish(plan *Plan, prog *ir.Program) {
	for _, n := range prog.Nests {
		plan.ensureNest(n)
	}
	def := o.defaultLayout()
	for _, a := range prog.Arrays {
		if _, ok := plan.Layouts[a]; !ok {
			plan.Layouts[a] = def(a.Dims)
		}
	}
}

// optimizeNest performs Steps 3.b/3.c for one nest.
//
//   - dataOnly: keep Q = I and only assign layouts (used for the
//     costliest nest of a component and for d-opt).
//   - assignLayouts: whether arrays without a layout may receive one
//     (false for l-opt, which never moves data).
func (o *Optimizer) optimizeNest(plan *Plan, n *ir.Nest, dc depCache, dataOnly, assignLayouts bool) {
	k := n.Depth()
	np := plan.ensureNest(n)
	if k == 0 {
		return
	}
	var qLast []int64
	if dataOnly {
		qLast = unitVec(k, k-1)
		plan.note("nest %d: data transformations only (Q = I, q_last = e_%d)", n.ID, k-1)
	} else {
		qLast = o.chooseTransform(plan, n, dc, np)
		if np.Identity() {
			plan.note("nest %d: identity transformation kept (best legal q_last = %v)", n.ID, qLast)
		} else {
			plan.note("nest %d: q_last = %v from Ker{g·L} of the fixed layouts, completed to a unimodular Q (Bik-Wijshoff)", n.ID, qLast)
		}
	}
	if !assignLayouts {
		return
	}
	// Relation (1): assign layouts to arrays still unconstrained, using
	// the movements of their references under the chosen q_last.
	perArray := map[*ir.Array][]ir.Ref{}
	var order []*ir.Array
	for _, s := range n.Body {
		for _, r := range s.Refs() {
			if _, fixed := plan.Layouts[r.Array]; fixed {
				continue
			}
			if _, seen := perArray[r.Array]; !seen {
				order = append(order, r.Array)
			}
			perArray[r.Array] = append(perArray[r.Array], r)
		}
	}
	for _, a := range order {
		if l := bestLayoutFor(a, perArray[a], qLast); l != nil {
			plan.Layouts[a] = l
			plan.note("nest %d: array %s <- %s from Relation (1): g ∈ Ker{L·q_last}", n.ID, a.Name, l.Name())
		}
	}
}

// chooseTransform picks a legal loop transformation whose innermost
// direction satisfies as many already-fixed layouts as possible
// (Relation 2 + Bik–Wijshoff completion + dependence legality), records
// it in np, and returns the chosen q_last.
func (o *Optimizer) chooseTransform(plan *Plan, n *ir.Nest, dc depCache, np *NestPlan) []int64 {
	k := n.Depth()
	ds := dc.get(n)
	identityQ := unitVec(k, k-1)

	// Gather constraint rows from references to arrays with fixed
	// layouts; remember which refs they came from for scoring.
	var rows [][]int64
	for _, s := range n.Body {
		for _, r := range s.Refs() {
			if l, ok := plan.Layouts[r.Array]; ok {
				rows = append(rows, constraintRows(r, l)...)
			}
		}
	}

	best := struct {
		q     []int64
		t, qm *matrix.Int
		score int
	}{q: identityQ, t: matrix.Identity(k), qm: matrix.Identity(k), score: o.scoreQ(plan, n, identityQ)}

	tryCandidate := func(q []int64) {
		qm, t, ok := completeLegal(q, ds)
		if !ok {
			return
		}
		qlNorm := qm.Col(k - 1)
		score := o.scoreQ(plan, n, qlNorm)
		if score > best.score {
			best.q, best.t, best.qm, best.score = qlNorm, t, qm, score
		}
	}
	// Fully-constrained candidates first; then per-subset relaxations
	// happen implicitly because kernel candidates of the full stack are
	// tried alongside the unconstrained unit vectors.
	for _, q := range qLastCandidates(rows, k) {
		tryCandidate(q)
	}
	if len(rows) > 0 {
		// Relaxation: if the full constraint stack was infeasible or
		// unhelpful, also try satisfying each fixed-layout ref family on
		// its own.
		for _, row := range rows {
			for _, q := range qLastCandidates([][]int64{row}, k) {
				tryCandidate(q)
			}
		}
	}
	// Plain unit vectors (loop permutations) as a last resort.
	for _, q := range qLastCandidates(nil, k) {
		tryCandidate(q)
	}

	np.T, np.Q, np.QLast = best.t, best.qm, best.q
	return best.q
}

// scoreQ counts how many references of the nest end up with locality
// under innermost direction q: fixed-layout arrays score against their
// layout, free arrays score if SOME layout in our families would give
// them locality (it will be assigned right after). Temporal locality
// counts double: it eliminates the I/O entirely for that reference
// direction.
func (o *Optimizer) scoreQ(plan *Plan, n *ir.Nest, q []int64) int {
	score := 0
	for _, s := range n.Body {
		for _, r := range s.Refs() {
			v := movement(r, q)
			if matrix.IsZeroVec(v) {
				score += 2
				continue
			}
			if l, fixed := plan.Layouts[r.Array]; fixed {
				if RefLocality(r, l, q) == Spatial {
					score++
				}
				continue
			}
			if _, ok := layoutFromMovement(r.Array, v); ok {
				score++
			}
		}
	}
	return score
}

// bestLayoutFor chooses a layout for a free array given all its
// references in the nest: each reference's movement proposes a
// candidate, and the candidate satisfying the most references wins.
func bestLayoutFor(a *ir.Array, refs []ir.Ref, qLast []int64) *layout.Layout {
	var best *layout.Layout
	bestScore := -1
	for _, r := range refs {
		cand, ok := layoutFromMovement(a, movement(r, qLast))
		if !ok {
			continue
		}
		score := 0
		for _, other := range refs {
			switch RefLocality(other, cand, qLast) {
			case Spatial:
				score++
			case Temporal:
				score += 2
			}
		}
		if score > bestScore {
			best, bestScore = cand, score
		}
	}
	return best
}
