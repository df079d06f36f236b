// Package tiling chooses tile shapes for out-of-core execution
// (Section 3.3 of the paper).
//
// Two strategies are modeled:
//
//   - Traditional: every loop of the (transformed) nest is tiled with
//     the same tile size B, the classical cache-oriented scheme.
//   - OutOfCore: every loop EXCEPT the innermost is tiled; the
//     innermost loop — which carries the spatial locality after the
//     linear transformations — runs its full extent, so each file
//     request covers long contiguous stretches (Figure 3(b)).
//
// The tile size is the largest B whose total per-tile data footprint
// (sum over arrays of the union bounding box of their references) fits
// the memory budget, mirroring the paper's "memory divided evenly
// across the arrays" discipline.
package tiling

import (
	"fmt"
	"slices"

	"outcore/internal/ir"
	"outcore/internal/matrix"
)

// Strategy selects which loops are tiled.
type Strategy int

const (
	// Traditional tiles every loop (including the innermost).
	Traditional Strategy = iota
	// OutOfCore tiles all but the innermost loop.
	OutOfCore
)

func (s Strategy) String() string {
	if s == OutOfCore {
		return "out-of-core"
	}
	return "traditional"
}

// RefAccess is one array reference in TRANSFORMED iteration
// coordinates: element = M·I' + Off with M = L·Q. Group identifies the
// in-memory tile the reference shares: references with the same
// (Array, Group) are unioned into one footprint box; distinct groups
// get independent tiles (codegen assigns one group per access matrix).
type RefAccess struct {
	Array *ir.Array
	M     *matrix.Int
	Off   []int64
	Group int
}

// Spec is a concrete tiling decision over the transformed space.
type Spec struct {
	Strategy Strategy
	// Lo/Hi bound the transformed iteration space (bounding box).
	Lo, Hi []int64
	// Sizes is the tile extent per transformed level; a level whose size
	// covers its whole range is effectively untiled.
	Sizes []int64
	// B is the scalar tile parameter the sizes were derived from.
	B int64
}

// Depth returns the loop depth.
func (s Spec) Depth() int { return len(s.Sizes) }

func (s Spec) String() string {
	return fmt.Sprintf("%s tiling B=%d sizes=%v over [%v,%v]", s.Strategy, s.B, s.Sizes, s.Lo, s.Hi)
}

// TransformedBox returns the bounding box [lo', hi'] of T·I over the
// rectangular original space [lo, hi] (both inclusive).
func TransformedBox(t *matrix.Int, lo, hi []int64) (tlo, thi []int64) {
	k := t.Rows()
	tlo = make([]int64, k)
	thi = make([]int64, k)
	for r := 0; r < k; r++ {
		var mn, mx int64
		for j := 0; j < t.Cols(); j++ {
			c := t.At(r, j)
			if c > 0 {
				mn += c * lo[j]
				mx += c * hi[j]
			} else {
				mn += c * hi[j]
				mx += c * lo[j]
			}
		}
		tlo[r], thi[r] = mn, mx
	}
	return tlo, thi
}

// Footprint returns the total in-memory elements needed for one tile of
// the given sizes: per array, the union bounding box of all its
// references over a tile-shaped iteration box, clipped to the array
// extents.
func Footprint(refs []RefAccess, sizes []int64) int64 {
	return newFootprint(refs).eval(sizes)
}

// footprint evaluates Footprint for one reference set at many tile
// sizes: the (array, group) boxes are resolved once, and every
// evaluation refills one buffer.
type footprint struct {
	refs []RefAccess
	box  []fpBox // per reference
	lohi []int64
}

// fpBox locates a reference's box: rank lows, then rank highs, from
// lohi[at]. first marks the box's first reference; boxes lie in
// first-reference order.
type fpBox struct {
	at    int
	first bool
}

func newFootprint(refs []RefAccess) footprint {
	f := footprint{refs: refs, box: make([]fpBox, len(refs))}
	words := 0
	for i, r := range refs {
		if j := slices.IndexFunc(refs[:i], func(o RefAccess) bool { return o.Array == r.Array && o.Group == r.Group }); j >= 0 {
			f.box[i] = fpBox{at: f.box[j].at}
		} else {
			f.box[i], words = fpBox{words, true}, words+2*r.Array.Rank()
		}
	}
	f.lohi = make([]int64, words)
	return f
}

// bounds returns the box refs[i] widens, and whether i is its first
// reference.
func (f footprint) bounds(i int) (lo, hi []int64, first bool) {
	rank, b := f.refs[i].Array.Rank(), f.box[i]
	return f.lohi[b.at : b.at+rank], f.lohi[b.at+rank : b.at+2*rank], b.first
}

func (f footprint) eval(sizes []int64) int64 {
	for i, r := range f.refs {
		bLo, bHi, first := f.bounds(i)
		for d := range bLo {
			if first {
				bLo[d], bHi[d] = 1<<62, -(1 << 62)
			}
			// Range of M_d·x + off_d over 0 <= x_j < sizes_j (tile-local).
			lo, hi := r.Off[d], r.Off[d]
			for j := 0; j < r.M.Cols(); j++ {
				if c, span := r.M.At(d, j), max(sizes[j]-1, 0); c > 0 {
					hi += c * span
				} else {
					lo += c * span
				}
			}
			bLo[d], bHi[d] = min(bLo[d], lo), max(bHi[d], hi)
		}
	}
	var total int64
	for i, r := range f.refs {
		lo, hi, first := f.bounds(i)
		if !first {
			continue
		}
		size := int64(1)
		for d := range lo {
			size *= max(min(hi[d]-lo[d]+1, r.Array.Dims[d]), 1) // a tile never holds more than the array
		}
		total += size
	}
	return total
}

// budgetError reports a budget that even B=1 exceeds.
type budgetError struct{ need, budget int64 }

func (e *budgetError) Error() string {
	return fmt.Sprintf("tiling: even B=1 exceeds the memory budget (%d > %d elements)", e.need, e.budget)
}

// Choose picks the largest scalar tile parameter B whose footprint fits
// the memory budget (0 = unlimited) under the strategy, over the
// transformed bounding box [tlo, thi].
func Choose(refs []RefAccess, tlo, thi []int64, memBudget int64, strat Strategy) (Spec, error) {
	k := len(tlo)
	maxExt := int64(1)
	for d := 0; d < k; d++ {
		maxExt = max(maxExt, thi[d]-tlo[d]+1)
	}
	sizes := make([]int64, k)
	sizesFor := func(b int64) []int64 {
		for d := 0; d < k; d++ {
			sizes[d] = thi[d] - tlo[d] + 1
			if d < k-1 || strat != OutOfCore { // OutOfCore leaves the innermost untiled
				sizes[d] = min(sizes[d], b)
			}
		}
		return sizes
	}
	if memBudget <= 0 {
		return Spec{Strategy: strat, Lo: tlo, Hi: thi, Sizes: sizesFor(maxExt), B: maxExt}, nil
	}
	f := newFootprint(refs)
	if need := f.eval(sizesFor(1)); need > memBudget {
		return Spec{}, &budgetError{need, memBudget}
	}
	// Binary search the largest feasible B.
	lo, hi := int64(1), maxExt
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if f.eval(sizesFor(mid)) <= memBudget {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return Spec{Strategy: strat, Lo: tlo, Hi: thi, Sizes: sizesFor(lo), B: lo}, nil
}
