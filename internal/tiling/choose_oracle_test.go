package tiling

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"outcore/internal/ir"
	"outcore/internal/matrix"
)

// footprintMap is the reference footprint: a map from (array, group) to
// a fresh box per call, unioned in first-reference order.
func footprintMap(refs []RefAccess, sizes []int64) int64 {
	type key struct {
		arr   *ir.Array
		group int
	}
	type rangeBox struct {
		lo, hi []int64
	}
	boxes := map[key]*rangeBox{}
	var order []key
	for _, r := range refs {
		rank := r.Array.Rank()
		k := key{r.Array, r.Group}
		b, ok := boxes[k]
		if !ok {
			b = &rangeBox{lo: make([]int64, rank), hi: make([]int64, rank)}
			for d := 0; d < rank; d++ {
				b.lo[d] = 1 << 62
				b.hi[d] = -(1 << 62)
			}
			boxes[k] = b
			order = append(order, k)
		}
		for d := 0; d < rank; d++ {
			lo, hi := r.Off[d], r.Off[d]
			for j := 0; j < r.M.Cols(); j++ {
				c := r.M.At(d, j)
				span := max(sizes[j]-1, 0)
				if c > 0 {
					hi += c * span
				} else {
					lo += c * span
				}
			}
			b.lo[d] = min(b.lo[d], lo)
			b.hi[d] = max(b.hi[d], hi)
		}
	}
	var total int64
	for _, k := range order {
		b := boxes[k]
		size := int64(1)
		for d := 0; d < k.arr.Rank(); d++ {
			size *= max(min(b.hi[d]-b.lo[d]+1, k.arr.Dims[d]), 1)
		}
		total += size
	}
	return total
}

// chooseBySearch is the reference Choose: a binary search for the
// largest B whose footprintMap fits, with fresh sizes per candidate.
func chooseBySearch(refs []RefAccess, tlo, thi []int64, memBudget int64, strat Strategy) (Spec, error) {
	k := len(tlo)
	extent := make([]int64, k)
	maxExt := int64(1)
	for d := 0; d < k; d++ {
		extent[d] = thi[d] - tlo[d] + 1
		maxExt = max(maxExt, extent[d])
	}
	sizesFor := func(b int64) []int64 {
		sizes := make([]int64, k)
		for d := 0; d < k; d++ {
			switch {
			case strat == OutOfCore && d == k-1:
				sizes[d] = extent[d]
			case b > extent[d]:
				sizes[d] = extent[d]
			default:
				sizes[d] = b
			}
		}
		return sizes
	}
	if memBudget <= 0 {
		return Spec{Strategy: strat, Lo: tlo, Hi: thi, Sizes: sizesFor(maxExt), B: maxExt}, nil
	}
	if need := footprintMap(refs, sizesFor(1)); need > memBudget {
		return Spec{}, fmt.Errorf("tiling: even B=1 exceeds the memory budget (%d > %d elements)", need, memBudget)
	}
	lo, hi := int64(1), maxExt
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if footprintMap(refs, sizesFor(mid)) <= memBudget {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return Spec{Strategy: strat, Lo: tlo, Hi: thi, Sizes: sizesFor(lo), B: lo}, nil
}

// randomRefs builds 1–6 references of depth k over 1–3 arrays of rank
// 0–4 (a rank-0 box takes no words of the buffer), with groups that
// share an array and negative coefficients and offsets.
func randomRefs(rng *rand.Rand, k int) []RefAccess {
	arrs := make([]*ir.Array, 1+rng.Intn(3))
	for i := range arrs {
		dims := make([]int64, rng.Intn(5))
		for d := range dims {
			dims[d] = 1 + int64(rng.Intn(40))
		}
		arrs[i] = ir.NewArray(fmt.Sprintf("A%d", i), dims...)
	}
	refs := make([]RefAccess, 1+rng.Intn(6))
	for i := range refs {
		a := arrs[rng.Intn(len(arrs))]
		m := matrix.NewInt(a.Rank(), k)
		off := make([]int64, a.Rank())
		for d := range off {
			for j := 0; j < k; j++ {
				if rng.Intn(3) == 0 {
					m.Set(d, j, int64(rng.Intn(5)-2))
				}
			}
			off[d] = int64(rng.Intn(13) - 6)
		}
		refs[i] = RefAccess{Array: a, M: m, Off: off, Group: rng.Intn(2)}
	}
	return refs
}

// TestChooseMatchesFootprintSearch checks Choose against the reference
// search on random reference sets (ranks 0–4): the same Spec (Strategy, B, Sizes,
// Lo, Hi) or the same refusal, for both strategies and budgets from 0
// past the largest footprint; and a returned Sizes slice that the next
// call leaves alone.
func TestChooseMatchesFootprintSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.Intn(4)
		refs := randomRefs(rng, k)
		tlo, thi := make([]int64, k), make([]int64, k)
		for d := range tlo {
			tlo[d] = int64(rng.Intn(21) - 10)
			thi[d] = tlo[d] + int64(rng.Intn(30))
		}
		full := make([]int64, k)
		for d := range full {
			full[d] = thi[d] - tlo[d] + 1
		}
		most := footprintMap(refs, full)
		some := make([]int64, k) // sizes from -1 to one past the extent
		for d := range some {
			some[d] = rng.Int63n(full[d]+3) - 1
		}
		for _, sz := range [][]int64{full, some} {
			if got, want := Footprint(refs, sz), footprintMap(refs, sz); got != want {
				t.Fatalf("trial %d: Footprint(%v) = %d, reference %d", trial, sz, got, want)
			}
		}
		for _, strat := range []Strategy{Traditional, OutOfCore} {
			budgets := []int64{0, 1, most, most + 1 + rng.Int63n(100)}
			for range 6 {
				budgets = append(budgets, rng.Int63n(most+2))
			}
			var prev, kept []int64 // the last returned Sizes, and a copy of it
			for _, budget := range budgets {
				got, gerr := Choose(refs, tlo, thi, budget, strat)
				want, werr := chooseBySearch(refs, tlo, thi, budget, strat)
				if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
					t.Fatalf("trial %d %v budget %d: error %v, reference %v", trial, strat, budget, gerr, werr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %v budget %d: %v, reference %v", trial, strat, budget, got, want)
				}
				if !slices.Equal(prev, kept) {
					t.Fatalf("trial %d %v budget %d: the call rewrote the last Sizes %v to %v", trial, strat, budget, kept, prev)
				}
				if gerr == nil {
					prev, kept = got.Sizes, slices.Clone(got.Sizes)
				}
			}
		}
	}
}
