package layout

// Scan planning: turn a box into an ordered list of rectangular chunks
// whose visit order follows the layout's storage order, so a streaming
// scan reads long contiguous file runs instead of hopping (Claim 1
// applied to the serving plane). Each chunk is itself a Box, so a chunk
// is fetched and framed exactly like a tile GET of that box — the
// differential contract the conformance suite checks.

// PlanScan splits box into chunks of at most chunkElems elements and
// returns them in the order a scan should visit them. For permutation
// layouts the plan follows the layout's own dimension order: chunks are
// slabs of whole fast-dimension rows, grouped along the fastest slow
// dimension, visited perm-lexicographically — consecutive chunks of a
// full-width box are adjacent in the file. Layouts without a single
// fast dimension (diagonal, general, blocked) fall back to row-major
// slabs: any rectangular chunk covers the same file bytes under a
// bijective layout, so chunk size, not visit order, is what matters
// there. chunkElems <= 0 means a single chunk covering the whole box.
func PlanScan(l *Layout, box Box, chunkElems int64) []Box {
	box = box.Clip(l.dims)
	if box.Empty() {
		return nil
	}
	return planPerm(box, l.scanOrder(), chunkElems)
}

// PlanRowMajor splits box into row-major slabs of at most chunkElems
// elements, independent of any layout — the order in which a box-local
// payload linearizes its elements. Reductions chunk through this plan
// so their fold order matches a client folding a plain GET. The box is
// not clipped; callers validate it against the array first.
func PlanRowMajor(box Box, chunkElems int64) []Box {
	if box.Empty() {
		return nil
	}
	perm := make([]int, box.Rank())
	for i := range perm {
		perm[i] = i
	}
	return planPerm(box, perm, chunkElems)
}

// scanOrder returns the dimension visit order (slowest to fastest) the
// planner uses for l.
func (l *Layout) scanOrder() []int {
	if l.kind == Permutation {
		return append([]int(nil), l.perm...)
	}
	perm := make([]int, len(l.dims))
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// planPerm enumerates chunk boxes of box in perm-lexicographic order.
// A chunk spans the full box extent along the fast dimension (split
// when a single row exceeds chunkElems) and as many consecutive
// coordinates of the fastest slow dimension as fit in chunkElems. The
// chunks are counted first, so the plan and all of its corners take
// two allocations, whatever the chunk count.
func planPerm(box Box, perm []int, chunkElems int64) []Box {
	rank := len(perm)
	fast := perm[rank-1]
	rowLen := box.Hi[fast] - box.Lo[fast]
	if chunkElems <= 0 {
		chunkElems = box.Size()
	}

	var group int          // fastest slow dimension: slab axis
	var outer []int        // remaining slow dims, slowest first
	var rowsPerChunk int64 // whole rows per chunk; 0 splits rows along fast
	n := ceilDiv(rowLen, chunkElems)
	if rank > 1 {
		group, outer = perm[rank-2], perm[:rank-2:rank-2]
		rowsPerChunk = chunkElems / rowLen
		groupLen := box.Hi[group] - box.Lo[group]
		if rowsPerChunk >= 1 {
			n = ceilDiv(groupLen, rowsPerChunk)
		} else {
			n *= groupLen
		}
		n *= box.Size() / (rowLen * groupLen)
	}
	out := make([]Box, 0, n)
	coords := make([]int64, 0, 2*int64(rank)*n)
	// chunk appends the one-element chunk at cur and returns its
	// corners for the caller to widen.
	chunk := func(cur []int64) (lo, hi []int64) {
		k := len(coords)
		coords = append(append(coords, cur...), cur...)
		lo, hi = coords[k:k+rank:k+rank], coords[k+rank:k+2*rank:k+2*rank]
		for d := range hi {
			hi[d]++
		}
		out = append(out, Box{Lo: lo, Hi: hi})
		return lo, hi
	}

	cur := make([]int64, rank)
	copy(cur, box.Lo)
	if rank == 1 {
		for s := box.Lo[0]; s < box.Hi[0]; s += chunkElems {
			cur[0] = s
			_, hi := chunk(cur)
			hi[0] = minI64(s+chunkElems, box.Hi[0])
		}
		return out
	}
	for {
		if rowsPerChunk >= 1 {
			// Whole rows fit: emit slabs along the group dimension.
			for g := box.Lo[group]; g < box.Hi[group]; g += rowsPerChunk {
				cur[group] = g
				lo, hi := chunk(cur)
				hi[group] = minI64(g+rowsPerChunk, box.Hi[group])
				lo[fast], hi[fast] = box.Lo[fast], box.Hi[fast]
			}
		} else {
			// A single row overflows chunkElems: split it along fast.
			for g := box.Lo[group]; g < box.Hi[group]; g++ {
				cur[group] = g
				for s := box.Lo[fast]; s < box.Hi[fast]; s += chunkElems {
					lo, hi := chunk(cur)
					lo[fast], hi[fast] = s, minI64(s+chunkElems, box.Hi[fast])
				}
			}
		}
		cur[group] = box.Lo[group]
		// Advance the outer dims odometer-style, fastest last.
		k := len(outer) - 1
		for ; k >= 0; k-- {
			d := outer[k]
			cur[d]++
			if cur[d] < box.Hi[d] {
				break
			}
			cur[d] = box.Lo[d]
		}
		if k < 0 {
			return out
		}
	}
}

// PlanSeeks counts the backend seeks a plan incurs under layout l: the
// number of file runs, visited in plan order, that do not start where
// the previous run ended. The first run is one seek. A plan matched to
// the layout of a full-width box costs a single seek; a transposed plan
// pays one per row — the paper's I/O-request metric for the scan path.
func PlanSeeks(l *Layout, plan []Box) int64 {
	var seeks int64
	next := int64(-1)
	for _, c := range plan {
		for _, r := range l.Runs(c) {
			if r.Off != next {
				seeks++
			}
			next = r.Off + r.Len
		}
	}
	return seeks
}
