// Package cluster is the distributed serving plane: a stateless
// router that rendezvous-hashes tile keys across N occd storage nodes
// with R-way replication, sloppy-quorum writes, hinted handoff for
// replicas that are down, and generation-resolved read-repair when
// replicas disagree. Placement reuses the pinned key hash every other
// layer routes by (internal/keyhash), so the router and the engines
// provably agree on who owns a tile.
//
// The consistency contract is availability-first, not linearizable.
// Writes ack on a sloppy quorum: at least one live replica plus
// durably queued hints reaching R/2+1. Reads fan out to the whole
// replica set but resolve with whoever answers — freshest generation
// wins, and a read of a whole routing tile synchronously read-repairs
// stale responders — so a read is served even when only one replica is
// reachable, and that replica may be stale if its copy of the write is
// still queued as a hint (eventual consistency; the hint drain and the
// next whole-tile read's repair converge it). Callers that need a read to reflect every acked write
// must wait for hints to drain — the chaos epilogue's discipline.
//
// The routing unit is the aligned grid tile (Options.TileDim per
// dimension), not the raw request box: a write to a tile and a later
// unaligned read overlapping it must land on the same replica set, or
// the read could consult nodes that never saw the write. Requests
// spanning several grid tiles are decomposed, each piece served by its
// own tile's replicas, and stitched back into the caller's box-local
// row-major payload.
//
// The package has no HTTP handlers of its own: Router implements
// server.Plane (catalog, ReadBox/WriteBox/ReduceBox, stats, error
// mapping) and Router.Handler is the one front end, server.FrontEnd,
// mounted over it — the same routes, admission, validation and
// batch/scan/reduce code occd serves its local engine through.
package cluster

import (
	"outcore/internal/layout"
)

// gridTiles splits box along the aligned grid of edge-t tiles,
// returning the per-tile intersections in row-major tile order. A box
// contained in one grid tile comes back as itself, allocation aside —
// the common case for tile-aligned traffic.
func gridTiles(box layout.Box, t int64) []layout.Box {
	if t <= 0 {
		return []layout.Box{box}
	}
	// Per-dim grid cut points covering [lo, hi).
	cuts := make([][]int64, len(box.Lo))
	total := 1
	for d := range box.Lo {
		lo, hi := box.Lo[d], box.Hi[d]
		var c []int64
		for p := lo - lo%t; p < hi; p += t {
			s, e := p, p+t
			if s < lo {
				s = lo
			}
			if e > hi {
				e = hi
			}
			c = append(c, s, e)
		}
		cuts[d] = c
		total *= len(c) / 2
	}
	out := make([]layout.Box, 0, total)
	idx := make([]int, len(box.Lo))
	for {
		lo := make([]int64, len(box.Lo))
		hi := make([]int64, len(box.Lo))
		for d := range idx {
			lo[d] = cuts[d][2*idx[d]]
			hi[d] = cuts[d][2*idx[d]+1]
		}
		out = append(out, layout.NewBox(lo, hi))
		d := len(idx) - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < len(cuts[d])/2 {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			return out
		}
	}
}

// routingTile returns the aligned grid tile containing box.Lo — the
// key a single-tile box is placed under. Callers decompose multi-tile
// boxes first (gridTiles), so every piece's routingTile is the grid
// tile that fully contains it.
func routingTile(box layout.Box, t int64) layout.Box {
	if t <= 0 {
		return box
	}
	lo := make([]int64, len(box.Lo))
	hi := make([]int64, len(box.Lo))
	for d := range box.Lo {
		lo[d] = box.Lo[d] - box.Lo[d]%t
		hi[d] = lo[d] + t
	}
	return layout.NewBox(lo, hi)
}

// wholeTile reports whether piece (one gridTiles piece) covers its
// entire routing tile, clipped to the array's dims.
func wholeTile(piece layout.Box, dims []int64, t int64) bool {
	if t <= 0 {
		return true
	}
	for d := range piece.Lo {
		lo := piece.Lo[d] - piece.Lo[d]%t
		if piece.Lo[d] != lo || piece.Hi[d] != min(lo+t, dims[d]) {
			return false
		}
	}
	return true
}

// strides returns box's row-major element strides.
func strides(box layout.Box) []int64 {
	s := make([]int64, len(box.Lo))
	acc := int64(1)
	for d := len(box.Lo) - 1; d >= 0; d-- {
		s[d] = acc
		acc *= box.Hi[d] - box.Lo[d]
	}
	return s
}

// copyRegion copies the elements of region (which must be contained in
// both boxes) from src (srcBox-local row-major) into dst (dstBox-local
// row-major). The innermost dimension is contiguous in both buffers,
// so the copy moves whole rows.
func copyRegion(dst []float64, dstBox layout.Box, src []float64, srcBox layout.Box, region layout.Box) {
	rank := len(region.Lo)
	ds, ss := strides(dstBox), strides(srcBox)
	rowLen := region.Hi[rank-1] - region.Lo[rank-1]

	// Odometer over every region coordinate except the innermost dim.
	cur := make([]int64, rank)
	copy(cur, region.Lo)
	for {
		var doff, soff int64
		for d := 0; d < rank; d++ {
			doff += (cur[d] - dstBox.Lo[d]) * ds[d]
			soff += (cur[d] - srcBox.Lo[d]) * ss[d]
		}
		copy(dst[doff:doff+rowLen], src[soff:soff+rowLen])
		d := rank - 2
		for d >= 0 {
			cur[d]++
			if cur[d] < region.Hi[d] {
				break
			}
			cur[d] = region.Lo[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}
