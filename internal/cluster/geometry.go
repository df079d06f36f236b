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
// durably queued hints reaching R/2+1. A read takes one replica's
// bytes — the first live one in rank order — and only the write
// generations of the rest (a HEAD, which reads no tile), and resolves
// with whoever answers: freshest generation wins (a second GET fetches
// the winner's bytes when it is not the replica that sent them), and a
// read of a whole routing tile synchronously read-repairs stale
// responders. So a read is served even when only one replica is
// reachable, and that replica may be stale if its copy of the write is
// still queued as a hint (eventual consistency; the hint drain and the
// next whole-tile read's repair converge it). Callers that need a read
// to reflect every acked write must wait for hints to drain — the chaos
// epilogue's discipline.
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
// scan/reduce code occd serves its local engine through.
package cluster

import (
	"slices"

	"outcore/internal/keyhash"
	"outcore/internal/layout"
)

// gridTiles splits box along the aligned grid of edge-t tiles,
// appending the per-tile intersections to dst in row-major tile order.
// A box contained in one grid tile is appended as itself — the common
// case for tile-aligned traffic, which allocates nothing when dst has
// room for it.
func gridTiles(dst []layout.Box, box layout.Box, t int64) []layout.Box {
	if oneTile(box, t) {
		return append(dst, box)
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
	out := slices.Grow(dst, total)
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

// oneTile reports whether box lies inside a single grid tile.
func oneTile(box layout.Box, t int64) bool {
	if t <= 0 {
		return true
	}
	for d := range box.Lo {
		if box.Hi[d] > box.Lo[d]-box.Lo[d]%t+t {
			return false
		}
	}
	return true
}

// routingTile returns the aligned grid tile containing box.Lo — the
// key a single-tile box is placed under — with its corners appended to
// lo and hi. Callers decompose multi-tile boxes first (gridTiles), so
// every piece's routingTile is the grid tile that fully contains it.
func routingTile(lo, hi []int64, box layout.Box, t int64) layout.Box {
	if t <= 0 {
		return box
	}
	for d := range box.Lo {
		l := box.Lo[d] - box.Lo[d]%t
		lo, hi = append(lo, l), append(hi, l+t)
	}
	return layout.Box{Lo: lo, Hi: hi}
}

// routeKey appends a piece's routing key — the canonical key of its
// grid tile (keyhash.AppendKey) — to dst and returns it with its hash,
// the rendezvous input. The tile is built on the stack, so with a
// keyhash.StackBytes dst the routing of a piece allocates nothing.
func routeKey(dst []byte, name string, piece layout.Box, t int64) ([]byte, uint64) {
	var lo, hi [8]int64
	key := keyhash.AppendKey(dst, name, routingTile(lo[:0], hi[:0], piece, t))
	return key, keyhash.Bytes(key)
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
