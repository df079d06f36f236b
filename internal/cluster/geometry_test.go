package cluster

import (
	"math/rand"
	"testing"

	"outcore/internal/layout"
	"outcore/internal/server"
)

// TestGridTilesPartition decomposes random boxes and checks the
// pieces exactly partition the box: disjoint, covering, each inside
// one aligned grid tile, in row-major tile order.
func TestGridTilesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const tdim = int64(8)
	for trial := 0; trial < 200; trial++ {
		rank := 1 + rng.Intn(3)
		lo := make([]int64, rank)
		hi := make([]int64, rank)
		for d := range lo {
			lo[d] = rng.Int63n(40)
			hi[d] = lo[d] + 1 + rng.Int63n(20)
		}
		box := layout.NewBox(lo, hi)
		pieces := gridTiles(nil, box, tdim)

		var total int64
		for _, p := range pieces {
			total += p.Size()
			rt := routingTile(nil, nil, p, tdim)
			for d := range p.Lo {
				if p.Lo[d] < rt.Lo[d] || p.Hi[d] > rt.Hi[d] {
					t.Fatalf("piece %v of %v escapes its grid tile %v", p, box, rt)
				}
				if p.Lo[d] < box.Lo[d] || p.Hi[d] > box.Hi[d] {
					t.Fatalf("piece %v escapes its box %v", p, box)
				}
			}
		}
		if total != box.Size() {
			t.Fatalf("pieces of %v cover %d elements, box has %d", box, total, box.Size())
		}
		// Disjointness: with sizes summing to the box and each piece
		// contained, any overlap would force total > box.Size() only if
		// pieces repeat — check pairwise lows are distinct.
		seen := map[string]bool{}
		for _, p := range pieces {
			k := p.String()
			if seen[k] {
				t.Fatalf("piece %v repeats in decomposition of %v", p, box)
			}
			seen[k] = true
		}
	}
}

// TestGridTilesAlignedIsIdentity keeps the common case allocation-
// shaped: an aligned whole tile decomposes to itself.
func TestGridTilesAlignedIsIdentity(t *testing.T) {
	box := layout.NewBox([]int64{16, 8}, []int64{24, 16})
	pieces := gridTiles(nil, box, 8)
	if len(pieces) != 1 || pieces[0].String() != box.String() {
		t.Fatalf("aligned tile decomposed to %v", pieces)
	}
}

// TestCopyRegionRoundTrip splits a box into grid pieces, scatters a
// box-local payload out to per-piece buffers, stitches it back, and
// requires identity.
func TestCopyRegionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		rank := 1 + rng.Intn(3)
		lo := make([]int64, rank)
		hi := make([]int64, rank)
		for d := range lo {
			lo[d] = rng.Int63n(20)
			hi[d] = lo[d] + 1 + rng.Int63n(18)
		}
		box := layout.NewBox(lo, hi)
		src := make([]float64, box.Size())
		for i := range src {
			src[i] = rng.Float64()
		}
		dst := make([]float64, box.Size())
		for _, piece := range gridTiles(nil, box, 8) {
			buf := make([]float64, piece.Size())
			server.CopyRegion(buf, piece, src, box, piece)
			server.CopyRegion(dst, box, buf, piece, piece)
		}
		for i := range src {
			if dst[i] != src[i] {
				t.Fatalf("round trip of %v diverged at element %d", box, i)
			}
		}
	}
}
