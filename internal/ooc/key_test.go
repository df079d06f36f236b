package ooc

import (
	"testing"

	"outcore/internal/ir"
	"outcore/internal/layout"
)

// TestTileKeyDistinguishesHostileNames: arrays whose names would run
// together with a box's text ("A[0;4)" and "A") hold separate frames
// for the same box — identity is the array itself, not a rendering.
func TestTileKeyDistinguishesHostileNames(t *testing.T) {
	b := layout.NewBox([]int64{0}, []int64{4})
	pairs := [][2]string{
		{"A[0;4)", "A"},
		{"A1", "A"},
		{"a,b", "a"},
		{"x:", "x"},
	}
	for _, p := range pairs {
		d := NewDisk(0)
		e := NewEngine(d, EngineOptions{CacheTiles: 4})
		var hs [2]*Handle
		for i, name := range p {
			ar, err := d.CreateArray(ir.NewArray(name, 8), layout.RowMajor(8))
			if err != nil {
				t.Fatal(err)
			}
			ar.Fill(func([]int64) float64 { return float64(i + 1) })
			if hs[i], err = e.Acquire(ar, b); err != nil {
				t.Fatal(err)
			}
		}
		if hs[0].Tile() == hs[1].Tile() || hs[0].Tile().Data()[0] != 1 || hs[1].Tile().Data()[0] != 2 {
			t.Errorf("names %q and %q share a cached tile", p[0], p[1])
		}
		e.Release(hs[0], false)
		e.Release(hs[1], false)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzTileKey checks the frame table's identity rule, the property the
// whole cache hangs off: equal (array, box) pairs hash equal, and a
// lookup finds a frame iff its array and box are exactly the ones asked
// for — even when the two pairs are forced onto one hash, so the exact
// comparison, not the hash, decides.
func FuzzTileKey(f *testing.F) {
	f.Add("A", "A", int64(0), int64(0), int64(4), int64(4), int64(0), int64(0), int64(4), int64(4), uint8(2), uint8(2))
	f.Add("A", "A[0,0;4,4)", int64(0), int64(0), int64(4), int64(4), int64(0), int64(0), int64(4), int64(4), uint8(2), uint8(0))
	f.Add("A1", "A", int64(1), int64(0), int64(4), int64(4), int64(11), int64(0), int64(4), int64(4), uint8(1), uint8(1))
	f.Add("", "x", int64(-3), int64(7), int64(0), int64(0), int64(-3), int64(7), int64(0), int64(0), uint8(2), uint8(2))

	f.Fuzz(func(t *testing.T, n1, n2 string, a0, a1, a2, a3, b0, b1, b2, b3 int64, r1, r2 uint8) {
		mkBox := func(r uint8, v [4]int64) layout.Box {
			switch r % 3 {
			case 0:
				return layout.Box{}
			case 1:
				return layout.Box{Lo: []int64{v[0]}, Hi: []int64{v[2]}}
			default:
				return layout.Box{Lo: []int64{v[0], v[1]}, Hi: []int64{v[2], v[3]}}
			}
		}
		boxA := mkBox(r1, [4]int64{a0, a1, a2, a3})
		boxB := mkBox(r2, [4]int64{b0, b1, b2, b3})

		d := NewDisk(0)
		arA, err := d.CreateArray(ir.NewArray(n1, 1), layout.RowMajor(1))
		if err != nil {
			t.Fatal(err)
		}
		arB := arA
		if n2 != n1 {
			if arB, err = d.CreateArray(ir.NewArray(n2, 1), layout.RowMajor(1)); err != nil {
				t.Fatal(err)
			}
		}
		same := arA == arB && boxA.Rank() == boxB.Rank()
		if same {
			for dim := range boxA.Lo {
				if boxA.Lo[dim] != boxB.Lo[dim] || boxA.Hi[dim] != boxB.Hi[dim] {
					same = false
					break
				}
			}
		}
		hA, hB := tileHash(arA, boxA), tileHash(arB, boxB)
		if same && hA != hB {
			t.Fatalf("equal tiles hash apart: %x vs %x", hA, hB)
		}

		e := NewEngine(d, EngineOptions{CacheTiles: 1})
		e.mu.Lock()
		defer e.mu.Unlock()
		for _, hash := range []uint64{hA, hB} { // its own hash, then B's: a forced collision
			ent := e.insertLocked(hash, arA, boxA, false)
			if got := e.lookupLocked(hash, arA, boxA); got != ent {
				t.Fatalf("frame for %q %v not found under hash %x", n1, boxA, hash)
			}
			if got := e.lookupLocked(hash, arB, boxB); (got == ent) != same {
				t.Fatalf("lookup of %q %v under hash %x returned %v; same tile as %q %v: %v",
					n2, boxB, hash, got, n1, boxA, same)
			}
			e.removeLocked(ent)
			if e.lookupLocked(hash, arA, boxA) != nil || e.resident != 0 {
				t.Fatalf("frame still reachable after removal (resident %d)", e.resident)
			}
		}
	})
}

// TestFrameTableChains drives the collision chain directly: frames
// forced onto one hash stay individually reachable, removal from the
// head, middle and tail unlinks only the one frame, and recycled
// frames return through the free list with their own box copies.
func TestFrameTableChains(t *testing.T) {
	d := NewDisk(0)
	ar, err := d.CreateArray(ir.NewArray("A", 64), layout.RowMajor(64))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(d, EngineOptions{CacheTiles: 4})
	e.mu.Lock()
	defer e.mu.Unlock()
	const hash = 42
	var ents []*entry
	var boxes []layout.Box
	for i := int64(0); i < 5; i++ {
		box := layout.NewBox([]int64{8 * i}, []int64{8*i + 8})
		boxes = append(boxes, box)
		ents = append(ents, e.insertLocked(hash, ar, box, true))
	}
	for _, drop := range []int{2, 4, 0} { // middle, then the chain's two ends
		e.removeLocked(ents[drop])
		e.recycleLocked(ents[drop])
		ents[drop] = nil
		for i, ent := range ents {
			if got := e.lookupLocked(hash, ar, boxes[i]); got != ent {
				t.Fatalf("after dropping %d: lookup of frame %d = %p, want %p", drop, i, got, ent)
			}
		}
	}
	if e.resident != 2 || e.nfree != 3 {
		t.Fatalf("resident %d, free %d; want 2 and 3", e.resident, e.nfree)
	}
	box := layout.NewBox([]int64{40}, []int64{44})
	ent := e.insertLocked(7, ar, box, true)
	if ent.hnext != nil || e.nfree != 2 {
		t.Fatalf("recycled frame kept a stale chain link or free count %d", e.nfree)
	}
	box.Lo[0], box.Hi[0] = 0, 1 // the frame holds its own copy of the box
	if got := ent.tile.Box; got.Lo[0] != 40 || got.Hi[0] != 44 || len(ent.tile.Data()) != 4 {
		t.Fatalf("recycled frame holds box %v with %d elements, want [40,44) with 4", got, len(ent.tile.Data()))
	}
}
