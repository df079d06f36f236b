package keyhash

import (
	"sort"
	"testing"
	"testing/quick"

	"outcore/internal/layout"
)

// TestSumPinned pins Sum against precomputed values: the hash is part
// of the operational contract (a tile's owning storage node must never
// move across runs, processes or releases while the member set is
// fixed), so these anchors fail loudly if anyone touches the key
// encoding or the hash function.
func TestSumPinned(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi []int64
		want   uint64
	}{
		{"A", []int64{0, 0}, []int64{8, 8}, 0x00e0011b7e038ff9},
		{"A", []int64{8, 0}, []int64{16, 8}, 0xe849690c3c919193},
		{"A", []int64{0, 8}, []int64{8, 16}, 0xb23ff839d30b7936},
		{"B", []int64{0, 0}, []int64{8, 8}, 0xace4b22bff201d0e},
		{"T", []int64{0}, []int64{16}, 0xaa63a09e88cb5e57},
		{"T", []int64{16}, []int64{32}, 0x6b9a5bc0bb25a9eb},
		{"T", []int64{112}, []int64{128}, 0xf8facd5c2aee8b18},
	}
	for _, c := range cases {
		box := layout.NewBox(c.lo, c.hi)
		if got := Sum(c.name, box); got != c.want {
			t.Errorf("Sum(%q, %v) = %#x, pinned %#x", c.name, box, got, c.want)
		}
	}
}

// TestSumMatchesBytes pins Sum as exactly Bytes over AppendKey — the
// stack-buffer fast path must not diverge from the materialized form.
func TestSumMatchesBytes(t *testing.T) {
	f := func(name string, lo0, ext0 uint16) bool {
		box := layout.NewBox([]int64{int64(lo0)}, []int64{int64(lo0) + int64(ext0) + 1})
		return Sum(name, box) == Bytes(AppendKey(nil, name, box))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestRendezvousStability is the property rendezvous hashing exists
// for: removing one member never moves a key between two surviving
// members — only keys owned by the removed member relocate. Modulo
// placement reshuffles almost everything; the cluster router's
// membership math depends on this difference.
func TestRendezvousStability(t *testing.T) {
	members := []string{"n0", "n1", "n2", "n3", "n4"}
	sums := make([]uint64, len(members))
	for i, m := range members {
		sums[i] = String(m)
	}
	rank := func(keySum uint64, skip int) []int {
		type sc struct {
			i int
			s uint64
		}
		var scores []sc
		for i := range members {
			if i == skip {
				continue
			}
			scores = append(scores, sc{i, Rendezvous(keySum, sums[i])})
		}
		sort.Slice(scores, func(a, b int) bool { return scores[a].s > scores[b].s })
		out := make([]int, len(scores))
		for i, s := range scores {
			out[i] = s.i
		}
		return out
	}
	moved, total := 0, 0
	for tr := int64(0); tr < 32; tr++ {
		for tc := int64(0); tc < 32; tc++ {
			box := layout.NewBox([]int64{tr * 8, tc * 8}, []int64{(tr + 1) * 8, (tc + 1) * 8})
			ks := Sum("A", box)
			full := rank(ks, -1)
			for dead := range members {
				without := rank(ks, dead)
				if full[0] == dead {
					moved++ // this key's owner died; it must relocate
					continue
				}
				if without[0] != full[0] {
					t.Fatalf("tile (%d,%d): removing member %d moved the owner %d -> %d",
						tr, tc, dead, full[0], without[0])
				}
			}
			total++
		}
	}
	if moved == 0 || moved == total*len(members) {
		t.Fatalf("degenerate ownership distribution: %d of %d (key, removal) pairs relocated", moved, total*len(members))
	}
}

// TestRendezvousBalance checks that top-2 rendezvous placement (the
// cluster's R=2 replica sets) spreads a tile grid across 5 members
// within 20% of the per-member mean.
func TestRendezvousBalance(t *testing.T) {
	members := []string{"n0", "n1", "n2", "n3", "n4"}
	sums := make([]uint64, len(members))
	for i, m := range members {
		sums[i] = String(m)
	}
	counts := make([]int, len(members))
	tiles := 0
	for tr := int64(0); tr < 64; tr++ {
		for tc := int64(0); tc < 64; tc++ {
			box := layout.NewBox([]int64{tr * 8, tc * 8}, []int64{(tr + 1) * 8, (tc + 1) * 8})
			ks := Sum("A", box)
			best, second := -1, -1
			var bs, ss uint64
			for i := range members {
				s := Rendezvous(ks, sums[i])
				switch {
				case best < 0 || s > bs:
					second, ss = best, bs
					best, bs = i, s
				case second < 0 || s > ss:
					second, ss = i, s
				}
			}
			counts[best]++
			counts[second]++
			tiles++
		}
	}
	mean := float64(2*tiles) / float64(len(members))
	for i, c := range counts {
		if dev := float64(c)/mean - 1; dev > 0.20 || dev < -0.20 {
			t.Errorf("member %d holds %d replica slots (%.1f%% off the mean %.0f)", i, c, 100*dev, mean)
		}
	}
}

// TestAppendKeyDistinguishesHostileNames: names that would run into the
// coordinate section without the length prefix still get distinct keys.
func TestAppendKeyDistinguishesHostileNames(t *testing.T) {
	b := layout.NewBox([]int64{0}, []int64{4})
	pairs := [][2]string{
		{"A[0;4)", "A"},
		{"A1", "A"},
		{"a,b", "a"},
		{"x:", "x"},
	}
	for _, p := range pairs {
		k0, k1 := AppendKey(nil, p[0], b), AppendKey(nil, p[1], b)
		if string(k0) == string(k1) {
			t.Errorf("names %q and %q collide: %s", p[0], p[1], k0)
		}
	}
}

// FuzzAppendKey checks key injectivity: two (name, box) pairs share a
// key iff name and box are equal — the property the router's tile
// table and replica placement hang off.
func FuzzAppendKey(f *testing.F) {
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

		same := n1 == n2 && boxA.Rank() == boxB.Rank()
		if same {
			for d := range boxA.Lo {
				if boxA.Lo[d] != boxB.Lo[d] || boxA.Hi[d] != boxB.Hi[d] {
					same = false
					break
				}
			}
		}
		k1, k2 := string(AppendKey(nil, n1, boxA)), string(AppendKey(nil, n2, boxB))
		if same && k1 != k2 {
			t.Errorf("equal inputs, different keys: %q vs %q", k1, k2)
		}
		if !same && k1 == k2 {
			t.Errorf("distinct inputs collide on key %q: name %q box %v vs name %q box %v",
				k1, n1, boxA, n2, boxB)
		}
	})
}
