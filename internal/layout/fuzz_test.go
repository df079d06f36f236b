package layout

import (
	"slices"
	"sort"
	"testing"
)

// bruteRuns recomputes Runs the definitionally-correct way: enumerate
// every element of the clipped box, map it through Offset, sort, and
// merge adjacent offsets into maximal contiguous segments. O(size log
// size), but independent of every per-kind segment enumerator.
func bruteRuns(l *Layout, box Box) []Run {
	box = box.Clip(l.Dims())
	if box.Empty() {
		return nil
	}
	offs := make([]int64, 0, box.Size())
	cur := append([]int64(nil), box.Lo...)
	for {
		offs = append(offs, l.Offset(cur))
		k := len(cur) - 1
		for ; k >= 0; k-- {
			cur[k]++
			if cur[k] < box.Hi[k] {
				break
			}
			cur[k] = box.Lo[k]
		}
		if k < 0 {
			break
		}
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	var runs []Run
	for _, o := range offs {
		if n := len(runs); n > 0 && runs[n-1].Off+runs[n-1].Len == o {
			runs[n-1].Len++
		} else {
			runs = append(runs, Run{Off: o, Len: 1})
		}
	}
	return runs
}

// clampPos maps an arbitrary fuzzed int64 into [1, n].
func clampPos(v, n int64) int64 {
	v %= n
	if v < 0 {
		v += n
	}
	return v + 1
}

// fuzzBound maps an arbitrary fuzzed coordinate into [-2, dim+2] so the
// box exercises clipping on both sides without overflowing.
func fuzzBound(v, dim int64) int64 {
	span := dim + 5
	v %= span
	if v < 0 {
		v += span
	}
	return v - 2
}

// fuzzCase maps arbitrary fuzzed integers to a small layout of one of
// the seven families (every kind, plus a rank-3 permutation) and a box
// that may overhang the array on any side. FuzzRuns and FuzzSegments
// share it, and therefore each other's corpora.
func fuzzCase(kind uint8, n, m, b1, b2, ga, gb, lo0, lo1, hi0, hi1, lo2, hi2 int64) (*Layout, Box) {
	n, m = clampPos(n, 12), clampPos(m, 12)
	b1, b2 = clampPos(b1, 6), clampPos(b2, 6)
	var l *Layout
	rank := 2
	switch kind % 7 {
	case 0:
		l = RowMajor(n, m)
	case 1:
		l = ColMajor(n, m)
	case 2:
		l = Diagonal(n, m)
	case 3:
		l = AntiDiagonal(n, m)
	case 4:
		l = Blocked(n, m, b1, b2)
	case 5:
		// Arbitrary 2-D hyperplane (General falls back to the
		// closed-form kinds for canonical vectors).
		g := []int64{clampPos(ga, 4) - 2, clampPos(gb, 4) - 2}
		if g[0] == 0 && g[1] == 0 {
			g[0] = 1
		}
		l = General(n, m, g)
	case 6:
		// Rank-3 permutation layout.
		k3 := clampPos(b1, 6)
		perms := [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}, {2, 1, 0}}
		l = NewPermutation([]int64{n, m, k3}, perms[int(clampPos(b2, int64(len(perms))))-1])
		rank = 3
	}
	dims := l.Dims()
	lo := []int64{fuzzBound(lo0, dims[0]), fuzzBound(lo1, dims[1])}
	hi := []int64{fuzzBound(hi0, dims[0]), fuzzBound(hi1, dims[1])}
	if rank == 3 {
		lo = append(lo, fuzzBound(lo2, dims[2]))
		hi = append(hi, fuzzBound(hi2, dims[2]))
	}
	for d := range lo {
		if hi[d] < lo[d] {
			lo[d], hi[d] = hi[d], lo[d]
		}
	}
	return l, NewBox(lo, hi)
}

// addRunsSeeds seeds a fuzzer with the shapes of the table tests
// (runs_test.go): row-major full-row bands and square tiles,
// column-major bands, the Figure-3 call-count shapes, diagonal and
// blocked layouts.
func addRunsSeeds(f *testing.F) {
	f.Add(uint8(0), int64(8), int64(8), int64(2), int64(2), int64(1), int64(1), int64(2), int64(0), int64(5), int64(8), int64(0), int64(1))
	f.Add(uint8(0), int64(8), int64(8), int64(2), int64(2), int64(1), int64(1), int64(0), int64(0), int64(4), int64(4), int64(0), int64(1))
	f.Add(uint8(1), int64(8), int64(8), int64(2), int64(2), int64(1), int64(1), int64(0), int64(2), int64(8), int64(5), int64(0), int64(1))
	f.Add(uint8(1), int64(8), int64(8), int64(2), int64(2), int64(1), int64(1), int64(2), int64(0), int64(4), int64(8), int64(0), int64(1))
	f.Add(uint8(2), int64(8), int64(8), int64(2), int64(2), int64(1), int64(-1), int64(1), int64(1), int64(5), int64(6), int64(0), int64(1))
	f.Add(uint8(3), int64(8), int64(8), int64(2), int64(2), int64(1), int64(1), int64(0), int64(3), int64(6), int64(8), int64(0), int64(1))
	f.Add(uint8(4), int64(8), int64(8), int64(4), int64(4), int64(1), int64(1), int64(1), int64(1), int64(7), int64(7), int64(0), int64(1))
	f.Add(uint8(5), int64(6), int64(9), int64(3), int64(2), int64(2), int64(3), int64(0), int64(0), int64(6), int64(9), int64(0), int64(1))
	f.Add(uint8(6), int64(5), int64(4), int64(3), int64(2), int64(1), int64(1), int64(1), int64(0), int64(4), int64(3), int64(1), int64(3))
}

// FuzzRuns cross-checks every layout kind's run enumerator against the
// brute-force per-element reference.
func FuzzRuns(f *testing.F) {
	addRunsSeeds(f)
	f.Fuzz(func(t *testing.T, kind uint8, n, m, b1, b2, ga, gb, lo0, lo1, hi0, hi1, lo2, hi2 int64) {
		l, box := fuzzCase(kind, n, m, b1, b2, ga, gb, lo0, lo1, hi0, hi1, lo2, hi2)
		dims := l.Dims()

		got := l.Runs(box)
		want := bruteRuns(l, box)
		if len(got) != len(want) {
			t.Fatalf("%s box %v: %d runs, brute force %d\ngot  %v\nwant %v", l, box, len(got), len(want), got, want)
		}
		var total int64
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s box %v: run %d = %v, brute force %v", l, box, i, got[i], want[i])
			}
			if i > 0 && got[i].Off <= got[i-1].Off+got[i-1].Len {
				t.Fatalf("%s box %v: runs %d,%d not maximal/sorted: %v", l, box, i-1, i, got)
			}
			total += got[i].Len
		}
		if clipped := box.Clip(dims); total != clipped.Size() {
			t.Fatalf("%s box %v: runs cover %d elements, box holds %d", l, box, total, clipped.Size())
		}
	})
}

// checkSegments holds AppendSegments to its contract against oracles
// that share none of its arithmetic: merged, the segments are exactly
// the brute-force runs; they are sorted and disjoint in the file; file
// element Off+i sits where Coord says it does, at box-local row-major
// index Idx+i·Stride; and those indices are a permutation of the box.
func checkSegments(t *testing.T, l *Layout, box Box) {
	t.Helper()
	segs := l.AppendSegments(nil, box)
	got, want := AppendRuns(nil, segs), bruteRuns(l, box)
	checkAppendKeepsPrefix(t, l, box, segs, got)
	if len(got) != len(want) {
		t.Fatalf("%s box %v: segments merge to %d runs, brute force %d\ngot  %v\nwant %v", l, box, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s box %v: merged run %d = %v, brute force %v", l, box, i, got[i], want[i])
		}
	}
	for i, r := range l.Runs(box) {
		if r != want[i] {
			t.Fatalf("%s box %v: Runs()[%d] = %v, brute force %v", l, box, i, r, want[i])
		}
	}
	clipped := box.Clip(l.Dims())
	seen := make([]bool, clipped.Size())
	end := int64(-1)
	for k, s := range segs {
		if s.Len < 1 || s.Off < end {
			t.Fatalf("%s box %v: segment %d = %+v empty, unsorted or overlapping (previous ends at %d)", l, box, k, s, end)
		}
		end = s.Off + s.Len
		for i := int64(0); i < s.Len; i++ {
			c := l.Coord(s.Off + i)
			if !clipped.Contains(c) {
				t.Fatalf("%s box %v: segment %d = %+v covers %v, outside the box", l, box, k, s, c)
			}
			var idx int64
			for d := range c {
				idx = idx*(clipped.Hi[d]-clipped.Lo[d]) + c[d] - clipped.Lo[d]
			}
			if at := s.Idx + i*s.Stride; at != idx {
				t.Fatalf("%s box %v: segment %d = %+v places offset %d (coord %v) at index %d, want %d", l, box, k, s, s.Off+i, c, at, idx)
			}
			if seen[idx] {
				t.Fatalf("%s box %v: index %d placed twice", l, box, idx)
			}
			seen[idx] = true
		}
	}
	for idx, ok := range seen {
		if !ok {
			t.Fatalf("%s box %v: index %d never placed", l, box, idx)
		}
	}
}

// checkAppendKeepsPrefix requires the append forms to leave dst's
// existing elements alone: segments land after a prefix unchanged, and
// a prefix run that ends where the first segment starts is not merged
// into (the tile mover reuses its scratch from index 0, but a caller
// may not).
func checkAppendKeepsPrefix(t *testing.T, l *Layout, box Box, segs []Seg, runs []Run) {
	t.Helper()
	preSeg := Seg{Off: -7, Len: 3, Idx: -1, Stride: 2}
	if got := l.AppendSegments([]Seg{preSeg}, box); got[0] != preSeg || !slices.Equal(got[1:], segs) {
		t.Fatalf("%s box %v: AppendSegments after a prefix = %v, want %v then %v", l, box, got, preSeg, segs)
	}
	if len(segs) == 0 {
		return
	}
	preRun := Run{Off: segs[0].Off - 1, Len: 1}
	if got := AppendRuns([]Run{preRun}, segs); got[0] != preRun || !slices.Equal(got[1:], runs) {
		t.Fatalf("%s box %v: AppendRuns after an adjacent prefix = %v, want %v then %v", l, box, got, preRun, runs)
	}
}

// FuzzSegments holds the segment walk of every layout kind to
// checkSegments, over the FuzzRuns generator and seeds.
func FuzzSegments(f *testing.F) {
	addRunsSeeds(f)
	f.Fuzz(func(t *testing.T, kind uint8, n, m, b1, b2, ga, gb, lo0, lo1, hi0, hi1, lo2, hi2 int64) {
		l, box := fuzzCase(kind, n, m, b1, b2, ga, gb, lo0, lo1, hi0, hi1, lo2, hi2)
		checkSegments(t, l, box)
	})
}

// FuzzBoxOverlaps cross-checks Overlaps against per-element membership.
func FuzzBoxOverlaps(f *testing.F) {
	f.Add(int64(0), int64(0), int64(4), int64(4), int64(2), int64(2), int64(6), int64(6))
	f.Add(int64(0), int64(0), int64(4), int64(4), int64(4), int64(0), int64(8), int64(4))
	f.Fuzz(func(t *testing.T, alo0, alo1, ahi0, ahi1, blo0, blo1, bhi0, bhi1 int64) {
		norm := func(lo, hi int64) (int64, int64) {
			lo, hi = fuzzBound(lo, 8), fuzzBound(hi, 8)
			if hi < lo {
				lo, hi = hi, lo
			}
			return lo, hi
		}
		al0, ah0 := norm(alo0, ahi0)
		al1, ah1 := norm(alo1, ahi1)
		bl0, bh0 := norm(blo0, bhi0)
		bl1, bh1 := norm(blo1, bhi1)
		a := NewBox([]int64{al0, al1}, []int64{ah0, ah1})
		b := NewBox([]int64{bl0, bl1}, []int64{bh0, bh1})
		want := false
		for i := al0; i < ah0 && !want; i++ {
			for j := al1; j < ah1; j++ {
				if b.Contains([]int64{i, j}) {
					want = true
					break
				}
			}
		}
		if got := a.Overlaps(b); got != want {
			t.Fatalf("Overlaps(%v, %v) = %v, element check %v", a, b, got, want)
		}
		if a.Overlaps(b) != b.Overlaps(a) {
			t.Fatalf("Overlaps not symmetric for %v, %v", a, b)
		}
	})
}
