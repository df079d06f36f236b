package layout

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestSegmentsShapes pins the Seg contract on hand-checked cases: which
// stride each layout family reports and how segments relate to runs.
func TestSegmentsShapes(t *testing.T) {
	box := NewBox([]int64{2, 1}, []int64{5, 5}) // 3 rows x 4 cols
	cases := []struct {
		l      *Layout
		n      int
		first  Seg
		stride int64
	}{
		// One segment per row, placed with copy (stride 1).
		{RowMajor(8, 8), 3, Seg{Off: 17, Len: 4, Idx: 0, Stride: 1}, 1},
		// One segment per column, stepping a box row (4) per element.
		{ColMajor(8, 8), 4, Seg{Off: 10, Len: 3, Idx: 0, Stride: 4}, 4},
		// Diagonals i-j=c step down-right (cols+1), anti-diagonals
		// down-left (cols-1); the first one is the corner element.
		{Diagonal(8, 8), 6, Seg{Off: Diagonal(8, 8).Offset([]int64{2, 4}), Len: 1, Idx: 3, Stride: 5}, 5},
		{AntiDiagonal(8, 8), 6, Seg{Off: AntiDiagonal(8, 8).Offset([]int64{2, 1}), Len: 1, Idx: 0, Stride: 3}, 3},
		// 4x4 blocks: rows 2-3 of blocks (0,0),(0,1), row 4 of (1,0),(1,1).
		{Blocked(8, 8, 4, 4), 6, Seg{Off: 2*4 + 1, Len: 3, Idx: 0, Stride: 1}, 1},
	}
	for _, c := range cases {
		segs := c.l.AppendSegments(nil, box)
		if len(segs) != c.n || segs[0] != c.first {
			t.Errorf("%s: %d segments starting %+v, want %d starting %+v", c.l, len(segs), segs[0], c.n, c.first)
		}
		for _, s := range segs {
			if s.Stride != c.stride {
				t.Errorf("%s: segment %+v, want stride %d", c.l, s, c.stride)
			}
		}
		checkSegments(t, c.l, box)
	}
	// A full-width row-major band: one segment per row, one run in all.
	band := NewBox([]int64{2, 0}, []int64{5, 8})
	if segs := RowMajor(8, 8).AppendSegments(nil, band); len(segs) != 3 || len(AppendRuns(nil, segs)) != 1 {
		t.Errorf("row-major band: %d segments, %d runs, want 3 and 1", len(segs), len(AppendRuns(nil, segs)))
	}
	if segs := RowMajor(8, 8).AppendSegments(nil, NewBox([]int64{3, 3}, []int64{3, 9})); segs != nil {
		t.Errorf("empty box: segments %v", segs)
	}
}

// TestSegmentsRandomBoxes runs checkSegments over every layout family,
// permutations of rank 1 to 4 included (the fuzz generator stops at
// rank 3), on seeded random boxes that overhang the array.
func TestSegmentsRandomBoxes(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var layouts []*Layout
	for _, dims := range [][]int64{{11}, {7, 9}, {4, 5, 6}, {3, 4, 2, 5}} {
		for range dims {
			layouts = append(layouts, NewPermutation(dims, rng.Perm(len(dims))))
		}
	}
	layouts = append(layouts,
		Diagonal(7, 10), Diagonal(10, 7), AntiDiagonal(7, 10), AntiDiagonal(10, 7), AntiDiagonal(1, 6),
		Blocked(11, 7, 4, 5), Blocked(12, 12, 5, 5), Blocked(6, 6, 3, 2),
		General(8, 10, []int64{1, 2}), General(9, 5, []int64{3, -1}), General(6, 6, []int64{-2, 1}))
	for _, l := range layouts {
		dims := l.Dims()
		for trial := 0; trial < 60; trial++ {
			lo, hi := make([]int64, len(dims)), make([]int64, len(dims))
			for d := range dims {
				lo[d], hi[d] = rng.Int63n(dims[d]+4)-2, rng.Int63n(dims[d]+4)-2
				if hi[d] < lo[d] {
					lo[d], hi[d] = hi[d], lo[d]
				}
			}
			checkSegments(t, l, NewBox(lo, hi))
		}
		checkSegments(t, l, NewBox(make([]int64, len(dims)), dims))
	}
}

// TestAppendCoordMatchesCoord: the non-allocating inverse is the same
// function as Coord, appends after existing contents, and reuses the
// caller's storage.
func TestAppendCoordMatchesCoord(t *testing.T) {
	for _, l := range []*Layout{
		RowMajor(5, 7), NewPermutation([]int64{3, 4, 5}, []int{1, 2, 0}), Diagonal(5, 7),
		AntiDiagonal(7, 5), Blocked(7, 5, 3, 2), General(5, 7, []int64{1, 2}),
	} {
		scratch := make([]int64, 0, 8)
		for off := int64(0); off < l.Size(); off++ {
			want := l.Coord(off)
			got := l.AppendCoord(append(scratch[:0], -1), off)
			if got[0] != -1 || fmt.Sprint(got[1:]) != fmt.Sprint(want) || l.Offset(want) != off {
				t.Fatalf("%s: AppendCoord(%d) = %v, Coord %v", l, off, got, want)
			}
			if &got[0] != &scratch[:1][0] {
				t.Fatalf("%s: AppendCoord reallocated a slice with spare capacity", l)
			}
		}
		if n := testing.AllocsPerRun(50, func() { scratch = l.AppendCoord(scratch[:0], l.Size()/2) }); n != 0 {
			t.Errorf("%s: AppendCoord allocates %.0f objects with a reused slice", l, n)
		}
	}
}

// benchLayouts are the layout kinds the microbenchmarks sweep, on the
// benchmark's 1024-wide geometry (the table-backed General2D layout is
// kept to 64 rows so its O(N·M) set-up stays out of the way).
func benchLayouts() []*Layout {
	return []*Layout{
		RowMajor(1024, 1024), ColMajor(1024, 1024), Diagonal(1024, 1024), AntiDiagonal(1024, 1024),
		Blocked(1024, 1024, 64, 64), General(64, 1024, []int64{1, 2}),
	}
}

// benchBoxes are the two request shapes of the repository benchmark: a
// 32x32 tile (miss_point) and a 32-row full-width stripe (scan_stream).
var benchBoxes = []struct {
	name string
	box  Box
}{
	{"tile32x32", NewBox([]int64{32, 64}, []int64{64, 96})},
	{"stripe32x1024", NewBox([]int64{32, 0}, []int64{64, 1024})},
}

var (
	sinkRuns []Run
	sinkSegs []Seg
)

func BenchmarkRuns(b *testing.B) {
	for _, l := range benchLayouts() {
		for _, bb := range benchBoxes {
			b.Run(l.Name()+"/"+bb.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(bb.box.Size() * 8)
				sinkRuns = l.Runs(bb.box) // builds the General2D table outside the timer
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkRuns = l.Runs(bb.box)
				}
			})
		}
	}
}

// TestAppendSegmentsAllocs: with a reused dst, the permutation walk of
// rank <= 4 — every shape the tile engine moves — allocates nothing;
// its odometer scratch lives on the stack.
func TestAppendSegmentsAllocs(t *testing.T) {
	for _, dims := range [][]int64{{40}, {12, 9}, {6, 5, 7}, {3, 4, 2, 5}} {
		l := NewPermutation(dims, rand.New(rand.NewSource(int64(len(dims)))).Perm(len(dims)))
		hi := make([]int64, len(dims))
		for d := range hi {
			hi[d] = dims[d] - 1
		}
		box := NewBox(make([]int64, len(dims)), hi)
		segs := l.AppendSegments(nil, box)
		if allocs := testing.AllocsPerRun(50, func() { segs = l.AppendSegments(segs[:0], box) }); allocs != 0 {
			t.Errorf("%s: AppendSegments into a reused slice allocates %.0f objects, want 0", l, allocs)
		}
	}
}

func BenchmarkSegments(b *testing.B) {
	for _, l := range benchLayouts() {
		for _, bb := range benchBoxes {
			b.Run(l.Name()+"/"+bb.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(bb.box.Size() * 8)
				sinkSegs = l.AppendSegments(nil, bb.box)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sinkSegs = l.AppendSegments(nil, bb.box)
				}
			})
		}
	}
}
