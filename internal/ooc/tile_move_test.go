package ooc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"outcore/internal/ir"
	"outcore/internal/layout"
)

// oracleReadTile is the tile read as it was before segments: one
// backend read per run, every element placed through Layout.Coord and
// the bounds-checked elem. Slow, obviously right, and kept as the
// reference ReadTile is held to.
func oracleReadTile(ar *Array, box layout.Box) (*Tile, error) {
	box = box.Clip(ar.Meta.Dims)
	t := newTile(ar, box)
	runs := ar.Layout.Runs(box)
	ar.disk.account(ar.Meta.Name, ar.disk.callsFor(runs), box.Size(), false)
	ar.disk.recordRuns(ar.Meta.Name, runs, false)
	ar.disk.observeRuns(runs)
	for _, r := range runs {
		buf := make([]float64, r.Len)
		if err := ar.backend.ReadAt(buf, r.Off); err != nil {
			return nil, err
		}
		for i := int64(0); i < r.Len; i++ {
			*elem(t, ar.Layout.Coord(r.Off+i)...) = buf[i]
		}
	}
	return t, nil
}

// oracleWriteTile is the matching reference for WriteTile.
func oracleWriteTile(t *Tile) error {
	ar := t.Arr
	runs := ar.Layout.Runs(t.Box)
	ar.disk.account(ar.Meta.Name, ar.disk.callsFor(runs), t.Box.Size(), true)
	ar.disk.recordRuns(ar.Meta.Name, runs, true)
	ar.disk.observeRuns(runs)
	for _, r := range runs {
		buf := make([]float64, r.Len)
		for i := int64(0); i < r.Len; i++ {
			buf[i] = *elem(t, ar.Layout.Coord(r.Off+i)...)
		}
		if err := ar.backend.WriteAt(buf, r.Off); err != nil {
			return err
		}
	}
	return nil
}

// moveLayouts covers every layout kind: permutations of rank 1 to 4,
// both diagonal families (wide and tall), blocked layouts whose edge
// blocks are ragged, and table-backed hyperplanes.
func moveLayouts() []*layout.Layout {
	return []*layout.Layout{
		layout.RowMajor(37),
		layout.RowMajor(9, 13), layout.ColMajor(9, 13),
		layout.NewPermutation([]int64{5, 6, 7}, []int{1, 2, 0}), layout.ColMajor(5, 6, 7),
		layout.NewPermutation([]int64{3, 4, 5, 4}, []int{2, 0, 3, 1}), layout.RowMajor(3, 4, 5, 4),
		layout.Diagonal(9, 13), layout.Diagonal(13, 9), layout.AntiDiagonal(9, 13), layout.AntiDiagonal(13, 9),
		layout.Blocked(11, 13, 4, 5), layout.Blocked(12, 12, 4, 4),
		layout.General(9, 13, []int64{1, 2}), layout.General(10, 7, []int64{3, -1}),
	}
}

// TestTileMoveMatchesOracle drives the same seeded sequence of tile
// writes and reads through ReadTile/WriteTile on one disk and through
// the Coord-based oracle on a twin, over boxes that are clipped,
// degenerate, full-width or the whole array. Tiles, backend bytes,
// Disk.Stats and the per-call Disk.Trace must be identical: the segment
// walk moves the same elements in the same calls.
func TestTileMoveMatchesOracle(t *testing.T) {
	for _, maxCall := range []int64{0, 7, 128} {
		for li, l := range moveLayouts() {
			t.Run(fmt.Sprintf("cap%d/%s/%d", maxCall, l.Name(), li), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(li)*31 + maxCall))
				dims := l.Dims()
				mk := func() (*Disk, *Array) {
					d := NewDisk(maxCall)
					d.Record = true
					arr, err := d.CreateArray(ir.NewArray("A", dims...), l)
					if err != nil {
						t.Fatal(err)
					}
					return d, arr
				}
				dNew, aNew := mk()
				dOld, aOld := mk()
				for op := 0; op < 80; op++ {
					box := randomBox(rng, dims, op)
					if op%2 == 0 {
						tNew, tOld := aNew.NewTileZero(box), aOld.NewTileZero(box)
						for i := range tNew.data {
							tNew.data[i] = float64(op*10000 + i)
						}
						copy(tOld.data, tNew.data)
						if err := tNew.WriteTile(); err != nil {
							t.Fatal(err)
						}
						if err := oracleWriteTile(tOld); err != nil {
							t.Fatal(err)
						}
					} else {
						tNew, err := aNew.ReadTile(box)
						if err != nil {
							t.Fatal(err)
						}
						tOld, err := oracleReadTile(aOld, box)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(tNew.data, tOld.data) || !reflect.DeepEqual(tNew.Box, tOld.Box) {
							t.Fatalf("op %d box %v: ReadTile = %v %v, oracle %v %v", op, box, tNew.Box, tNew.data, tOld.Box, tOld.data)
						}
					}
				}
				rawNew, rawOld := make([]float64, l.Size()), make([]float64, l.Size())
				if err := aNew.backend.ReadAt(rawNew, 0); err != nil {
					t.Fatal(err)
				}
				if err := aOld.backend.ReadAt(rawOld, 0); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rawNew, rawOld) {
					t.Fatalf("backend bytes differ:\nnew    %v\noracle %v", rawNew, rawOld)
				}
				if dNew.Stats != dOld.Stats || *dNew.PerFile["A"] != *dOld.PerFile["A"] {
					t.Fatalf("stats differ: new %+v, oracle %+v", dNew.Stats, dOld.Stats)
				}
				if !reflect.DeepEqual(dNew.Trace, dOld.Trace) {
					t.Fatalf("traces differ (%d vs %d entries)", len(dNew.Trace), len(dOld.Trace))
				}
			})
		}
	}
}

// randomBox draws a box that overhangs the array by up to two on each
// side; every tenth draw is the whole array and every tenth-plus-five a
// full-width band (long runs, the no-bounce path for row-major).
func randomBox(rng *rand.Rand, dims []int64, op int) layout.Box {
	lo, hi := make([]int64, len(dims)), make([]int64, len(dims))
	for d := range dims {
		switch {
		case op%10 == 9, op%10 == 4 && d > 0:
			lo[d], hi[d] = 0, dims[d]
		default:
			lo[d], hi[d] = rng.Int63n(dims[d]+4)-2, rng.Int63n(dims[d]+4)-2
			if hi[d] < lo[d] {
				lo[d], hi[d] = hi[d], lo[d]
			}
		}
	}
	return layout.NewBox(lo, hi)
}

// TestReadTileAllocsIndependentOfElems pins the miss path's allocation
// count: a tile read allocates the tile, the segment and run lists and
// their scratch — nothing per element. A 64x64 tile may cost no more
// objects than a 16x16 one, so a reintroduced per-element allocation
// fails here rather than in a benchmark.
func TestReadTileAllocsIndependentOfElems(t *testing.T) {
	d := NewDisk(0)
	arr, err := d.CreateArray(ir.NewArray("a", 256, 256), layout.RowMajor(256, 256))
	if err != nil {
		t.Fatal(err)
	}
	for _, edge := range []int64{16, 64} {
		box := box2(32, 64, 32+edge, 64+edge)
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := arr.ReadTile(box); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 12 {
			t.Errorf("ReadTile of a %dx%d tile allocates %.0f objects, want <= 12", edge, edge, allocs)
		}
	}
}

// benchArrays mirrors the layout package's microbenchmark sweep: every
// layout kind on the repository benchmark's 1024-wide geometry.
func benchArrays(b *testing.B) []*Array {
	var arrs []*Array
	for _, l := range []*layout.Layout{
		layout.RowMajor(1024, 1024), layout.ColMajor(1024, 1024),
		layout.Diagonal(1024, 1024), layout.AntiDiagonal(1024, 1024),
		layout.Blocked(1024, 1024, 64, 64), layout.General(64, 1024, []int64{1, 2}),
	} {
		arr, err := NewDisk(8192).CreateArray(ir.NewArray("A", l.Dims()...), l)
		if err != nil {
			b.Fatal(err)
		}
		arrs = append(arrs, arr)
	}
	return arrs
}

var benchTileBoxes = []struct {
	name string
	box  layout.Box
}{
	{"tile32x32", box2(32, 64, 64, 96)},
	{"stripe32x1024", box2(32, 0, 64, 1024)},
}

var sinkTile *Tile

func BenchmarkReadTile(b *testing.B) {
	for _, arr := range benchArrays(b) {
		for _, bb := range benchTileBoxes {
			b.Run(arr.Layout.Name()+"/"+bb.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(bb.box.Size() * ElemSize)
				sinkTile, _ = arr.ReadTile(bb.box) // builds the General2D table outside the timer
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t, err := arr.ReadTile(bb.box)
					if err != nil {
						b.Fatal(err)
					}
					sinkTile = t
				}
			})
		}
	}
}

func BenchmarkWriteTile(b *testing.B) {
	for _, arr := range benchArrays(b) {
		for _, bb := range benchTileBoxes {
			b.Run(arr.Layout.Name()+"/"+bb.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(bb.box.Size() * ElemSize)
				t := arr.NewTileZero(bb.box)
				if err := t.WriteTile(); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := t.WriteTile(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
