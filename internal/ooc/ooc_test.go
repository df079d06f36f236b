package ooc

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"outcore/internal/ir"
	"outcore/internal/layout"
)

// elem points at the tile element at global coordinates c, indexing
// Data() row-major over the tile's box — the tile's only element
// order. It panics outside the box.
func elem(t *Tile, c ...int64) *float64 {
	var idx int64
	for d, x := range c {
		lo, n := t.Box.Lo[d], t.Box.Hi[d]-t.Box.Lo[d]
		if x < lo || x >= lo+n {
			panic(fmt.Sprintf("coordinate %v outside tile %v", c, t.Box))
		}
		idx = idx*n + x - lo
	}
	return &t.Data()[idx]
}

func mk2D(t *testing.T, d *Disk, name string, n, m int64, l *layout.Layout) (*ir.Array, *Array) {
	t.Helper()
	meta := ir.NewArray(name, n, m)
	arr, err := d.CreateArray(meta, l)
	if err != nil {
		t.Fatal(err)
	}
	return meta, arr
}

func TestCreateArrayErrors(t *testing.T) {
	d := NewDisk(0)
	meta := ir.NewArray("A", 4, 4)
	if _, err := d.CreateArray(meta, layout.RowMajor(4, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateArray(meta, layout.RowMajor(4, 4)); err == nil {
		t.Error("duplicate create accepted")
	}
	if _, err := d.CreateArray(ir.NewArray("B", 4, 4), layout.RowMajor(8, 8)); err == nil {
		t.Error("size-mismatched layout accepted")
	}
	if d.ArrayOf(meta) == nil {
		t.Error("ArrayOf lookup failed")
	}
}

func TestReadTileCallAccounting(t *testing.T) {
	d := NewDisk(8)
	_, arr := mk2D(t, d, "V", 8, 8, layout.ColMajor(8, 8))
	// Figure 3(a): a 4x4 tile of a column-major array = 4 runs of 4
	// elements = 4 calls under an 8-element cap.
	if _, err := arr.ReadTile(layout.NewBox([]int64{0, 0}, []int64{4, 4})); err != nil {
		t.Fatal(err)
	}
	if d.Stats.ReadCalls != 4 {
		t.Errorf("4x4 tile: %d calls, want 4", d.Stats.ReadCalls)
	}
	if d.Stats.ElemsRead != 16 {
		t.Errorf("elements read = %d", d.Stats.ElemsRead)
	}
	d.ResetStats()
	// Figure 3(b): an 8x2 tile (two full columns) = 1 run of 16 = 2
	// calls under the 8-element cap.
	if _, err := arr.ReadTile(layout.NewBox([]int64{0, 0}, []int64{8, 2})); err != nil {
		t.Fatal(err)
	}
	if d.Stats.ReadCalls != 2 {
		t.Errorf("8x2 tile: %d calls, want 2", d.Stats.ReadCalls)
	}
}

func TestWriteTileRoundTrip(t *testing.T) {
	d := NewDisk(0)
	meta, arr := mk2D(t, d, "U", 6, 6, layout.Diagonal(6, 6))
	arr.Fill(func(c []int64) float64 { return float64(c[0]*10 + c[1]) })
	box := layout.NewBox([]int64{1, 2}, []int64{4, 5})
	tile, err := arr.ReadTile(box)
	if err != nil {
		t.Fatal(err)
	}
	for i := box.Lo[0]; i < box.Hi[0]; i++ {
		for j := box.Lo[1]; j < box.Hi[1]; j++ {
			if got := *elem(tile, i, j); got != float64(i*10+j) {
				t.Fatalf("tile(%d,%d) = %v", i, j, got)
			}
			*elem(tile, i, j) = float64(-i - j)
		}
	}
	if err := tile.WriteTile(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 6; i++ {
		for j := int64(0); j < 6; j++ {
			want := float64(i*10 + j)
			if box.Contains([]int64{i, j}) {
				want = float64(-i - j)
			}
			if got := arr.At([]int64{i, j}); got != want {
				t.Errorf("A(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	if d.Stats.WriteCalls == 0 || d.Stats.ElemsWritten != box.Size() {
		t.Errorf("write accounting: %+v", d.Stats)
	}
	_ = meta
}

func TestTileClipping(t *testing.T) {
	d := NewDisk(0)
	_, arr := mk2D(t, d, "A", 4, 4, layout.RowMajor(4, 4))
	tile, err := arr.ReadTile(layout.NewBox([]int64{2, 2}, []int64{8, 8}))
	if err != nil {
		t.Fatal(err)
	}
	if tile.Size() != 4 {
		t.Errorf("clipped tile size = %d", tile.Size())
	}
}

func TestPerFileStatsAndTrace(t *testing.T) {
	d := NewDisk(4)
	d.Record = true
	_, a := mk2D(t, d, "A", 4, 4, layout.RowMajor(4, 4))
	_, b := mk2D(t, d, "B", 4, 4, layout.RowMajor(4, 4))
	if _, err := a.ReadTile(layout.NewBox([]int64{0, 0}, []int64{1, 4})); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadTile(layout.NewBox([]int64{0, 0}, []int64{4, 4})); err != nil {
		t.Fatal(err)
	}
	if d.PerFile["A"].ReadCalls != 1 {
		t.Errorf("A calls = %d", d.PerFile["A"].ReadCalls)
	}
	// B: full array = 1 run of 16, cap 4 -> 4 calls.
	if d.PerFile["B"].ReadCalls != 4 {
		t.Errorf("B calls = %d", d.PerFile["B"].ReadCalls)
	}
	if len(d.Trace) != 5 {
		t.Errorf("trace length = %d, want 5", len(d.Trace))
	}
	for _, r := range d.Trace {
		if r.Len > 4 {
			t.Errorf("trace call longer than cap: %+v", r)
		}
	}
	if d.Stats.Calls() != 5 || d.Stats.Bytes() != (4+16)*ElemSize {
		t.Errorf("stats: %+v", d.Stats)
	}
	d.ResetStats()
	if d.Stats.Calls() != 0 || len(d.Trace) != 0 {
		t.Error("reset failed")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	d := NewDisk(0)
	meta, arr := mk2D(t, d, "A", 5, 7, layout.AntiDiagonal(5, 7))
	s := ir.NewStore(meta)
	rng := rand.New(rand.NewSource(1))
	for i := range s.Data(meta) {
		s.Data(meta)[i] = rng.Float64()
	}
	arr.FromStore(s)
	back := ir.NewStore(meta)
	arr.ToStore(back)
	if diff := ir.MaxAbsDiff(s, back, meta); diff != 0 {
		t.Errorf("store roundtrip diff %g", diff)
	}
}

func TestNewTileZero(t *testing.T) {
	d := NewDisk(0)
	_, arr := mk2D(t, d, "A", 4, 4, layout.RowMajor(4, 4))
	tile := arr.NewTileZero(layout.NewBox([]int64{0, 0}, []int64{2, 2}))
	if d.Stats.ReadCalls != 0 {
		t.Error("zero tile issued reads")
	}
	*elem(tile, 1, 1) = 5
	if err := tile.WriteTile(); err != nil {
		t.Fatal(err)
	}
	if arr.At([]int64{1, 1}) != 5 || arr.At([]int64{0, 0}) != 0 {
		t.Error("zero tile write wrong")
	}
}

func TestMemoryBudget(t *testing.T) {
	m := NewMemory(100)
	if err := m.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if err := m.Alloc(50); err == nil {
		t.Fatal("over-allocation accepted")
	}
	if err := m.Alloc(40); err != nil {
		t.Fatal(err)
	}
	if m.Used() != 100 || m.Peak() != 100 {
		t.Errorf("used %d peak %d", m.Used(), m.Peak())
	}
	m.Release(100)
	if m.Used() != 0 || m.Peak() != 100 {
		t.Error("release bookkeeping wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("underflow did not panic")
		}
	}()
	m.Release(1)
}

func TestMemoryUnlimited(t *testing.T) {
	m := NewMemory(0)
	if err := m.Alloc(1 << 40); err != nil {
		t.Error("unlimited budget refused allocation")
	}
}

func TestPropertyTileRoundTripAllLayouts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, mCols := int64(3+rng.Intn(6)), int64(3+rng.Intn(6))
		layouts := []*layout.Layout{
			layout.RowMajor(n, mCols),
			layout.ColMajor(n, mCols),
			layout.Diagonal(n, mCols),
			layout.AntiDiagonal(n, mCols),
			layout.Blocked(n, mCols, 2, 2),
			layout.General(n, mCols, []int64{3, 2}),
		}
		l := layouts[rng.Intn(len(layouts))]
		d := NewDisk(int64(rng.Intn(8))) // 0..7 cap
		meta := ir.NewArray("A", n, mCols)
		arr, err := d.CreateArray(meta, l)
		if err != nil {
			return false
		}
		arr.Fill(func(c []int64) float64 { return float64(c[0]*100 + c[1]) })
		lo := []int64{int64(rng.Intn(int(n))), int64(rng.Intn(int(mCols)))}
		hi := []int64{lo[0] + int64(1+rng.Intn(int(n))), lo[1] + int64(1+rng.Intn(int(mCols)))}
		box := layout.NewBox(lo, hi).Clip(meta.Dims)
		if box.Empty() {
			return true
		}
		tile, err := arr.ReadTile(box)
		if err != nil {
			return false
		}
		// Contents must match, and byte accounting must equal box size.
		for i := box.Lo[0]; i < box.Hi[0]; i++ {
			for j := box.Lo[1]; j < box.Hi[1]; j++ {
				if *elem(tile, i, j) != float64(i*100+j) {
					return false
				}
			}
		}
		if d.Stats.ElemsRead != box.Size() {
			return false
		}
		// Calls >= runs >= 1; calls never exceed element count.
		if d.Stats.ReadCalls < 1 || d.Stats.ReadCalls > box.Size() {
			return false
		}
		if err := tile.WriteTile(); err != nil {
			return false
		}
		return d.Stats.ElemsWritten == box.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
