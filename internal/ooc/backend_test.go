package ooc

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"outcore/internal/ir"
	"outcore/internal/layout"
)

func TestFileBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := NewDisk(0).Dir(dir)
	defer d.Close()
	meta := ir.NewArray("A", 8, 8)
	arr, err := d.CreateArray(meta, layout.RowMajor(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	arr.Fill(func(c []int64) float64 { return float64(c[0]*8 + c[1]) })
	// The backing file must exist with the right size.
	fi, err := os.Stat(filepath.Join(dir, "A.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 64*ElemSize {
		t.Errorf("file size = %d", fi.Size())
	}
	// Tile round trip through real file I/O.
	box := layout.NewBox([]int64{2, 1}, []int64{5, 7})
	tile, err := arr.ReadTile(box)
	if err != nil {
		t.Fatal(err)
	}
	for i := box.Lo[0]; i < box.Hi[0]; i++ {
		for j := box.Lo[1]; j < box.Hi[1]; j++ {
			if got := *elem(tile, i, j); got != float64(i*8+j) {
				t.Fatalf("tile(%d,%d) = %v", i, j, got)
			}
			*elem(tile, i, j) = -1
		}
	}
	if err := tile.WriteTile(); err != nil {
		t.Fatal(err)
	}
	if arr.At([]int64{3, 3}) != -1 || arr.At([]int64{0, 0}) != 0 {
		t.Error("file-backed write-back wrong")
	}
}

func TestFileBackendMatchesMemory(t *testing.T) {
	meta := ir.NewArray("A", 12, 10)
	l := layout.Diagonal(12, 10)
	mem := NewDisk(16)
	file := NewDisk(16).Dir(t.TempDir())
	defer file.Close()
	am, _ := mem.CreateArray(meta, l)
	af, err := file.CreateArray(meta, l)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	vals := make([]float64, meta.Len())
	for i := range vals {
		vals[i] = rng.Float64()
	}
	fill := func(c []int64) float64 { return vals[c[0]*10+c[1]] }
	am.Fill(fill)
	af.Fill(fill)
	box := layout.NewBox([]int64{1, 1}, []int64{9, 9})
	tm, err := am.ReadTile(box)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := af.ReadTile(box)
	if err != nil {
		t.Fatal(err)
	}
	for i := box.Lo[0]; i < box.Hi[0]; i++ {
		for j := box.Lo[1]; j < box.Hi[1]; j++ {
			if *elem(tm, i, j) != *elem(tf, i, j) {
				t.Fatalf("mem/file mismatch at (%d,%d)", i, j)
			}
		}
	}
	// Identical accounting regardless of backend.
	if mem.Stats != file.Stats {
		t.Errorf("stats diverge: mem %+v file %+v", mem.Stats, file.Stats)
	}
}

func TestNoBackingDisk(t *testing.T) {
	d := NewDisk(0).NoBacking()
	meta := ir.NewArray("A", 4, 4)
	arr, err := d.CreateArray(meta, layout.RowMajor(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Accounting works...
	arr.TouchRead(layout.NewBox([]int64{0, 0}, []int64{2, 4}))
	arr.TouchWrite(layout.NewBox([]int64{0, 0}, []int64{2, 4}))
	if d.Stats.ReadCalls != 1 || d.Stats.WriteCalls != 1 {
		t.Errorf("stats = %+v", d.Stats)
	}
	// ...data access fails loudly.
	if _, err := arr.ReadTile(layout.NewBox([]int64{0, 0}, []int64{2, 2})); err == nil {
		t.Error("null-backed read succeeded")
	}
	// A store of data is data access too, even over a cached accounting
	// entry (which has no tile to overwrite).
	e := NewEngine(d, EngineOptions{})
	box := layout.NewBox([]int64{0, 0}, []int64{2, 2})
	h, err := e.Acquire(arr, box)
	if err != nil {
		t.Fatal(err)
	}
	e.Release(h, false)
	if err := e.Store(TileReq{Arr: arr, Box: box}, make([]float64, 4)); err == nil {
		t.Error("null-backed store succeeded")
	}
}

func TestMemBackendBounds(t *testing.T) {
	m := newMemBackend(4)
	buf := make([]float64, 2)
	if err := m.ReadAt(buf, 3); err == nil {
		t.Error("out-of-range read accepted")
	}
	if err := m.WriteAt(buf, -1); err == nil {
		t.Error("negative-offset write accepted")
	}
	if m.Size() != 4 {
		t.Error("size wrong")
	}
	if err := m.Close(); err != nil {
		t.Error(err)
	}
}

func TestFileBackendSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	meta := ir.NewArray("A", 4, 4)
	l := layout.RowMajor(4, 4)
	d1 := NewDisk(0).Dir(dir)
	if _, err := d1.CreateArray(meta, l); err != nil {
		t.Fatal(err)
	}
	// A second disk opening the same backing file must fail with a
	// clear error naming the lock, not truncate live data.
	d2 := NewDisk(0).Dir(dir)
	if _, err := d2.CreateArray(meta, l); err == nil {
		t.Fatal("second open of a locked backing file succeeded")
	} else if !strings.Contains(err.Error(), "single-writer") || !strings.Contains(err.Error(), "A.dat.lock") {
		t.Errorf("lock error unhelpful: %v", err)
	}
	// Close releases the lock; the file becomes reopenable.
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "A.dat.lock")); !os.IsNotExist(err) {
		t.Errorf("lock file survives Close: %v", err)
	}
	d3 := NewDisk(0).Dir(dir)
	if _, err := d3.CreateArray(meta, l); err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	if err := d3.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileBackendKeepExisting(t *testing.T) {
	dir := t.TempDir()
	meta := ir.NewArray("A", 4, 4)
	l := layout.RowMajor(4, 4)
	d1 := NewDisk(0).Dir(dir)
	arr, err := d1.CreateArray(meta, l)
	if err != nil {
		t.Fatal(err)
	}
	arr.Fill(func(c []int64) float64 { return float64(c[0]*4 + c[1]) })
	if err := d1.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	// Default reopen truncates (zero-filled)...
	d2 := NewDisk(0).Dir(dir)
	arr2, err := d2.CreateArray(meta, l)
	if err != nil {
		t.Fatal(err)
	}
	if got := arr2.At([]int64{3, 3}); got != 0 {
		t.Errorf("truncating open kept data: %v", got)
	}
	arr2.Fill(func(c []int64) float64 { return float64(c[0]*4 + c[1]) })
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	// ...KeepExisting preserves contents across the reopen.
	d3 := NewDisk(0).Dir(dir).KeepExisting()
	arr3, err := d3.CreateArray(meta, l)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if got := arr3.At([]int64{3, 3}); got != 15 {
		t.Errorf("KeepExisting open lost data: got %v, want 15", got)
	}
}

// countingBackend counts backend calls; WrapBackend installs it.
type countingBackend struct {
	Backend
	reads, writes, syncs atomic.Int64
}

func (c *countingBackend) ReadAt(buf []float64, off int64) error {
	c.reads.Add(1)
	return c.Backend.ReadAt(buf, off)
}
func (c *countingBackend) WriteAt(buf []float64, off int64) error {
	c.writes.Add(1)
	return c.Backend.WriteAt(buf, off)
}
func (c *countingBackend) Sync() error {
	c.syncs.Add(1)
	return c.Backend.Sync()
}

func TestWrapBackendAndEngineSync(t *testing.T) {
	var cb *countingBackend
	d := NewDisk(0).WrapBackend(func(name string, b Backend) Backend {
		cb = &countingBackend{Backend: b}
		return cb
	})
	meta := ir.NewArray("A", 4, 4)
	arr, err := d.CreateArray(meta, layout.RowMajor(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(d, EngineOptions{CacheTiles: 2})
	box := layout.NewBox([]int64{0, 0}, []int64{4, 4})
	h, err := eng.Acquire(arr, box)
	if err != nil {
		t.Fatal(err)
	}
	*elem(h.Tile(), 1, 1) = 7
	eng.Release(h, true)
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if cb.reads.Load() == 0 || cb.writes.Load() == 0 {
		t.Errorf("wrap hook not on the I/O path: reads=%d writes=%d", cb.reads.Load(), cb.writes.Load())
	}
	// Flush and Close each sync the backends (the durability point the
	// serving layer's drain relies on).
	if cb.syncs.Load() == 0 {
		t.Error("Engine.Flush did not sync the backend")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if arr.At([]int64{1, 1}) != 7 {
		t.Error("dirty tile lost")
	}
}
