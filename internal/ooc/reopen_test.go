package ooc_test

// Reopen-with-the-wrong-geometry tests: a kept directory opened under a
// file layout or log set other than the one that wrote it must either
// show the data it holds or refuse — never serve zeros without an
// error. The file backends create whatever file is missing, so before
// these checks existed both mistakes "worked" and lost data silently.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/ooc"
)

func reopenArray() (*ir.Array, *layout.Layout) {
	return ir.NewArray("A", walTestEdge, walTestEdge), layout.RowMajor(walTestEdge, walTestEdge)
}

// TestReopenMultiLogWALRefused: an acked write whose only durable copy
// is a record in "__wal<i>.log" must survive a reopen when i = 0 (the
// log this build writes) and must make the reopen fail loudly when
// i >= 1 (a log only an older multi-log build would replay).
func TestReopenMultiLogWALRefused(t *testing.T) {
	for _, c := range []struct {
		name   string
		log    string // file the acked record survives in
		refuse bool
	}{
		{"own log", "__wal0.log", false},
		{"second log of an N-log WAL", "__wal1.log", true},
		{"twelfth log of an N-log WAL", "__wal11.log", true},
	} {
		t.Run(c.name, func(t *testing.T) {
			meta, lay := reopenArray()
			opts := ooc.WALOptions{CapWords: 1 << 15}

			// Life 1: one PUT acknowledged by a log fsync, never checkpointed.
			live := t.TempDir()
			d1 := ooc.NewDisk(0).Dir(live).EnableWAL(opts)
			ar, err := d1.CreateArray(meta, lay)
			if err != nil {
				t.Fatal(err)
			}
			eng := ooc.NewEngine(d1, ooc.EngineOptions{})
			writeTile(t, eng, ar, walTile(1, 2), 7)
			if err := eng.FlushOverlapping(ar, walTile(1, 2)); err != nil {
				t.Fatal(err)
			}
			if err := ar.Sync(); err != nil {
				t.Fatal(err)
			}

			// Power cut: only what was fsynced reached the media — the log
			// and the watermark, not the array file's write-through.
			crashed := t.TempDir()
			for from, to := range map[string]string{"__wal0.log": c.log, "__walmeta.log": "__walmeta.log"} {
				b, err := os.ReadFile(filepath.Join(live, from))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(crashed, to), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			eng.Abandon()
			d1.Close()

			// Life 2 over the crash image.
			d2 := ooc.NewDisk(0).Dir(crashed).KeepExisting().EnableWAL(opts)
			defer d2.Close()
			ar2, err := d2.CreateArray(meta, lay)
			if err == nil {
				_, err = d2.ReplayWAL()
			}
			if c.refuse {
				if err == nil {
					eng2 := ooc.NewEngine(d2, ooc.EngineOptions{})
					t.Fatalf("reopen over %s succeeded and reads %v where 7 was acknowledged",
						c.log, readTile(t, eng2, ar2, walTile(1, 2)))
				}
				if !strings.Contains(err.Error(), c.log) || !strings.Contains(err.Error(), "drain") {
					t.Fatalf("refusal does not name %s or say how to drain it: %v", c.log, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			eng2 := ooc.NewEngine(d2, ooc.EngineOptions{})
			if got := readTile(t, eng2, ar2, walTile(1, 2)); got != 7 {
				t.Fatalf("acked write reads %v after replay, want 7", got)
			}
		})
	}
}

// TestReopenOtherStripingRefused: a build with striped files (occd
// -stripes) kept array A as sub-files "A.s0.dat" … "A.s3.dat". This
// build keeps one file per array, so a kept reopen must refuse A,
// naming the sub-file and the fix, before it creates a zero-filled
// "A.dat" beside the data; the sub-files stay as they were and nothing
// is left locked. A plain "A.dat" reopens as before.
func TestReopenOtherStripingRefused(t *testing.T) {
	t.Run("4 stripes as unstriped", func(t *testing.T) {
		meta, lay := reopenArray()
		dir := t.TempDir()
		// A quarter of the array per sub-file, as a 4-way striped build wrote it.
		sub := bytes.Repeat(binary.LittleEndian.AppendUint64(nil, math.Float64bits(7)), walTestEdge*walTestEdge/4)
		for i := 0; i < 4; i++ {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("A.s%d.dat", i)), sub, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before := dirSizes(t, dir)

		d := ooc.NewDisk(0).Dir(dir).KeepExisting()
		defer d.Close()
		ar, err := d.CreateArray(meta, lay)
		if err == nil {
			eng := ooc.NewEngine(d, ooc.EngineOptions{})
			t.Fatalf("reopen succeeded and reads %v where 7 was stored", readTile(t, eng, ar, walTile(0, 0)))
		}
		for _, want := range []string{"A.s0.dat", "copy the data out with the build that wrote it"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("refusal does not say %q: %v", want, err)
			}
		}
		if after := dirSizes(t, dir); !reflect.DeepEqual(after, before) {
			t.Fatalf("refusal changed the directory (A.dat created or a lock left): %v, was %v", after, before)
		}
		for i := 0; i < 4; i++ {
			if got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("A.s%d.dat", i))); err != nil || !bytes.Equal(got, sub) {
				t.Fatalf("refusal altered A.s%d.dat (read error %v)", i, err)
			}
		}
	})
	t.Run("unstriped as unstriped", func(t *testing.T) {
		meta, lay := reopenArray()
		dir := t.TempDir()
		d1 := ooc.NewDisk(0).Dir(dir)
		ar, err := d1.CreateArray(meta, lay)
		if err != nil {
			t.Fatal(err)
		}
		ar.Fill(func([]int64) float64 { return 7 })
		if err := d1.Close(); err != nil {
			t.Fatal(err)
		}

		d2 := ooc.NewDisk(0).Dir(dir).KeepExisting()
		defer d2.Close()
		ar2, err := d2.CreateArray(meta, lay)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		eng := ooc.NewEngine(d2, ooc.EngineOptions{})
		for _, box := range []layout.Box{walTile(0, 0), walTile(3, 3)} {
			if got := readTile(t, eng, ar2, box); got != 7 {
				t.Fatalf("%v reads %v after reopen, want 7", box, got)
			}
		}
	})
}

// TestReopenLegacyWALRefused: a kept "__wal0.log" holding records an
// earlier build wrote in a format this build cannot replay — per-run
// records at its head, or a tile record whose payload is a codec frame
// (the comp bit of a build with WAL compression), at the head or after
// raw records — carries acknowledged writes. The decoder stops at the
// first of them exactly as it stops at a torn tail, so without a
// refusal the reopen would succeed, serve the array file's stale bytes and
// append over the records. An all-zero log and one a clean shutdown
// already checkpointed (its records stale by epoch) are adopted.
func TestReopenLegacyWALRefused(t *testing.T) {
	// The image the old build leaves for one acknowledged PUT of 7 into
	// walTile(1, 2): eight row runs, one record each, never checkpointed.
	row := []float64{7, 7, 7, 7, 7, 7, 7, 7}
	legacyPut := func(epoch uint64) []float64 {
		words := []float64{math.Float64frombits(epoch)}
		for r := int64(0); r < walTestTile; r++ {
			off := (walTestTile+r)*walTestEdge + 2*walTestTile
			words = append(words, ooc.EncodeLegacyWALRecord(uint64(r+1), epoch, "A", off, row)...)
		}
		return words
	}
	checkpointed := legacyPut(3)
	checkpointed[0] = math.Float64frombits(4) // the truncation bumped the header past the records
	// A compression build's image: the rows as tile records, those from
	// the raw'th on compressed.
	compressedPut := func(epoch uint64, raw int64) []float64 {
		words := []float64{math.Float64frombits(epoch)}
		for r := int64(0); r < walTestTile; r++ {
			off := (walTestTile+r)*walTestEdge + 2*walTestTile
			words = append(words, ooc.EncodeWALRecord(uint64(r+1), epoch, "A", off, row, r >= raw)...)
		}
		return words
	}
	retired := compressedPut(3, 0)
	retired[0] = math.Float64frombits(4)

	for _, c := range []struct {
		name   string
		log    []float64
		refuse string // what the refusal must name; "" = adopted
	}{
		{"live per-run records", legacyPut(0), "per-run"},
		{"live per-run records after earlier checkpoints", legacyPut(3), "per-run"},
		{"all-zero log", nil, ""},
		{"checkpointed-empty legacy log", checkpointed, ""},
		{"live compressed records", compressedPut(0, 0), "-compress"},
		{"compressed records after raw ones", compressedPut(2, 3), "-compress"},
		{"checkpointed-empty compressed log", retired, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			meta, lay := reopenArray()
			dir := t.TempDir()
			var raw []byte
			for _, w := range c.log {
				raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(w))
			}
			if err := os.WriteFile(filepath.Join(dir, "__wal0.log"), raw, 0o644); err != nil {
				t.Fatal(err)
			}

			d := ooc.NewDisk(0).Dir(dir).KeepExisting().EnableWAL(ooc.WALOptions{CapWords: 1 << 15})
			defer d.Close()
			ar, err := d.CreateArray(meta, lay)
			var rep ooc.WALReplay
			if err == nil {
				rep, err = d.ReplayWAL()
			}
			if c.refuse != "" {
				if err == nil {
					t.Fatalf("reopen over a legacy log succeeded (replay %+v): the acknowledged writes it holds are lost", rep)
				}
				for _, want := range []string{"__wal0.log", c.refuse, "drain", "checkpoints", "reopen"} {
					if !strings.Contains(err.Error(), want) {
						t.Fatalf("refusal does not say %q: %v", want, err)
					}
				}
				// The refusal must leave the log as it found it, and unlocked,
				// for the old build to drain.
				if _, err := os.Stat(filepath.Join(dir, "__wal0.log.lock")); err == nil {
					t.Fatal("refusal left the log locked")
				}
				got, err := os.ReadFile(filepath.Join(dir, "__wal0.log"))
				if err != nil || !bytes.Equal(got[:len(raw)], raw) {
					t.Fatalf("refusal altered the log (read error %v)", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if rep.Applied != 0 {
				t.Fatalf("replay applied %d records from an empty log", rep.Applied)
			}
			// The adopted log works: an acknowledged write survives a crash image.
			eng := ooc.NewEngine(d, ooc.EngineOptions{})
			writeTile(t, eng, ar, walTile(0, 0), 9)
			if err := eng.FlushOverlapping(ar, walTile(0, 0)); err != nil {
				t.Fatal(err)
			}
			if err := ar.Sync(); err != nil {
				t.Fatal(err)
			}
			if st := d.WALStats(); st.Appends != 1 || st.DurableSeq != st.LastSeq {
				t.Fatalf("adopted log did not take an acknowledged append: %+v", st)
			}
		})
	}
}

// TestReopenOtherDimsRefused: a kept array file is exactly as large as
// the array that wrote it. Reopening it under other dims — and so
// another size — must be refused with the file and both sizes named,
// not resized: a shrink would cut off stored elements and a growth
// would serve zeros past them.
func TestReopenOtherDimsRefused(t *testing.T) {
	for _, c := range []struct {
		name       string
		rows, cols int64 // the reopen's dims; the writer's are walTestEdge square
	}{
		{"same dims", walTestEdge, walTestEdge},
		{"fewer rows", walTestEdge / 2, walTestEdge},
		{"more columns", walTestEdge, 2 * walTestEdge},
	} {
		t.Run(c.name, func(t *testing.T) {
			meta, lay := reopenArray()
			dir := t.TempDir()
			d1 := ooc.NewDisk(0).Dir(dir)
			ar, err := d1.CreateArray(meta, lay)
			if err != nil {
				t.Fatal(err)
			}
			ar.Fill(func([]int64) float64 { return 7 })
			if err := d1.Close(); err != nil {
				t.Fatal(err)
			}
			before := dirSizes(t, dir)

			d2 := ooc.NewDisk(0).Dir(dir).KeepExisting()
			defer d2.Close()
			ar2, err := d2.CreateArray(ir.NewArray("A", c.rows, c.cols), layout.RowMajor(c.rows, c.cols))
			if c.rows == walTestEdge && c.cols == walTestEdge {
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				eng := ooc.NewEngine(d2, ooc.EngineOptions{})
				if got := readTile(t, eng, ar2, walTile(3, 3)); got != 7 {
					t.Fatalf("reads %v after reopen, want 7", got)
				}
				return
			}
			if err == nil {
				t.Fatalf("reopen as %dx%d succeeded; the directory went from %v to %v",
					c.rows, c.cols, before, dirSizes(t, dir))
			}
			// One file: 32*32 elements as 8192 bytes, wanted as 16*32 (4096)
			// or 32*64 (16384).
			have := int64(walTestEdge * walTestEdge * ooc.ElemSize)
			want := c.rows * c.cols * ooc.ElemSize
			for _, s := range []string{".dat", fmt.Sprint(have), fmt.Sprint(want)} {
				if !strings.Contains(err.Error(), s) {
					t.Fatalf("refusal does not name %q: %v", s, err)
				}
			}
			// The refusal leaves every file as it found it, and unlocked.
			if after := dirSizes(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatalf("refusal changed the directory: %v, was %v", after, before)
			}
		})
	}
}

// dirSizes maps each file in dir to its size.
func dirSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = info.Size()
	}
	return out
}

// TestReopenSmallerWALCapKeepsTail: a log that survives a crash between
// commit and checkpoint holds the only durable copy of its acked
// writes. Reopening with a smaller -wal-cap-words must not cut that
// tail off: a tail that ends past the new cap is refused, naming both
// sizes, and leaves the log whole; a tail that fits replays in full
// and the log shrinks to the new cap.
func TestReopenSmallerWALCapKeepsTail(t *testing.T) {
	meta, lay := reopenArray()
	const bigCap = 1 << 15

	// Life 1: four tile writes acknowledged by log fsyncs, never
	// checkpointed. Each record is 75 words, so the tail ends near
	// word 300.
	live := t.TempDir()
	d1 := ooc.NewDisk(0).Dir(live).EnableWAL(ooc.WALOptions{CapWords: bigCap})
	ar, err := d1.CreateArray(meta, lay)
	if err != nil {
		t.Fatal(err)
	}
	eng := ooc.NewEngine(d1, ooc.EngineOptions{})
	for i := int64(0); i < 4; i++ {
		writeTile(t, eng, ar, walTile(i, i), float64(10+i))
		if err := eng.FlushOverlapping(ar, walTile(i, i)); err != nil {
			t.Fatal(err)
		}
		if err := ar.Sync(); err != nil {
			t.Fatal(err)
		}
	}

	// Power cut: the log and the watermark reached the media, the array
	// file's write-through did not.
	crashed := t.TempDir()
	for _, name := range []string{"__wal0.log", "__walmeta.log"} {
		b, err := os.ReadFile(filepath.Join(live, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	eng.Abandon()
	d1.Close()

	reopen := func(capWords int64) (*ooc.Disk, *ooc.Array, error) {
		d := ooc.NewDisk(0).Dir(crashed).KeepExisting().EnableWAL(ooc.WALOptions{CapWords: capWords})
		ar, err := d.CreateArray(meta, lay)
		if err == nil {
			_, err = d.ReplayWAL()
		}
		return d, ar, err
	}

	// Life 2 under a cap the tail does not fit: refused, log untouched.
	d2, ar2, err := reopen(128)
	if err == nil {
		eng2 := ooc.NewEngine(d2, ooc.EngineOptions{})
		t.Fatalf("reopen with a 128-word cap succeeded; tile 3 reads %v where 13 was acknowledged",
			readTile(t, eng2, ar2, walTile(3, 3)))
	}
	d2.Close()
	for _, want := range []string{"-wal-cap-words", "128", fmt.Sprint(bigCap)} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("refusal does not name %q: %v", want, err)
		}
	}
	if size := fileSize(t, filepath.Join(crashed, "__wal0.log")); size != bigCap*ooc.ElemSize {
		t.Fatalf("refused reopen resized the log to %d bytes", size)
	}

	// Life 3 under a smaller cap the tail fits: every acked write
	// replays and the log shrinks to the new cap.
	d3, ar3, err := reopen(512)
	if err != nil {
		t.Fatalf("reopen with a 512-word cap: %v", err)
	}
	defer d3.Close()
	eng3 := ooc.NewEngine(d3, ooc.EngineOptions{})
	for i := int64(0); i < 4; i++ {
		if got := readTile(t, eng3, ar3, walTile(i, i)); got != float64(10+i) {
			t.Fatalf("acked tile %d reads %v after replay, want %v", i, got, float64(10+i))
		}
	}
	if size := fileSize(t, filepath.Join(crashed, "__wal0.log")); size != 512*ooc.ElemSize {
		t.Fatalf("log is %d bytes, not shrunk to the 512-word cap", size)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}
