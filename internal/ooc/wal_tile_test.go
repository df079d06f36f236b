package ooc

// The logged tile write against the Coord-based oracle: on every layout
// kind the WAL's WriteTile must move the same elements in the same
// backend calls as the plain one, and its single record must replay —
// from the log and the member backends alone — to the same bytes.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"outcore/internal/ir"
	"outcore/internal/layout"
)

// keptStores is a WrapBackend hook that hands a reopened disk the
// stores of the disk before it (faultfs.Injector.Wrap without faults —
// that package imports this one).
type keptStores map[string]Backend

func (k keptStores) wrap(name string, b Backend) Backend {
	if s, ok := k[name]; ok {
		return s
	}
	k[name] = b
	return b
}

func TestWALTileWriteMatchesOracle(t *testing.T) {
	for li, l := range moveLayouts() {
		t.Run(fmt.Sprintf("%s/%d", l.Name(), li), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(li) * 17))
			dims := l.Dims()
			stores := keptStores{}
			open := func() (*Disk, *Array) {
				d := NewDisk(7).WrapBackend(stores.wrap).EnableWAL(WALOptions{CapWords: 1 << 15})
				d.Record = true
				arr, err := d.CreateArray(ir.NewArray("A", dims...), l)
				if err != nil {
					t.Fatal(err)
				}
				return d, arr
			}
			dWAL, aWAL := open()
			dOld := NewDisk(7)
			dOld.Record = true
			aOld, err := dOld.CreateArray(ir.NewArray("A", dims...), l)
			if err != nil {
				t.Fatal(err)
			}

			var writes int64
			for op := 0; op < 60; op++ {
				box := randomBox(rng, dims, op)
				tWAL, tOld := aWAL.NewTileZero(box), aOld.NewTileZero(box)
				for i := range tWAL.data {
					tWAL.data[i] = 1000 + 0.5*float64(op) + 0.25*float64(i)
				}
				copy(tOld.data, tWAL.data)
				if err := tWAL.WriteTile(); err != nil {
					t.Fatal(err)
				}
				if err := oracleWriteTile(tOld); err != nil {
					t.Fatal(err)
				}
				if len(tWAL.data) > 0 {
					writes++
				}
			}
			want := make([]float64, l.Size())
			if err := aOld.backend.ReadAt(want, 0); err != nil {
				t.Fatal(err)
			}
			got := make([]float64, l.Size())
			if err := aWAL.backend.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("write-through bytes differ from the oracle's")
			}
			if dWAL.Stats != dOld.Stats || !reflect.DeepEqual(dWAL.Trace, dOld.Trace) {
				t.Fatalf("accounting differs: WAL %+v, oracle %+v", dWAL.Stats, dOld.Stats)
			}
			st := dWAL.WALStats()
			if st.Appends != writes || st.BypassWrites != 0 {
				t.Fatalf("%d non-empty tile writes logged %d records (%d bypassed), want one each", writes, st.Appends, st.BypassWrites)
			}

			// Lose every write-through (no stripe was ever synced) and keep
			// the log: replay alone must rebuild the oracle's bytes.
			clear(stores["A"].(*memBackend).data)
			d2, a2 := open()
			rep, err := d2.ReplayWAL()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Applied != writes || rep.Discarded != 0 {
				t.Fatalf("replay %+v, want %d applied", rep, writes)
			}
			if err := a2.backend.ReadAt(got, 0); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("replayed bytes differ from the oracle's")
			}
		})
	}
}

// BenchmarkWALAppendTile is the logged write alone: WriteTile on a
// WAL'd in-memory disk — gather, frame, checksum, one append, then the
// run-by-run write-through — for the two layouts the serving benchmark
// uses. The log is sized so the timed loop spans inline checkpoints at
// the rate a full log forces them.
func BenchmarkWALAppendTile(b *testing.B) {
	box := box2(32, 64, 64, 96)
	for _, l := range []*layout.Layout{layout.RowMajor(1024, 1024), layout.ColMajor(1024, 1024)} {
		b.Run(l.Name(), func(b *testing.B) {
			d := NewDisk(8192).EnableWAL(WALOptions{})
			arr, err := d.CreateArray(ir.NewArray("A", 1024, 1024), l)
			if err != nil {
				b.Fatal(err)
			}
			t := arr.NewTileZero(box)
			for i := range t.data {
				t.data[i] = 1000 + 0.5*float64(i/32) + 0.25*float64(i%32)
			}
			if err := t.WriteTile(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(box.Size() * ElemSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := t.WriteTile(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := d.WALStats()
			b.ReportMetric(float64(st.AppendedWords)/float64(st.Appends)/float64(box.Size()), "logwords/word")
		})
	}
}
