package faultfs

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/obs"
	"outcore/internal/ooc"
)

// elem points at the tile element at global coordinates c, indexing
// Data() row-major over the tile's box — the tile's only element
// order. It panics outside the box.
func elem(t *ooc.Tile, c ...int64) *float64 {
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

// memStore is a minimal in-memory ooc.Backend for driving the wrapper
// directly (the real memBackend is unexported).
type memStore struct{ data []float64 }

func newMemStore(n int64) *memStore { return &memStore{data: make([]float64, n)} }

func (m *memStore) ReadAt(buf []float64, off int64) error {
	if off < 0 || off+int64(len(buf)) > int64(len(m.data)) {
		return fmt.Errorf("memStore: read [%d,%d) out of range %d", off, off+int64(len(buf)), len(m.data))
	}
	copy(buf, m.data[off:])
	return nil
}

func (m *memStore) WriteAt(buf []float64, off int64) error {
	if off < 0 || off+int64(len(buf)) > int64(len(m.data)) {
		return fmt.Errorf("memStore: write [%d,%d) out of range %d", off, off+int64(len(buf)), len(m.data))
	}
	copy(m.data[off:], buf)
	return nil
}

func (m *memStore) Size() int64  { return int64(len(m.data)) }
func (m *memStore) Sync() error  { return nil }
func (m *memStore) Close() error { return nil }

// driveOps runs a fixed operation sequence against a fresh injector
// and returns the schedule plus a textual outcome log.
func driveOps(seed int64, p Profile) (string, string) {
	in := New(seed, p)
	b := in.Wrap("a", newMemStore(64))
	var out strings.Builder
	buf := make([]float64, 8)
	for i := 0; i < 40; i++ {
		switch i % 4 {
		case 0, 1:
			for j := range buf {
				buf[j] = float64(i)
			}
			fmt.Fprintf(&out, "w%d:%v\n", i, b.WriteAt(buf, int64(i%8)*8) != nil)
		case 2:
			fmt.Fprintf(&out, "r%d:%v\n", i, b.ReadAt(buf, int64(i%8)*8) != nil)
		case 3:
			fmt.Fprintf(&out, "s%d:%v\n", i, b.Sync() != nil)
		}
	}
	return in.Schedule(), out.String()
}

func TestScheduleDeterministic(t *testing.T) {
	p := Profile{ReadErr: 0.2, WriteErr: 0.1, WriteNoSpace: 0.05, TornWrite: 0.15, SyncErr: 0.2, LatencyTicks: 9}
	s1, o1 := driveOps(42, p)
	s2, o2 := driveOps(42, p)
	if s1 != s2 {
		t.Fatalf("same seed produced different schedules:\n%s\n---\n%s", s1, s2)
	}
	if o1 != o2 {
		t.Fatalf("same seed produced different outcomes:\n%s\n---\n%s", o1, o2)
	}
	s3, _ := driveOps(43, p)
	if s1 == s3 {
		t.Fatal("different seeds produced identical non-trivial schedules")
	}
	if !strings.Contains(s1, "-> eio") && !strings.Contains(s1, "-> torn") && !strings.Contains(s1, "-> enospc") {
		t.Fatalf("schedule with aggressive profile injected nothing:\n%s", s1)
	}
}

func TestCrashRevertsUnsyncedWrites(t *testing.T) {
	in := New(1, Profile{})
	b := in.Wrap("a", newMemStore(16))

	synced := []float64{1, 2, 3, 4}
	if err := b.WriteAt(synced, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatal(err)
	}
	volatileWrite := []float64{9, 9, 9, 9}
	if err := b.WriteAt(volatileWrite, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteAt(volatileWrite, 8); err != nil {
		t.Fatal(err)
	}

	in.Crash()

	got := make([]float64, 4)
	if err := in.ReadDurable("a", got, 0); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != synced[i] {
			t.Fatalf("durable[%d] = %v, want synced value %v", i, got[i], synced[i])
		}
	}
	if err := in.ReadDurable("a", got, 8); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != 0 {
			t.Fatalf("never-synced region survived the crash: got %v at %d", got[i], 8+i)
		}
	}
}

func TestTornWriteAppliesStrictPrefix(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		in := New(seed, Profile{TornWrite: 1})
		b := in.Wrap("a", newMemStore(16))
		buf := []float64{7, 7, 7, 7, 7, 7, 7, 7}
		err := b.WriteAt(buf, 0)
		if err == nil {
			t.Fatalf("seed %d: torn write did not fail", seed)
		}
		if !errors.Is(err, ErrInjected) || !errors.Is(err, ErrIO) {
			t.Fatalf("seed %d: torn write error %v is not an injected ErrIO", seed, err)
		}
		got := make([]float64, 8)
		if err := in.ReadDurable("a", got, 0); err != nil {
			t.Fatal(err)
		}
		// A strict prefix: some k < 8 sevens, then zeros.
		k := 0
		for k < 8 && got[k] == 7 {
			k++
		}
		if k == 8 {
			t.Fatalf("seed %d: torn write applied the full buffer", seed)
		}
		for i := k; i < 8; i++ {
			if got[i] != 0 {
				t.Fatalf("seed %d: torn write is not a prefix: %v", seed, got)
			}
		}
	}
}

func TestSyncErrorKeepsWritesVolatile(t *testing.T) {
	in := New(5, Profile{SyncErr: 1})
	b := in.Wrap("a", newMemStore(8))
	if err := b.WriteAt([]float64{1, 1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err == nil {
		t.Fatal("injected sync error did not surface")
	}
	in.Crash()
	got := make([]float64, 2)
	if err := in.ReadDurable("a", got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("write survived a crash despite its sync failing: %v", got)
	}
}

func TestSyncDropLies(t *testing.T) {
	in := New(5, Profile{SyncDrop: 1})
	b := in.Wrap("a", newMemStore(8))
	if err := b.WriteAt([]float64{1, 1}, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatalf("a dropped sync must lie (report success), got %v", err)
	}
	in.Crash()
	got := make([]float64, 2)
	if err := in.ReadDurable("a", got, 0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 0 {
		t.Fatalf("SyncDrop persisted data it promised to drop: %v", got)
	}
}

func TestHealDisarmsInjection(t *testing.T) {
	in := New(7, Profile{WriteErr: 1})
	b := in.Wrap("a", newMemStore(8))
	if err := b.WriteAt([]float64{1}, 0); err == nil {
		t.Fatal("armed injector with WriteErr=1 let a write through")
	}
	in.Heal()
	if err := b.WriteAt([]float64{1}, 0); err != nil {
		t.Fatalf("healed injector still failing: %v", err)
	}
	in.Arm()
	if err := b.WriteAt([]float64{1}, 0); err == nil {
		t.Fatal("re-armed injector let a write through")
	}
}

// TestDiskWrapCrashReopen exercises the intended integration: a
// memory-backed ooc.Disk wrapped by the injector, crashed, and
// reopened on a fresh Disk that sees exactly the durable state.
func TestDiskWrapCrashReopen(t *testing.T) {
	in := New(11, Profile{})
	mkDisk := func() (*ooc.Disk, *ooc.Array) {
		d := ooc.NewDisk(0).WrapBackend(in.Wrap)
		ar, err := d.CreateArray(ir.NewArray("A", 4, 4), layout.RowMajor(4, 4))
		if err != nil {
			t.Fatal(err)
		}
		return d, ar
	}
	_, ar := mkDisk()

	tile := ar.NewTileZero(layout.NewBox([]int64{0, 0}, []int64{4, 4}))
	for i := int64(0); i < 4; i++ {
		for j := int64(0); j < 4; j++ {
			*elem(tile, i, j) = 10
		}
	}
	if err := tile.WriteTile(); err != nil {
		t.Fatal(err)
	}
	if err := in.backs["A"].Sync(); err != nil {
		t.Fatal(err)
	}
	// A second write, never synced.
	*elem(tile, 0, 0) = 99
	if err := tile.WriteTile(); err != nil {
		t.Fatal(err)
	}

	in.Crash()
	_, ar2 := mkDisk() // reopen: Wrap returns the surviving store
	if got := ar2.At([]int64{0, 0}); got != 10 {
		t.Fatalf("reopened array lost the synced write: got %v, want 10", got)
	}
}

func TestObserveCounts(t *testing.T) {
	sink := &obs.Sink{Metrics: obs.NewRegistry()}
	in := New(3, Profile{WriteErr: 1}).Observe(sink)
	b := in.Wrap("a", newMemStore(4))
	b.WriteAt([]float64{1}, 0) //nolint:errcheck // injected failure is the point
	if in.Injected() != 1 {
		t.Fatalf("Injected() = %d, want 1", in.Injected())
	}
	if got := sink.Metrics.Counter("faultfs_injected_total", "").Value(); got != 1 {
		t.Fatalf("faultfs_injected_total = %d, want 1", got)
	}
	if got := sink.Metrics.Counter("faultfs_ops_total", "").Value(); got != 1 {
		t.Fatalf("faultfs_ops_total = %d, want 1", got)
	}
}

func TestVirtualLatencyDeterministic(t *testing.T) {
	run := func() int64 {
		in := New(9, Profile{LatencyTicks: 100})
		b := in.Wrap("a", newMemStore(8))
		buf := make([]float64, 4)
		for i := 0; i < 10; i++ {
			if err := b.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
		}
		return in.VirtualTicks()
	}
	t1, t2 := run(), run()
	if t1 != t2 {
		t.Fatalf("virtual latency not deterministic: %d vs %d", t1, t2)
	}
	if t1 == 0 {
		t.Fatal("LatencyTicks=100 over 10 ops accumulated zero ticks")
	}
}
