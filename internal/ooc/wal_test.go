package ooc_test

// Behavioral tests for the write-ahead log: crash-replay recovery of
// exactly the acknowledged writes, a testing/quick property pinning
// WAL-recovered state to what a synchronous write-back plane keeps
// durable, group-commit fsync batching under -race, checkpoint
// truncation, and the oversized-record bypass path.

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"outcore/internal/faultfs"
	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/ooc"
)

const (
	walTestEdge = 32
	walTestTile = 8
)

// walHarness is one WAL-backed plane over a fault injector, reopenable
// after a crash the way occd reopens after a power cut.
type walHarness struct {
	inj  *faultfs.Injector
	wrap func(string, ooc.Backend) ooc.Backend
	opts ooc.WALOptions
	disk *ooc.Disk
	arr  *ooc.Array
	eng  *ooc.Engine
}

func newWALHarness(t *testing.T, seed int64, opts ooc.WALOptions) *walHarness {
	t.Helper()
	h := &walHarness{inj: faultfs.New(seed, faultfs.Profile{}), opts: opts}
	h.wrap = h.inj.Wrap
	h.open(t)
	return h
}

// open builds (or rebuilds over the injector's surviving stores) disk,
// array and engine, replaying the WAL tail.
func (h *walHarness) open(t *testing.T) {
	t.Helper()
	h.disk = ooc.NewDisk(0).WrapBackend(h.wrap).EnableWAL(h.opts)
	arr, err := h.disk.CreateArray(ir.NewArray("A", walTestEdge, walTestEdge), layout.RowMajor(walTestEdge, walTestEdge))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	h.arr = arr
	h.eng = ooc.NewEngine(h.disk, ooc.EngineOptions{CacheTiles: 16})
	if _, err := h.disk.ReplayWAL(); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

// crash power-cuts the plane and reopens it (with replay).
func (h *walHarness) crash(t *testing.T) {
	t.Helper()
	h.eng.Abandon()
	h.inj.Crash()
	h.open(t)
}

func walTile(tr, tc int64) layout.Box {
	return layout.NewBox(
		[]int64{tr * walTestTile, tc * walTestTile},
		[]int64{(tr + 1) * walTestTile, (tc + 1) * walTestTile},
	)
}

// writeTile writes v into every element of the tile through the engine
// and releases it dirty.
func writeTile(t *testing.T, eng *ooc.Engine, ar *ooc.Array, box layout.Box, v float64) {
	t.Helper()
	hd, err := eng.Acquire(ar, box)
	if err != nil {
		t.Fatalf("acquire %v: %v", box, err)
	}
	data := hd.Tile().Data()
	for i := range data {
		data[i] = v
	}
	eng.Release(hd, true)
}

// readTile returns the tile's first element through the engine.
func readTile(t *testing.T, eng *ooc.Engine, ar *ooc.Array, box layout.Box) float64 {
	t.Helper()
	hd, err := eng.Acquire(ar, box)
	if err != nil {
		t.Fatalf("acquire %v: %v", box, err)
	}
	v := hd.Tile().Data()[0]
	eng.Release(hd, false)
	return v
}

// TestWALReplayRecoversAckedWrites is the core durability contract: a
// power cut after an acknowledged flush loses nothing acknowledged and
// resurrects nothing that was not.
func TestWALReplayRecoversAckedWrites(t *testing.T) {
	h := newWALHarness(t, 1, ooc.WALOptions{CapWords: 1 << 15})

	writeTile(t, h.eng, h.arr, walTile(0, 0), 1)
	writeTile(t, h.eng, h.arr, walTile(1, 1), 2)
	if err := h.eng.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	writeTile(t, h.eng, h.arr, walTile(2, 2), 3) // never flushed: not acked

	h.crash(t)

	st := h.disk.WALStats()
	if st.ReplayedRecords == 0 {
		t.Fatalf("replay applied no records: %+v", st)
	}
	if got := readTile(t, h.eng, h.arr, walTile(0, 0)); got != 1 {
		t.Fatalf("acked tile(0,0) = %v after replay, want 1", got)
	}
	if got := readTile(t, h.eng, h.arr, walTile(1, 1)); got != 2 {
		t.Fatalf("acked tile(1,1) = %v after replay, want 2", got)
	}
	if got := readTile(t, h.eng, h.arr, walTile(2, 2)); got != 0 {
		t.Fatalf("unacked tile(2,2) = %v after replay, want 0", got)
	}
}

// TestWALCrashReplayMatchesSynchronous is the quick property behind
// the WAL's claim of changing the cost of durability, not its meaning:
// for any seeded op stream, {log appends → power cut → replay over the
// stripes} recovers byte-identical state to a synchronous write-back
// plane that fsynced the same acknowledged flushes.
func TestWALCrashReplayMatchesSynchronous(t *testing.T) {
	prop := func(seed int64) bool {
		walH := newWALHarness(t, seed, ooc.WALOptions{CapWords: 1 << 15})
		syncInj := faultfs.New(seed, faultfs.Profile{})
		syncDisk := ooc.NewDisk(0).WrapBackend(syncInj.Wrap)
		syncArr, err := syncDisk.CreateArray(ir.NewArray("A", walTestEdge, walTestEdge), layout.RowMajor(walTestEdge, walTestEdge))
		if err != nil {
			t.Fatalf("sync plane create: %v", err)
		}
		syncEng := ooc.NewEngine(syncDisk, ooc.EngineOptions{CacheTiles: 16})

		rng := rand.New(rand.NewSource(seed))
		tiles := int64(walTestEdge / walTestTile)
		val := float64(0)
		for op := 0; op < 60; op++ {
			switch u := rng.Float64(); {
			case u < 0.55:
				box := walTile(rng.Int63n(tiles), rng.Int63n(tiles))
				val++
				writeTile(t, walH.eng, walH.arr, box, val)
				writeTile(t, syncEng, syncArr, box, val)
			case u < 0.85:
				for _, e := range []*ooc.Engine{walH.eng, syncEng} {
					if err := e.Flush(); err != nil {
						t.Fatalf("flush: %v", err)
					}
				}
			default:
				if walH.disk.Checkpoint() != nil {
					t.Fatalf("checkpoint failed")
				}
			}
		}

		// Power-cut both; the WAL plane reopens and replays, the
		// synchronous plane's durable truth is its stripes alone.
		walH.crash(t)
		syncEng.Abandon()
		syncInj.Crash()

		wantBuf := make([]float64, walTestEdge*walTestEdge)
		if err := syncInj.ReadDurable("A", wantBuf, 0); err != nil {
			t.Fatalf("sync ReadDurable: %v", err)
		}
		gotBuf := make([]float64, walTestEdge*walTestEdge)
		if err := walH.inj.ReadDurable("A", gotBuf, 0); err != nil {
			t.Fatalf("wal ReadDurable: %v", err)
		}
		for i := range wantBuf {
			if wantBuf[i] != gotBuf[i] {
				t.Logf("seed %d: recovered[%d]=%v, synchronous=%v", seed, i, gotBuf[i], wantBuf[i])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// countingBackend counts Sync calls on its inner backend.
type countingBackend struct {
	ooc.Backend
	n *atomic.Int64
}

func (c *countingBackend) Sync() error {
	c.n.Add(1)
	return c.Backend.Sync()
}

// TestWALGroupCommitBatching proves the group commit batches: N
// concurrent acked writers whose records are all staged share one (at
// the round boundary, two) log fsync, and none of them is acknowledged
// before a covering fsync returned — their writes survive a power cut.
// CI runs the package under -race, which is the point: the
// leader/waiter protocol and the off-mutex fsync must be clean under
// contention.
func TestWALGroupCommitBatching(t *testing.T) {
	const writers = 16
	var fsyncs atomic.Int64
	h := &walHarness{
		inj:  faultfs.New(42, faultfs.Profile{}),
		opts: ooc.WALOptions{CapWords: 1 << 15},
	}
	h.wrap = func(name string, b ooc.Backend) ooc.Backend {
		b = h.inj.Wrap(name, b)
		if strings.HasPrefix(name, "__wal") {
			b = &countingBackend{Backend: b, n: &fsyncs}
		}
		return b
	}
	h.open(t)

	// Phase 1: concurrent writers stage their tiles (write-back appends
	// to the log, no fsync yet — mirrors occd's PUT handler up to the
	// durability point).
	var stage sync.WaitGroup
	for i := 0; i < writers; i++ {
		stage.Add(1)
		go func(i int) {
			defer stage.Done()
			box := walTile(int64(i/4), int64(i%4))
			writeTile(t, h.eng, h.arr, box, float64(i+1))
			if err := h.eng.FlushOverlapping(h.arr, box); err != nil {
				t.Errorf("writer %d: flush overlapping: %v", i, err)
			}
		}(i)
	}
	stage.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if n := fsyncs.Load(); n != 0 {
		t.Fatalf("staging alone fsynced the log %d times", n)
	}

	// Phase 2: every writer asks for durability at once. One leader's
	// snapshot covers all staged records, so the round collapses the
	// 16 acks into at most ceil(16/16)+1 = 2 log fsyncs.
	var ack sync.WaitGroup
	for i := 0; i < writers; i++ {
		ack.Add(1)
		go func(i int) {
			defer ack.Done()
			if err := h.arr.Sync(); err != nil {
				t.Errorf("writer %d: sync: %v", i, err)
			}
		}(i)
	}
	ack.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if n := fsyncs.Load(); n < 1 || n > 2 {
		t.Fatalf("%d writers cost %d log fsyncs, want 1..2", writers, n)
	}

	// No early ack: all 16 must survive the power cut.
	h.crash(t)
	for i := 0; i < writers; i++ {
		box := walTile(int64(i/4), int64(i%4))
		if got := readTile(t, h.eng, h.arr, box); got != float64(i+1) {
			t.Fatalf("writer %d's acked tile = %v after crash+replay, want %d", i, got, i+1)
		}
	}
}

// TestWALCheckpointTruncates pins the compaction contract: a
// checkpoint makes applied records durable in the stripes and empties
// the log, and a crash right after it replays nothing yet loses
// nothing.
func TestWALCheckpointTruncates(t *testing.T) {
	h := newWALHarness(t, 3, ooc.WALOptions{CapWords: 1 << 15})
	writeTile(t, h.eng, h.arr, walTile(0, 1), 5)
	writeTile(t, h.eng, h.arr, walTile(3, 3), 6)
	if err := h.eng.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	st := h.disk.WALStats()
	// One record per tile write: 6 header + 1 name + 4 run-list + 64 data.
	if st.Appends != 2 || st.PendingWords != 2*75 || st.Commits == 0 || st.Fsyncs == 0 {
		t.Fatalf("pre-checkpoint scorecard: %+v, want 2 appends of 75 words", st)
	}
	if st.DurableSeq != st.LastSeq {
		t.Fatalf("flush left seq %d durable of %d", st.DurableSeq, st.LastSeq)
	}

	if err := h.disk.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	st = h.disk.WALStats()
	if st.Checkpoints != 1 || st.PendingWords != 0 {
		t.Fatalf("post-checkpoint scorecard: %+v", st)
	}

	// The truncation (the bumped epoch header) becomes durable with the
	// next commit's fsync; this post-checkpoint write rides it. An 8x8
	// tile in a 32-wide row-major array writes back as 8 row runs but
	// logs as ONE record (one run-list entry covers the 8 rows), so
	// replay after the crash must see exactly that record — the two
	// pre-checkpoint records are gone.
	writeTile(t, h.eng, h.arr, walTile(2, 0), 7)
	if err := h.eng.Flush(); err != nil {
		t.Fatalf("post-checkpoint flush: %v", err)
	}

	h.crash(t)
	if st := h.disk.WALStats(); st.ReplayedRecords != 1 {
		t.Fatalf("replay applied %d records, want the 1 post-checkpoint tile write", st.ReplayedRecords)
	}
	if got := readTile(t, h.eng, h.arr, walTile(0, 1)); got != 5 {
		t.Fatalf("checkpointed tile = %v, want 5", got)
	}
	if got := readTile(t, h.eng, h.arr, walTile(3, 3)); got != 6 {
		t.Fatalf("checkpointed tile = %v, want 6", got)
	}
	if got := readTile(t, h.eng, h.arr, walTile(2, 0)); got != 7 {
		t.Fatalf("post-checkpoint tile = %v, want 7", got)
	}
}

// TestWALReopenBeforeArraysKeepsEpochAndSeq pins the occd-without-
// kernel lifecycle: a reopened disk calls ReplayWAL before any client
// has recreated an array. The replay must still open the kept log and
// refuse its surviving records, naming their array, without touching
// the log; and a later open in the normal order must recover them —
// the kept epoch header and sequence numbers intact.
func TestWALReopenBeforeArraysKeepsEpochAndSeq(t *testing.T) {
	inj := faultfs.New(7, faultfs.Profile{})
	opts := ooc.WALOptions{CapWords: 1 << 15}
	meta := ir.NewArray("A", walTestEdge, walTestEdge)
	lay := layout.RowMajor(walTestEdge, walTestEdge)

	// Life 1: write, ack, checkpoint (bumps the epoch header), then one
	// more acked write so a log fsync makes the bumped header durable.
	d1 := ooc.NewDisk(0).WrapBackend(inj.Wrap).EnableWAL(opts)
	ar, err := d1.CreateArray(meta, lay)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	eng := ooc.NewEngine(d1, ooc.EngineOptions{CacheTiles: 16})
	writeTile(t, eng, ar, walTile(0, 0), 1)
	if err := eng.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := d1.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	writeTile(t, eng, ar, walTile(1, 1), 2)
	if err := eng.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	eng.Abandon()
	inj.Crash()

	// Life 2: replay BEFORE the array exists — the tile-(1,1) records
	// name an array this open did not create, so it must refuse, and
	// the refused disk is abandoned (Close would checkpoint).
	d2 := ooc.NewDisk(0).WrapBackend(inj.Wrap).EnableWAL(opts)
	if _, err := d2.ReplayWAL(); err == nil || !strings.Contains(err.Error(), "(A)") {
		t.Fatalf("replay without arrays: %v, want a refusal naming A", err)
	}
	if err := d2.Abandon(); err != nil {
		t.Fatalf("abandon: %v", err)
	}

	// Life 3: the normal order. Life 1's acked write must replay — it
	// dies here if the refused life 2 moved the epoch or the log.
	d3 := ooc.NewDisk(0).WrapBackend(inj.Wrap).EnableWAL(opts)
	if ar, err = d3.CreateArray(meta, lay); err != nil {
		t.Fatalf("recreate: %v", err)
	}
	eng = ooc.NewEngine(d3, ooc.EngineOptions{CacheTiles: 16})
	defer eng.Close()
	if _, err := d3.ReplayWAL(); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if got := readTile(t, eng, ar, walTile(1, 1)); got != 2 {
		t.Fatalf("life-1 acked tile = %v after replay, want 2", got)
	}
	if got := readTile(t, eng, ar, walTile(0, 0)); got != 1 {
		t.Fatalf("checkpointed tile = %v, want 1", got)
	}
}

// TestWALFullLogCheckpointsInline pins the no-surprises behavior of a
// undersized log: appends that would overflow compact inline instead
// of failing, and every acknowledged write still survives the crash.
func TestWALFullLogCheckpointsInline(t *testing.T) {
	// Each tile record is 6 + 1 + 4 + 64 = 75 words; a 256-word log
	// holds three before compacting.
	h := newWALHarness(t, 4, ooc.WALOptions{CapWords: 256})
	tiles := int64(walTestEdge / walTestTile)
	val := float64(0)
	for tr := int64(0); tr < tiles; tr++ {
		for tc := int64(0); tc < tiles; tc++ {
			val++
			writeTile(t, h.eng, h.arr, walTile(tr, tc), val)
		}
	}
	if err := h.eng.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if st := h.disk.WALStats(); st.Checkpoints == 0 {
		t.Fatalf("16 tiles through a 3-tile log never checkpointed: %+v", st)
	}

	h.crash(t)
	val = 0
	for tr := int64(0); tr < tiles; tr++ {
		for tc := int64(0); tc < tiles; tc++ {
			val++
			if got := readTile(t, h.eng, h.arr, walTile(tr, tc)); got != val {
				t.Fatalf("tile(%d,%d) = %v after crash, want %v", tr, tc, got, val)
			}
		}
	}
}

// TestWALBypassEscalatesToCheckpoint pins the unlogged-write path on a
// log too small to matter: a whole-array Fill goes write-through
// unlogged, and the next durability request escalates to a checkpoint
// so the ack is still honest.
func TestWALBypassEscalatesToCheckpoint(t *testing.T) {
	h := newWALHarness(t, 5, ooc.WALOptions{CapWords: 16})
	h.arr.Fill(func(c []int64) float64 { return float64(c[0]*walTestEdge + c[1]) })

	st := h.disk.WALStats()
	if st.BypassWrites == 0 {
		t.Fatalf("whole-array fill was not bypassed: %+v", st)
	}
	if err := h.arr.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if st := h.disk.WALStats(); st.Checkpoints == 0 {
		t.Fatalf("sync over a bypassed write did not checkpoint: %+v", st)
	}

	h.eng.Abandon()
	h.inj.Crash()
	h.open(t)
	for _, c := range [][]int64{{0, 0}, {13, 21}, {walTestEdge - 1, walTestEdge - 1}} {
		if got, want := h.arr.At(c), float64(c[0]*walTestEdge+c[1]); got != want {
			t.Fatalf("At(%v) = %v after bypass+sync+crash, want %v", c, got, want)
		}
	}
}

// TestWALBulkFillsStayOffTheLog is the fill barrier: the set-up helpers
// append nothing to the log however roomy it is; a fill with no later
// commit promises nothing; and fill → acknowledged PUT → power cut
// recovers both, because the PUT's commit checkpointed the fill before
// acknowledging.
func TestWALBulkFillsStayOffTheLog(t *testing.T) {
	h := newWALHarness(t, 11, ooc.WALOptions{CapWords: 1 << 15}) // 32 Ki words: the 1 Ki-word array would fit 30 times
	fillVal := func(c []int64) float64 { return 100 + float64(c[0]*walTestEdge+c[1]) }
	fill := func() {
		before := h.disk.WALStats()
		h.arr.Fill(func([]int64) float64 { return -1 })
		store := ir.NewStore(h.arr.Meta)
		for r := int64(0); r < walTestEdge; r++ {
			for c := int64(0); c < walTestEdge; c++ {
				store.Set(h.arr.Meta, []int64{r, c}, fillVal([]int64{r, c}))
			}
		}
		h.arr.FromStore(store)
		h.arr.SetAt([]int64{3, 4}, -7)
		after := h.disk.WALStats()
		if after.AppendedWords != before.AppendedWords || after.Appends != before.Appends || after.LastSeq != before.LastSeq {
			t.Fatalf("set-up helpers appended to the log: %+v -> %+v", before, after)
		}
		if after.BypassWrites != before.BypassWrites+3 {
			t.Fatalf("three bulk writes counted %d unlogged write-throughs", after.BypassWrites-before.BypassWrites)
		}
	}

	// No commit after the fill: the power cut may take all of it (and,
	// under the injector's model, does), and replay has nothing to say.
	fill()
	h.crash(t)
	if st := h.disk.WALStats(); st.ReplayedRecords != 0 {
		t.Fatalf("replay applied %d records after an unlogged fill", st.ReplayedRecords)
	}
	if got := h.arr.At([]int64{13, 21}); got != 0 {
		t.Fatalf("an uncommitted fill survived the power cut as %v; the harness proves nothing", got)
	}

	// Fill, then one acknowledged PUT: its commit is the barrier.
	fill()
	writeTile(t, h.eng, h.arr, walTile(1, 1), 77)
	if err := h.eng.FlushOverlapping(h.arr, walTile(1, 1)); err != nil {
		t.Fatalf("flush overlapping: %v", err)
	}
	if err := h.arr.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if st := h.disk.WALStats(); st.Checkpoints == 0 {
		t.Fatalf("the first commit after a fill did not checkpoint: %+v", st)
	}
	h.crash(t)
	for r := int64(0); r < walTestEdge; r++ {
		for c := int64(0); c < walTestEdge; c++ {
			want := fillVal([]int64{r, c})
			switch {
			case walTile(1, 1).Contains([]int64{r, c}):
				want = 77
			case r == 3 && c == 4:
				want = -7
			}
			if got := h.arr.At([]int64{r, c}); got != want {
				t.Fatalf("A[%d,%d] = %v after fill + acked PUT + power cut, want %v", r, c, got, want)
			}
		}
	}
}

// TestWALStatsMaintainer smoke-tests the background checkpointer: with
// a short interval, pending records are compacted without any explicit
// call.
func TestWALStatsMaintainer(t *testing.T) {
	h := newWALHarness(t, 6, ooc.WALOptions{CapWords: 1 << 15, CheckpointEvery: 2 * time.Millisecond})
	writeTile(t, h.eng, h.arr, walTile(1, 2), 9)
	if err := h.eng.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st := h.disk.WALStats(); st.Checkpoints > 0 && st.PendingWords == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("maintainer never compacted: %+v", h.disk.WALStats())
		}
		time.Sleep(time.Millisecond)
	}
	if err := h.disk.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// budgetBackend lets exactly `left` more words reach the log it wraps:
// the write that crosses the budget lands its prefix and fails, every
// later one fails outright — a tear placed at a chosen word, however
// many backend writes the log append is made of.
type budgetBackend struct {
	ooc.Backend
	armed bool
	left  int
}

func (b *budgetBackend) WriteAt(buf []float64, off int64) error {
	if !b.armed {
		return b.Backend.WriteAt(buf, off)
	}
	n := min(len(buf), b.left)
	b.left -= n
	if n > 0 {
		if err := b.Backend.WriteAt(buf[:n], off); err != nil {
			return err
		}
	}
	if n < len(buf) {
		return fmt.Errorf("budgetBackend: torn after %d of %d words", n, len(buf))
	}
	return nil
}

// TestWALReplayIsTileAtomic tears the log append of one tile write at
// EVERY word prefix, makes the torn prefix durable, cuts power and
// replays. A 32×32 tile of a column-major array is 32 file runs; the
// recovered tile must be the old tile or the new tile in full — never
// some of the new runs over the old ones, which is what per-run records
// replay when the tear falls between two of them.
func TestWALReplayIsTileAtomic(t *testing.T) {
	const edge, tile = 64, 32
	box := layout.NewBox([]int64{0, 32}, []int64{tile, 32 + tile})
	// One record of 6 + 1 + 4 + 1024 words; leave room to see a write
	// path that appends more (per-run framing) tear too.
	const appendWords = 6 + 1 + 4 + tile*tile
	for budget := 0; budget <= appendWords+6*tile; budget++ {
		inj := faultfs.New(9, faultfs.Profile{})
		var logBack *budgetBackend
		wrap := func(name string, b ooc.Backend) ooc.Backend {
			b = inj.Wrap(name, b)
			if name == "__wal0" {
				if logBack == nil {
					logBack = &budgetBackend{Backend: b}
				}
				return logBack
			}
			return b
		}
		open := func() (*ooc.Disk, *ooc.Array) {
			d := ooc.NewDisk(0).WrapBackend(wrap).EnableWAL(ooc.WALOptions{CapWords: 1 << 11})
			ar, err := d.CreateArray(ir.NewArray("A", edge, edge), layout.ColMajor(edge, edge))
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			if _, err := d.ReplayWAL(); err != nil {
				t.Fatalf("replay: %v", err)
			}
			return d, ar
		}
		put := func(ar *ooc.Array, v float64) error {
			tl := ar.NewTileZero(box)
			for i := range tl.Data() {
				tl.Data()[i] = v + float64(i)
			}
			return tl.WriteTile()
		}

		// The old tile: written, acknowledged and checkpointed into the
		// stripes, so the log is empty when the torn write arrives.
		d, ar := open()
		if err := put(ar, 1000); err != nil {
			t.Fatal(err)
		}
		if err := ar.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := ar.Sync(); err != nil { // the truncation's epoch header
			t.Fatal(err)
		}

		// The new tile's append tears after `budget` words; the torn
		// prefix reaches the media (worst case), then the power goes.
		logBack.armed, logBack.left = true, budget
		werr := put(ar, 5000)
		logBack.armed = false
		if err := logBack.Backend.Sync(); err != nil {
			t.Fatal(err)
		}
		inj.Crash()

		_, ar2 := open()
		got, err := ar2.ReadTile(box)
		if err != nil {
			t.Fatal(err)
		}
		first := got.Data()[0]
		if first != 1000 && first != 5000 {
			t.Fatalf("budget %d: recovered tile starts with %v", budget, first)
		}
		for i, v := range got.Data() {
			if v != first+float64(i) {
				t.Fatalf("budget %d: recovered tile mixes writes: element %d is %v in a tile starting %v (write error: %v)",
					budget, i, v, first, werr)
			}
		}
		if werr == nil && first != 5000 {
			t.Fatalf("budget %d: the write succeeded but replay recovered the old tile", budget)
		}
		if budget < appendWords && first != 1000 {
			t.Fatalf("budget %d: a torn record replayed as the new tile", budget)
		}
	}
}
