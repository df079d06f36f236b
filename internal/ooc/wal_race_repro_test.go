package ooc

import (
	"sync/atomic"
	"testing"
	"time"

	"outcore/internal/ir"
	"outcore/internal/layout"
)

// blockingSyncBackend lets a test hold one Sync call open.
type blockingSyncBackend struct {
	Backend
	gate      chan struct{} // closed to release the blocked Sync
	inFlight  chan struct{} // signaled when Sync enters
	block     atomic.Bool
	syncCount atomic.Int64
}

func (b *blockingSyncBackend) Sync() error {
	b.syncCount.Add(1)
	if b.block.CompareAndSwap(true, false) {
		b.inFlight <- struct{}{}
		<-b.gate
	}
	return b.Backend.Sync()
}

func TestWALStaleSyncedToRepro(t *testing.T) {
	var logBack *blockingSyncBackend
	d := NewDisk(0).WrapBackend(func(name string, inner Backend) Backend {
		if name == "__wal0" {
			logBack = &blockingSyncBackend{
				Backend:  inner,
				gate:     make(chan struct{}),
				inFlight: make(chan struct{}, 1),
			}
			return logBack
		}
		return inner
	})
	d.EnableWAL(WALOptions{})
	arr, err := d.CreateArray(ir.NewArray("a", 64), layout.RowMajor(64))
	if err != nil {
		t.Fatal(err)
	}
	// A logged write: a tile write-back (plain backend WriteAt is the
	// unlogged bulk path).
	write := func(lo int64) error {
		tl := arr.NewTileZero(layout.NewBox([]int64{lo}, []int64{lo + 4}))
		copy(tl.Data(), []float64{1, 2, 3, 4})
		return tl.WriteTile()
	}
	if err := write(0); err != nil { // append W1
		t.Fatal(err)
	}

	logBack.block.Store(true)
	done := make(chan error, 1)
	go func() { done <- arr.Sync() }() // leader: fsync blocks in flight
	<-logBack.inFlight

	if err := d.Checkpoint(); err != nil { // truncates log, syncedTo=0
		t.Fatal(err)
	}
	if err := write(8); err != nil { // append W2, new epoch
		t.Fatal(err)
	}
	seqW2 := d.wal.lastSeq()

	close(logBack.gate) // release leader fsync; stale syncedTo update lands
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	before := logBack.syncCount.Load()
	if err := arr.Sync(); err != nil { // commit for W2
		t.Fatal(err)
	}
	after := logBack.syncCount.Load()
	durable := d.wal.durable.Load()
	t.Logf("W2 seq=%d durable=%d log fsyncs during W2 commit=%d", seqW2, durable, after-before)
	if durable >= seqW2 && after == before {
		t.Fatalf("W2 (seq %d) reported durable with NO log fsync after checkpoint truncation: "+
			"stale syncedTo=%d head=%d", seqW2, d.wal.log.syncedTo, d.wal.log.head)
	}
	_ = time.Second
}
