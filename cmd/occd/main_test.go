package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"outcore/internal/faultfs"
	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/ooc"
)

// TestReplayRefusesUnknownArrays drives occd's WAL open path over a
// crash: an array made at run time (as POST /v1/arrays makes one), one
// acked tile write, a power cut before any checkpoint. A restart that
// does not re-create the array must refuse to serve, naming it, rather
// than leave the record for the next checkpoint to drop; a restart that
// does re-create it must apply the record.
func TestReplayRefusesUnknownArrays(t *testing.T) {
	inj := faultfs.New(7, faultfs.Profile{})
	meta := ir.NewArray("A", 32, 32)
	box := layout.NewBox([]int64{0, 0}, []int64{8, 8})
	open := func(create bool) (*ooc.Disk, *ooc.Array) {
		d := ooc.NewDisk(0).WrapBackend(inj.Wrap).EnableWAL(ooc.WALOptions{CapWords: 1 << 15})
		if !create {
			return d, nil
		}
		ar, err := d.CreateArray(meta, layout.RowMajor(32, 32))
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		return d, ar
	}

	d, ar := open(true)
	eng := ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 4})
	hd, err := eng.Acquire(ar, box)
	if err != nil {
		t.Fatal(err)
	}
	for i := range hd.Tile().Data() {
		hd.Tile().Data()[i] = 42
	}
	eng.Release(hd, true)
	if err := eng.Flush(); err != nil { // the ack: the record is committed
		t.Fatal(err)
	}
	eng.Abandon()
	inj.Crash()

	d, _ = open(false)
	if err := replayWAL(d); err == nil || !strings.Contains(err.Error(), "(A)") {
		t.Fatalf("restart without A: replayWAL = %v, want a refusal naming A", err)
	}
	inj.Crash()

	d, ar = open(true)
	if err := replayWAL(d); err != nil {
		t.Fatalf("restart with A: %v", err)
	}
	eng = ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 4})
	defer eng.Close()
	hd, err = eng.Acquire(ar, box)
	if err != nil {
		t.Fatal(err)
	}
	if got := hd.Tile().Data()[0]; got != 42 {
		t.Fatalf("acked tile reads %v after replay, want 42", got)
	}
	eng.Release(hd, false)
}

// TestRefusedStartReleasesLocks runs the same refusal over a real
// -dir -keep -wal directory: after a crash whose stale locks were
// removed by hand, a start without the array refuses naming it, and
// so does the next one — the refused start must not leave its own
// *.lock files behind (or checkpoint the records away).
func TestRefusedStartReleasesLocks(t *testing.T) {
	dir := t.TempDir()
	open := func(keep bool) *ooc.Disk {
		d := ooc.NewDisk(0).Dir(dir).EnableWAL(ooc.WALOptions{CapWords: 1 << 15})
		if keep {
			d.KeepExisting()
		}
		return d
	}

	d := open(false)
	ar, err := d.CreateArray(ir.NewArray("A", 32, 32), layout.RowMajor(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	eng := ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 4})
	hd, err := eng.Acquire(ar, layout.NewBox([]int64{0, 0}, []int64{8, 8}))
	if err != nil {
		t.Fatal(err)
	}
	hd.Tile().Data()[0] = 42
	eng.Release(hd, true)
	if err := eng.Flush(); err != nil { // the ack: the record is committed
		t.Fatal(err)
	}
	eng.Abandon()
	// The crash: the process dies holding its locks, and the operator
	// removes them by hand.
	locks, _ := filepath.Glob(filepath.Join(dir, "*.lock"))
	if len(locks) == 0 {
		t.Fatal("a running disk holds no lock files")
	}
	for _, l := range locks {
		os.Remove(l)
	}

	for start := 1; start <= 2; start++ {
		err := replayWAL(open(true))
		if err == nil || !strings.Contains(err.Error(), "(A)") {
			t.Fatalf("refused start %d: replayWAL = %v, want a refusal naming A", start, err)
		}
	}
	if locks, _ := filepath.Glob(filepath.Join(dir, "*.lock")); len(locks) > 0 {
		t.Fatalf("refused starts left locks behind: %v", locks)
	}
}
