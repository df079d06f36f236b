package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"outcore/internal/faultfs"
	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/ooc"
	"outcore/internal/server"
)

// TestMain doubles as the occd binary: with OCCD_ARGS set, the test
// binary runs main on those arguments, so a test can check the exit
// status and output of a real command line.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("OCCD_ARGS"); ok {
		os.Args = append([]string{"occd"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsOutOfRange: every numeric knob outside its range, and
// -keep without -dir, is a usage error (exit 2) naming the flag and
// the valid range, before anything is opened — never a silent default.
// A command line that is accepted serves until killed, which the
// deadline turns into a failure.
func TestRejectsOutOfRange(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-cache-tiles 0", "-cache-tiles: 0 out of range (valid: >= 1)"},
		{"-cache-tiles -3", "-cache-tiles: -3 out of range (valid: >= 1)"},
		{"-inflight -1", "-inflight: -1 out of range (valid: >= 0)"},
		{"-queue -1", "-queue: -1 out of range (valid: >= 0)"},
		{"-wal -wal-cap-words -8", "-wal-cap-words: -8 out of range (valid: >= 0)"},
		{"-wal -wal-checkpoint -1s", "-wal-checkpoint: -1s out of range (valid: >= 0)"},
		{"-drain-timeout -1s", "-drain-timeout: -1s out of range (valid: >= 0)"},
		{"-keep", "-keep: true out of range (valid: false without -dir)"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0])
		cmd.Env = append(os.Environ(), "OCCD_ARGS=-addr 127.0.0.1:0 "+c.args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("occd %s: %v, stderr %q; want exit 2 with %q", c.args, err, stderr.String(), c.want)
		}
	}
}

// TestReplayRefusesUnknownArrays drives the open path occd starts
// through (server.Open) over a crash: an array made at run time (as
// POST /v1/arrays makes one), one acked tile write, a power cut before
// any checkpoint. A restart whose catalog lacks the array must refuse
// to serve, naming it, rather than leave the record for the next
// checkpoint to drop; a restart whose catalog has it must apply the
// record.
func TestReplayRefusesUnknownArrays(t *testing.T) {
	inj := faultfs.New(7, faultfs.Profile{})
	box := layout.NewBox([]int64{0, 0}, []int64{8, 8})
	catalog := []server.Array{{Name: "A", Dims: []int64{32, 32}, Layout: layout.RowMajor(32, 32)}}
	disk := func() *ooc.Disk {
		return ooc.NewDisk(0).WrapBackend(inj.Wrap).EnableWAL(ooc.WALOptions{CapWords: 1 << 15})
	}

	d := disk()
	ar, err := d.CreateArray(ir.NewArray("A", 32, 32), layout.RowMajor(32, 32))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
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

	if _, err := server.Open(disk(), nil, ooc.EngineOptions{CacheTiles: 4}, server.Config{}); err == nil ||
		!strings.Contains(err.Error(), "(A)") {
		t.Fatalf("restart without A: Open = %v, want a refusal naming A", err)
	}
	inj.Crash()

	d = disk()
	srv, err := server.Open(d, catalog, ooc.EngineOptions{CacheTiles: 4}, server.Config{})
	if err != nil {
		t.Fatalf("restart with A: %v", err)
	}
	tile, err := d.ArrayByName("A").ReadTile(box)
	if err != nil {
		t.Fatal(err)
	}
	if got := tile.Data()[0]; got != 42 {
		t.Fatalf("acked tile reads %v after replay, want 42", got)
	}
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
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
		_, err := server.Open(open(true), nil, ooc.EngineOptions{CacheTiles: 4}, server.Config{})
		if err == nil || !strings.Contains(err.Error(), "(A)") {
			t.Fatalf("refused start %d: Open = %v, want a refusal naming A", start, err)
		}
	}
	if locks, _ := filepath.Glob(filepath.Join(dir, "*.lock")); len(locks) > 0 {
		t.Fatalf("refused starts left locks behind: %v", locks)
	}
}
