package cluster

import (
	"errors"
	"os"
	"reflect"
	"testing"

	"outcore/internal/layout"
)

func hintBox() layout.Box {
	return layout.NewBox([]int64{0, 8}, []int64{8, 16})
}

// TestHintStoreDurableReload enqueues hints, reopens the store from
// disk, and requires the queue back in FIFO order with payloads
// intact.
func TestHintStoreDurableReload(t *testing.T) {
	dir := t.TempDir()
	hs, err := newHintStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		data := []float64{float64(i), float64(i) + 0.5}
		if err := hs.Enqueue("n1", "A", hintBox(), uint64(i+1), data); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if err := hs.Close(); err != nil {
		t.Fatal(err)
	}

	hs2, err := newHintStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer hs2.Close()
	if n := hs2.Pending("n1"); n != 3 {
		t.Fatalf("reloaded %d hints, want 3", n)
	}
	var got []hint
	if _, err := hs2.Drain("n1", func(h hint) error {
		got = append(got, h)
		return nil
	}); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, h := range got {
		if h.gen != uint64(i+1) || h.name != "A" || h.data[0] != float64(i) {
			t.Fatalf("hint %d reloaded as %+v", i, h)
		}
	}
}

// TestHintStoreTornTail appends garbage after valid records and cuts
// a final record short: reload must keep the intact prefix and
// truncate the rest, and later appends must extend a clean log.
func TestHintStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	hs, err := newHintStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := hs.Enqueue("n2", "A", hintBox(), uint64(i+1), []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := hs.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: drop the last 5 bytes (a torn final record), then
	// append garbage that cannot checksum.
	path := hs.path("n2")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(raw[:len(raw)-5], 0xde, 0xad, 0xbe, 0xef)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	hs2, err := newHintStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := hs2.Pending("n2"); n != 2 {
		t.Fatalf("survived %d hints after torn tail, want 2", n)
	}
	// The log must be clean again: a fresh hint appends and reloads.
	if err := hs2.Enqueue("n2", "A", hintBox(), 9, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if err := hs2.Close(); err != nil {
		t.Fatal(err)
	}
	hs3, err := newHintStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer hs3.Close()
	if n := hs3.Pending("n2"); n != 3 {
		t.Fatalf("after torn-tail recovery and append, reloaded %d hints, want 3", n)
	}
}

// TestHintStoreDrainStopsAtFailure keeps undelivered hints queued
// when the node goes away mid-drain.
func TestHintStoreDrainStopsAtFailure(t *testing.T) {
	hs, err := newHintStore("")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := hs.Enqueue("n3", "A", hintBox(), uint64(i+1), []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("gone again")
	calls := 0
	delivered, err := hs.Drain("n3", func(hint) error {
		calls++
		if calls == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || delivered != 1 {
		t.Fatalf("drain = (%d, %v), want (1, gone again)", delivered, err)
	}
	if n := hs.Pending("n3"); n != 2 {
		t.Fatalf("pending after failed drain = %d, want 2", n)
	}
}

// TestHintStoreDrainDoesNotBlockEnqueue proves the store lock is not
// held across delivery: while one node's drain is parked mid-replay
// (simulating a slow network PUT), Enqueue, Pending, and PendingTotal
// for other nodes — the inline piecePut hint path — must complete, a
// hint enqueued for the DRAINING node mid-drain must survive the
// reconciliation, and a second Drain of the same node must refuse
// instead of re-delivering the snapshot.
func TestHintStoreDrainDoesNotBlockEnqueue(t *testing.T) {
	hs, err := newHintStore("")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := hs.Enqueue("n4", "A", hintBox(), uint64(i+1), []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		first := true
		if _, err := hs.Drain("n4", func(hint) error {
			if first {
				first = false
				close(entered)
				<-release
			}
			return nil
		}); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	<-entered
	// Mid-drain: the store must answer without waiting for delivery.
	if err := hs.Enqueue("n5", "A", hintBox(), 7, []float64{2}); err != nil {
		t.Fatalf("enqueue during drain: %v", err)
	}
	if err := hs.Enqueue("n4", "A", hintBox(), 8, []float64{3}); err != nil {
		t.Fatalf("enqueue for draining node: %v", err)
	}
	if n := hs.PendingTotal(); n < 2 {
		t.Fatalf("pending total mid-drain = %d, want >= 2", n)
	}
	if _, err := hs.Drain("n4", func(hint) error { return nil }); !errors.Is(err, errDrainBusy) {
		t.Fatalf("concurrent drain of the same node: err = %v, want errDrainBusy", err)
	}
	close(release)
	<-done
	// The snapshot (2 hints) drained; the mid-drain enqueue survived.
	if n := hs.Pending("n4"); n != 1 {
		t.Fatalf("pending after drain = %d, want the mid-drain hint (1)", n)
	}
	if n := hs.Pending("n5"); n != 1 {
		t.Fatalf("pending for n5 = %d, want 1", n)
	}
}

// TestHintStoreRewriteIsAtomic: a drain replaces the log through a
// sibling temp file and a rename, never by truncating it in place. A
// drain that delivers nothing leaves the log file alone; reload beside
// a temp file left by a crashed rewrite serves exactly the old log's
// hints and deletes the temp file; a drain that delivers replaces the
// log with the remainder, which later appends extend.
func TestHintStoreRewriteIsAtomic(t *testing.T) {
	dir := t.TempDir()
	hs, err := newHintStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := hs.Enqueue("n6", "A", hintBox(), uint64(i+1), []float64{float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	path := hs.path("n6")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("still down")
	if n, err := hs.Drain("n6", func(hint) error { return boom }); n != 0 || !errors.Is(err, boom) {
		t.Fatalf("drain = (%d, %v), want (0, still down)", n, err)
	}
	if after, err := os.Stat(path); err != nil || !os.SameFile(before, after) {
		t.Fatalf("a drain that delivered nothing replaced the log (err %v)", err)
	}
	if err := hs.Close(); err != nil {
		t.Fatal(err)
	}

	// A crash mid-rewrite: one whole record of the would-be log and a
	// torn second one sit beside the old log.
	partial := encodeHint(hint{seq: 1, name: "A", box: hintBox(), gen: 2, data: []float64{1}})
	partial = append(partial, partial[:7]...)
	if err := os.WriteFile(path+".tmp", partial, 0o644); err != nil {
		t.Fatal(err)
	}
	hs2, err := newHintStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("reload left the temp file behind (stat err %v)", err)
	}
	var gens []uint64
	calls := 0
	if _, err := hs2.Drain("n6", func(h hint) error {
		if calls++; calls > 1 {
			return boom
		}
		gens = append(gens, h.gen)
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("drain: %v", err)
	}
	if len(gens) != 1 || gens[0] != 1 || hs2.Pending("n6") != 2 {
		t.Fatalf("reload served %v then left %d pending, want [1] then 2", gens, hs2.Pending("n6"))
	}
	if after, err := os.Stat(path); err != nil || os.SameFile(before, after) {
		t.Fatalf("a delivering drain did not replace the log (err %v)", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("rewrite left its temp file behind (stat err %v)", err)
	}
	if err := hs2.Enqueue("n6", "A", hintBox(), 4, []float64{3}); err != nil {
		t.Fatal(err)
	}
	if err := hs2.Close(); err != nil {
		t.Fatal(err)
	}

	hs3, err := newHintStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer hs3.Close()
	gens = nil
	if _, err := hs3.Drain("n6", func(h hint) error {
		gens = append(gens, h.gen)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{2, 3, 4}; !reflect.DeepEqual(gens, want) {
		t.Fatalf("reloaded gens %v after rewrite and append, want %v", gens, want)
	}
}
