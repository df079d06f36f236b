package server

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/ooc"
)

// TestGracefulDrainFlushesDirtyTiles is the acceptance proof for the
// drain path: writes acknowledged before the shutdown signal survive
// it, in-flight requests finish, and nothing reaches the backing file
// only AFTER the drain flushed it — verified by reopening the backing
// directory with a fresh disk and checking contents.
func TestGracefulDrainFlushesDirtyTiles(t *testing.T) {
	dir := t.TempDir()
	ts := newTestServer(t, Config{}, func(d *ooc.Disk) { d.Dir(dir) })
	ts.createArray(t, "A", 8, 8)
	ts.createArray(t, "B", 8, 8)

	// Acknowledged write: the tile is dirty in the engine cache.
	payload := make([]float64, 8*8)
	for i := range payload {
		payload[i] = float64(i) + 1
	}
	status, out, _ := ts.do(t, http.MethodPut, ts.url("/v1/arrays/A/tile?lo=0,0&hi=8,8"), encodePayload(payload))
	if status != http.StatusNoContent {
		t.Fatalf("put: %d %s", status, out)
	}
	// The write must still be cache-resident (write-back, not through):
	// the backing file stays zero until drain, which is exactly what
	// the flush-at-drain guarantee is protecting.
	raw, err := os.ReadFile(filepath.Join(dir, "A.dat"))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range raw {
		if b != 0 {
			t.Fatal("dirty tile reached the backing file before drain; the test proves nothing")
		}
	}

	// An in-flight slow read rides through the shutdown.
	ts.back["B"].readDelay.Store(int64(400 * time.Millisecond))
	type result struct {
		status int
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Get(ts.url("/v1/arrays/B/tile?lo=0,0&hi=8,8"))
		if err != nil {
			inflight <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- result{status: resp.StatusCode}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for ts.back["B"].reads.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow read never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The SIGTERM sequence: stop accepting and wait out in-flight
	// requests (httptest's Close blocks on them, like
	// http.Server.Shutdown), then drain the storage side.
	ts.http.Close()
	if err := ts.srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	res := <-inflight
	if res.err != nil || res.status != http.StatusOK {
		t.Fatalf("in-flight request did not finish cleanly: status %d, err %v", res.status, res.err)
	}
	if !ts.srv.Draining() {
		t.Error("server does not report draining")
	}

	// Reopen the backing directory: the acknowledged write is there.
	d2 := ooc.NewDisk(0).Dir(dir).KeepExisting()
	defer d2.Close()
	arr, err := d2.CreateArray(ir.NewArray("A", 8, 8), layout.RowMajor(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		for j := int64(0); j < 8; j++ {
			if got, want := arr.At([]int64{i, j}), payload[i*8+j]; got != want {
				t.Fatalf("reopened A[%d,%d] = %v, want %v: drain lost a dirty tile", i, j, got, want)
			}
		}
	}
}

// TestDrainWaitsForInflightWrite covers the drain-timeout hazard: when
// Drain runs while a PUT still holds its admission slot (the HTTP
// shutdown gave up waiting), Drain must block until that PUT released
// its engine handle before closing the engine — otherwise the PUT's
// dirty tile is pinned during the final flush, skipped, and a write
// acknowledged with 204 evaporates. Here the in-flight PUT must both
// complete with 204 and be durable in the reopened backing file.
func TestDrainWaitsForInflightWrite(t *testing.T) {
	dir := t.TempDir()
	ts := newTestServer(t, Config{}, func(d *ooc.Disk) { d.Dir(dir) })
	ts.createArray(t, "A", 8, 8)

	payload := make([]float64, 8*8)
	for i := range payload {
		payload[i] = float64(i) + 3
	}
	// A whole-box PUT is a blind store that never touches the backend,
	// so the in-flight write is staged as one that must merge: the top
	// half of the tile lands first at generation 7 (carrying the final
	// bytes), and the full-tile PUT at generation 6 then has to Acquire
	// the tile to fill in the remainder. That Acquire reads the cold
	// tile, so the read delay holds the PUT — handle pinned — while
	// Drain starts.
	top := bytes.NewReader(encodePayload(payload[:4*8]))
	req, err := http.NewRequest(http.MethodPut, ts.url("/v1/arrays/A/tile?lo=0,0&hi=4,8"), top)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TileGenHeader, "7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("staging PUT: status %d", resp.StatusCode)
	}
	ts.back["A"].readDelay.Store(int64(400 * time.Millisecond))
	readsBefore := ts.back["A"].reads.Load()

	status := make(chan int, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPut, ts.url("/v1/arrays/A/tile?lo=0,0&hi=8,8"), bytes.NewReader(encodePayload(payload)))
		if err != nil {
			status <- 0
			return
		}
		req.Header.Set(TileGenHeader, "6")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			status <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for ts.back["A"].reads.Load() == readsBefore {
		if time.Now().After(deadline) {
			t.Fatal("in-flight PUT never reached the backend")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Drain with the PUT mid-flight — NOT waiting for the HTTP server
	// first, exactly the drain-timeout ordering.
	if err := ts.srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := <-status; got != http.StatusNoContent {
		t.Fatalf("in-flight PUT finished with %d, want 204", got)
	}
	ts.http.Close()

	d2 := ooc.NewDisk(0).Dir(dir).KeepExisting()
	defer d2.Close()
	arr, err := d2.CreateArray(ir.NewArray("A", 8, 8), layout.RowMajor(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 8; i++ {
		for j := int64(0); j < 8; j++ {
			if got, want := arr.At([]int64{i, j}), payload[i*8+j]; got != want {
				t.Fatalf("reopened A[%d,%d] = %v, want %v: drain dropped an acknowledged in-flight write", i, j, got, want)
			}
		}
	}
}

// TestDrainQueuedWriteNeverFalselyAcknowledged covers the other side
// of the drain barrier: a PUT parked in the admission queue when Drain
// closes the engine must either complete fully (204, durable) or fail
// (503) — never acknowledge a write the closed engine will not flush.
func TestDrainQueuedWriteNeverFalselyAcknowledged(t *testing.T) {
	dir := t.TempDir()
	ts := newTestServer(t, Config{MaxInflight: 1, QueueDepth: 2}, func(d *ooc.Disk) { d.Dir(dir) })
	ts.createArray(t, "A", 8, 8)
	ts.createArray(t, "B", 8, 8)
	ts.back["B"].readDelay.Store(int64(400 * time.Millisecond))

	// Occupy the only slot with a slow GET of B.
	getDone := make(chan struct{})
	go func() {
		defer close(getDone)
		resp, err := http.Get(ts.url("/v1/arrays/B/tile?lo=0,0&hi=8,8"))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for ts.back["B"].reads.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot-occupying GET never started")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Park a PUT of A in the queue behind it.
	payload := make([]float64, 8*8)
	for i := range payload {
		payload[i] = float64(i) + 7
	}
	putStatus := make(chan int, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPut, ts.url("/v1/arrays/A/tile?lo=0,0&hi=8,8"), bytes.NewReader(encodePayload(payload)))
		if err != nil {
			putStatus <- 0
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			putStatus <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		putStatus <- resp.StatusCode
	}()
	for ts.srv.front.queued.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("PUT never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Drain races the queued PUT for the freed slot; both outcomes are
	// legal, lying is not.
	if err := ts.srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-getDone
	status := <-putStatus
	ts.http.Close()

	d2 := ooc.NewDisk(0).Dir(dir).KeepExisting()
	defer d2.Close()
	arr, err := d2.CreateArray(ir.NewArray("A", 8, 8), layout.RowMajor(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	durable := true
	for i := int64(0); i < 8 && durable; i++ {
		for j := int64(0); j < 8; j++ {
			if arr.At([]int64{i, j}) != payload[i*8+j] {
				durable = false
				break
			}
		}
	}
	switch status {
	case http.StatusNoContent:
		if !durable {
			t.Fatal("queued PUT was acknowledged with 204 but its data is not in the backing file")
		}
	case http.StatusServiceUnavailable:
		// Correct refusal: the engine closed before the PUT got a slot.
	default:
		t.Fatalf("queued PUT finished with %d, want 204 (durable) or 503", status)
	}
}

// TestDrainRejectsNewWork checks the drain flag turns the data plane
// and health checks over to 503 while metrics stay up.
func TestDrainRejectsNewWork(t *testing.T) {
	ts := newTestServer(t, Config{}, nil)
	ts.createArray(t, "A", 4, 4)
	if err := ts.srv.Drain(); err != nil {
		t.Fatal(err)
	}
	status, _, hdr := ts.do(t, http.MethodGet, ts.url("/v1/arrays/A/tile?lo=0,0&hi=2,2"), nil)
	if status != http.StatusServiceUnavailable {
		t.Errorf("data plane after drain: status %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After")
	}
	if status, _, _ := ts.do(t, http.MethodGet, ts.url("/healthz"), nil); status != http.StatusServiceUnavailable {
		t.Errorf("healthz after drain: status %d, want 503", status)
	}
	if status, _, _ := ts.do(t, http.MethodGet, ts.url("/metrics"), nil); status != http.StatusOK {
		t.Errorf("metrics after drain: status %d, want 200", status)
	}
}
