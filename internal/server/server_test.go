package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/obs"
	"outcore/internal/ooc"
)

// encodePayload and decodePayload are the raw tile wire format, as the
// tests' clients speak it.
func encodePayload(data []float64) []byte { return EncodeTile(data, false) }

func decodePayload(b []byte, data []float64) {
	if err := DecodeTile(b, false, data); err != nil {
		panic(err)
	}
}

// instrumentedBackend counts and optionally delays backend reads; the
// coalescing and drain tests hang off it via Disk.WrapBackend.
type instrumentedBackend struct {
	ooc.Backend
	reads     atomic.Int64
	readDelay atomic.Int64 // nanoseconds applied to every ReadAt
}

func (b *instrumentedBackend) ReadAt(buf []float64, off int64) error {
	b.reads.Add(1)
	if d := b.readDelay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return b.Backend.ReadAt(buf, off)
}

// testServer bundles one served engine-over-disk with its HTTP front.
type testServer struct {
	srv  *Server
	http *httptest.Server
	disk *ooc.Disk
	back map[string]*instrumentedBackend
}

func newTestServer(t *testing.T, cfg Config, diskCfg func(*ooc.Disk)) *testServer {
	t.Helper()
	ts := &testServer{back: map[string]*instrumentedBackend{}}
	d := ooc.NewDisk(0)
	d.WrapBackend(func(name string, b ooc.Backend) ooc.Backend {
		ib := &instrumentedBackend{Backend: b}
		ts.back[name] = ib
		return ib
	})
	if diskCfg != nil {
		diskCfg(d)
	}
	eng := ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 16})
	ts.disk = d
	ts.srv = New(d, eng, cfg)
	ts.http = httptest.NewServer(ts.srv.Handler())
	t.Cleanup(func() {
		ts.http.Close()
		ts.srv.Drain()
	})
	return ts
}

func (ts *testServer) url(format string, args ...any) string {
	return ts.http.URL + fmt.Sprintf(format, args...)
}

// do issues a request and returns status + body.
func (ts *testServer) do(t *testing.T, method, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header
}

func (ts *testServer) createArray(t *testing.T, name string, dims ...int64) {
	t.Helper()
	body, _ := json.Marshal(ArrayInfo{Name: name, Dims: dims})
	status, out, _ := ts.do(t, http.MethodPost, ts.url("/v1/arrays"), body)
	if status != http.StatusCreated {
		t.Fatalf("create %s: status %d, body %s", name, status, out)
	}
}

func TestEndpoints(t *testing.T) {
	ts := newTestServer(t, Config{}, nil)

	// healthz and metrics are always up.
	if status, body, _ := ts.do(t, http.MethodGet, ts.url("/healthz"), nil); status != 200 || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %q", status, body)
	}

	// Create, duplicate-create, list, get.
	ts.createArray(t, "A", 8, 8)
	body, _ := json.Marshal(ArrayInfo{Name: "A", Dims: []int64{8, 8}})
	if status, _, _ := ts.do(t, http.MethodPost, ts.url("/v1/arrays"), body); status != http.StatusConflict {
		t.Errorf("duplicate create: status %d, want 409", status)
	}
	status, out, _ := ts.do(t, http.MethodGet, ts.url("/v1/arrays"), nil)
	if status != 200 || !strings.Contains(string(out), `"name": "A"`) {
		t.Errorf("list: %d %s", status, out)
	}
	if status, _, _ := ts.do(t, http.MethodGet, ts.url("/v1/arrays/A"), nil); status != 200 {
		t.Errorf("get: status %d", status)
	}
	if status, _, _ := ts.do(t, http.MethodGet, ts.url("/v1/arrays/nope"), nil); status != http.StatusNotFound {
		t.Errorf("missing array: status %d, want 404", status)
	}

	// Write a tile, read it back, verify payload round trip.
	payload := make([]float64, 4*4)
	for i := range payload {
		payload[i] = float64(i) + 0.5
	}
	status, out, _ = ts.do(t, http.MethodPut, ts.url("/v1/arrays/A/tile?lo=2,2&hi=6,6"), encodePayload(payload))
	if status != http.StatusNoContent {
		t.Fatalf("tile put: %d %s", status, out)
	}
	status, out, hdr := ts.do(t, http.MethodGet, ts.url("/v1/arrays/A/tile?lo=2,2&hi=6,6"), nil)
	if status != 200 {
		t.Fatalf("tile get: %d %s", status, out)
	}
	if hdr.Get("X-Tile-Elems") != "16" {
		t.Errorf("X-Tile-Elems = %q", hdr.Get("X-Tile-Elems"))
	}
	got := make([]float64, 16)
	decodePayload(out, got)
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("tile[%d] = %v, want %v", i, got[i], payload[i])
		}
	}

	// Metrics exposition includes the serving series, in both formats.
	if _, out, _ := ts.do(t, http.MethodGet, ts.url("/metrics"), nil); !strings.Contains(string(out), "occd_requests_total") {
		t.Errorf("prometheus metrics missing serving series: %s", out)
	}
	if _, out, _ := ts.do(t, http.MethodGet, ts.url("/metrics?format=json"), nil); !strings.Contains(string(out), "occd_requests_total") {
		t.Errorf("json metrics missing serving series: %s", out)
	}

	// Stats reflect the traffic.
	var st statsPayload
	_, out, _ = ts.do(t, http.MethodGet, ts.url("/v1/stats"), nil)
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatal(err)
	}
	if st.Requests == 0 || st.Engine.Acquires() == 0 {
		t.Errorf("stats did not move: %+v", st)
	}
}

func TestMalformedTileRequests(t *testing.T) {
	ts := newTestServer(t, Config{}, nil)
	ts.createArray(t, "A", 8, 8)
	cases := []struct {
		name, method, url string
		body              []byte
		want              int
	}{
		{"missing lo", http.MethodGet, "/v1/arrays/A/tile?hi=2,2", nil, 400},
		{"garbage lo", http.MethodGet, "/v1/arrays/A/tile?lo=x,y&hi=2,2", nil, 400},
		{"negative coord", http.MethodGet, "/v1/arrays/A/tile?lo=-1,0&hi=2,2", nil, 400},
		{"rank mismatch", http.MethodGet, "/v1/arrays/A/tile?lo=0&hi=2", nil, 400},
		{"hi below lo", http.MethodGet, "/v1/arrays/A/tile?lo=4,4&hi=2,2", nil, 400},
		{"empty after clip", http.MethodGet, "/v1/arrays/A/tile?lo=9,9&hi=12,12", nil, 400},
		{"short payload", http.MethodPut, "/v1/arrays/A/tile?lo=0,0&hi=2,2", make([]byte, 8), 400},
		{"long payload", http.MethodPut, "/v1/arrays/A/tile?lo=0,0&hi=2,2", make([]byte, 5*8), 400},
		{"bad create body", http.MethodPost, "/v1/arrays", []byte("{"), 400},
		{"bad layout", http.MethodPost, "/v1/arrays", []byte(`{"name":"B","dims":[4],"layout":"diag"}`), 400},
		{"bad name", http.MethodPost, "/v1/arrays", []byte(`{"name":"a/b","dims":[4]}`), 400},
		{"no dims", http.MethodPost, "/v1/arrays", []byte(`{"name":"B"}`), 400},
		{"negative extent", http.MethodPost, "/v1/arrays", []byte(`{"name":"B","dims":[-4]}`), 400},
		{"tile of missing array", http.MethodGet, "/v1/arrays/nope/tile?lo=0,0&hi=2,2", nil, 404},
	}
	for _, c := range cases {
		status, body, _ := ts.do(t, c.method, ts.http.URL+c.url, c.body)
		if status != c.want {
			t.Errorf("%s: status %d (want %d), body %s", c.name, status, c.want, body)
		}
	}
}

// TestColdTileCoalescing is the serving-level proof that concurrent
// GETs of one cold tile share one backend read: K of them cause exactly
// one backend ReadAt and one engine miss, and every other request is an
// engine hit (it waited out the in-flight read or found the tile
// cached). The sharing is the engine's (ooc.Engine.Acquire); run under
// -race this exercises the tile lock and engine for data races.
func TestColdTileCoalescing(t *testing.T) {
	const K = 24
	ts := newTestServer(t, Config{MaxInflight: K, QueueDepth: K}, nil)
	ts.createArray(t, "A", 16, 16)
	ib := ts.back["A"]
	ib.readDelay.Store(int64(100 * time.Millisecond))

	var wg sync.WaitGroup
	start := make(chan struct{})
	statuses := make([]int, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			req, err := http.NewRequest(http.MethodGet, ts.url("/v1/arrays/A/tile?lo=0,0&hi=16,16"), nil)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	close(start)
	wg.Wait()

	for i, status := range statuses {
		if status != 200 {
			t.Fatalf("request %d: status %d", i, status)
		}
	}
	if got := ib.reads.Load(); got != 1 {
		t.Errorf("backend ReadAt called %d times for one cold tile, want exactly 1", got)
	}
	var st statsPayload
	_, out, _ := ts.do(t, http.MethodGet, ts.url("/v1/stats"), nil)
	if err := json.Unmarshal(out, &st); err != nil {
		t.Fatal(err)
	}
	if st.Engine.Misses != 1 {
		t.Errorf("engine misses = %d, want 1", st.Engine.Misses)
	}
	// Every request but the one that missed was an engine hit; nothing
	// fell through to a second read.
	if st.Engine.Hits != K-1 {
		t.Errorf("engine hits = %d, want %d", st.Engine.Hits, K-1)
	}
}

func TestAdmissionQueueOverflow(t *testing.T) {
	ts := newTestServer(t, Config{MaxInflight: 1, QueueDepth: 1}, nil)
	ts.createArray(t, "A", 8, 8)
	ib := ts.back["A"]
	ib.readDelay.Store(int64(300 * time.Millisecond))

	stats := func() statsPayload {
		var st statsPayload
		_, out, _ := ts.do(t, http.MethodGet, ts.url("/v1/stats"), nil)
		if err := json.Unmarshal(out, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Request 1 occupies the only inflight slot (cold tile, slow read);
	// request 2 parks in the queue. Distinct tiles so a shared read cannot
	// short-circuit admission.
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			status, _, _ := ts.do(t, http.MethodGet, ts.url("/v1/arrays/A/tile?lo=%d,0&hi=%d,8", i, i+1), nil)
			results <- status
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := stats()
		if st.Inflight >= 1 && st.Queued >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot+queue never filled: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Request 3 finds the queue full: 503 + Retry-After.
	status, _, hdr := ts.do(t, http.MethodGet, ts.url("/v1/arrays/A/tile?lo=4,0&hi=5,8"), nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("overflow request: status %d, want 503", status)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	// The parked requests complete once the slot frees.
	for i := 0; i < 2; i++ {
		if status := <-results; status != 200 {
			t.Errorf("parked request finished with %d", status)
		}
	}
	if st := stats(); st.RejectedQueue != 1 {
		t.Errorf("rejected_queue = %d, want 1", st.RejectedQueue)
	}
}

// newAdmission is a front end with one admission slot and room for
// depth waiters; the admission tests never reach a plane.
func newAdmission(depth int) *FrontEnd {
	return NewFrontEnd(nil, FrontConfig{Reg: obs.NewRegistry(), MaxInflight: 1, QueueDepth: depth})
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAcquireQueueAndHandoff(t *testing.T) {
	fe := newAdmission(1)
	ctx := context.Background()
	if !fe.acquire(ctx) {
		t.Fatal("first acquire failed on an empty pool")
	}
	granted := make(chan bool, 1)
	go func() {
		ok := fe.acquire(ctx)
		if ok {
			fe.release()
		}
		granted <- ok
	}()
	waitFor(t, func() bool { return fe.queued.Load() == 1 })
	// Queue depth 1 is spent: the next arrival bounces.
	if fe.acquire(ctx) {
		t.Fatal("acquire succeeded past a full queue")
	}
	fe.release()
	if !<-granted {
		t.Fatal("queued waiter was not handed the released slot")
	}
}

func TestAcquireContextCancel(t *testing.T) {
	fe := newAdmission(8)
	fe.acquire(context.Background())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() { done <- fe.acquire(ctx) }()
	waitFor(t, func() bool { return fe.queued.Load() == 1 })
	cancel()
	if <-done {
		t.Fatal("cancelled waiter reported a grant")
	}
	if n := fe.queued.Load(); n != 0 {
		t.Errorf("queued = %d after cancel, want 0 (slot leak)", n)
	}
	fe.release()
	// The pool must be whole again.
	if !fe.acquire(context.Background()) {
		t.Fatal("acquire failed after cancel+release; the cancelled waiter leaked the slot")
	}
	fe.release()
}

func TestFailWaitersFlushesQueues(t *testing.T) {
	fe := newAdmission(8)
	fe.acquire(context.Background())
	done := make(chan bool, 1)
	go func() { done <- fe.acquire(context.Background()) }()
	waitFor(t, func() bool { return fe.queued.Load() == 1 })
	fe.StopAdmitting()
	if <-done {
		t.Fatal("parked waiter admitted during drain")
	}
	if n := fe.queued.Load(); n != 0 {
		t.Errorf("queued = %d after StopAdmitting, want 0", n)
	}
	if fe.acquire(context.Background()) {
		t.Fatal("acquire succeeded on a draining front end")
	}
	fe.release() // must not hand the slot to anyone or panic
}

// nopWriter is a reusable ResponseWriter that discards everything.
type nopWriter struct{ h http.Header }

func (w nopWriter) Header() http.Header         { return w.h }
func (w nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w nopWriter) WriteHeader(int)             {}

// TestAdmitAllocs holds the admission gate — drain check, slot acquire
// and release, request counter and latency histogram — at zero
// allocations per admitted request.
func TestAdmitAllocs(t *testing.T) {
	fe := newAdmission(1)
	served := 0
	h := fe.admit(func(http.ResponseWriter, *http.Request) { served++ })
	w, r := nopWriter{http.Header{}}, httptest.NewRequest(http.MethodGet, "/v1/arrays", nil)
	if n := testing.AllocsPerRun(1000, func() { h(w, r) }); n != 0 {
		t.Errorf("admit/release cycle makes %.1f allocations, want 0", n)
	}
	if served == 0 || len(fe.pool) != 0 {
		t.Errorf("served %d requests, %d slots still held; want > 0 and 0", served, len(fe.pool))
	}
}

// TestTileHandlerAllocs holds a cached tile GET, a generation HEAD and
// a generation-carrying PUT through Server.Handler() — routing,
// admission, query parsing, the generation table, payload rendering
// and headers — at their allocation counts, with the writer reused. A
// new allocation on the tile path fails here before it shows in the
// benchmark. Under -race the paths still run, but the counts are not
// compared: the detector's instrumentation allocates on its own, and
// sync.Pool drops a random share of the buffers put back.
func TestTileHandlerAllocs(t *testing.T) {
	d := ooc.NewDisk(0)
	srv := New(d, ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 16}), Config{})
	defer srv.Drain()
	if _, err := d.CreateArray(ir.NewArray("A", 64, 64), layout.RowMajor(64, 64)); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	w := nopWriter{http.Header{}}
	const url = "/v1/arrays/A/tile?lo=0,32&hi=32,64"
	payload := encodePayload(make([]float64, 32*32))
	body := bytes.NewReader(payload)
	put := httptest.NewRequest(http.MethodPut, url, nil)
	put.Body = io.NopCloser(body)
	put.Header.Set(TileGenHeader, "7")
	for _, tc := range []struct {
		name string
		req  *http.Request
		want float64
	}{
		{"PUT", put, 5},
		{"GET", httptest.NewRequest(http.MethodGet, url, nil), 5},
		{"HEAD", httptest.NewRequest(http.MethodHead, url, nil), 3},
	} {
		run := func() {
			body.Reset(payload)
			h.ServeHTTP(w, tc.req)
		}
		run() // warm the tile, the generation table and the pools
		if n := testing.AllocsPerRun(500, run); !raceEnabled && n != tc.want {
			t.Errorf("%s makes %.0f allocations, want %.0f", tc.name, n, tc.want)
		}
	}
	if got := w.h.Get(TileGenHeader); got != "7" {
		t.Errorf("HEAD reports generation %q, want 7", got)
	}
}
