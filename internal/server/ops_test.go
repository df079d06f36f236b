package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/obs"
	"outcore/internal/ooc"
)

// opsClient carries the operator tests' requests on a transport of
// their own: httptest.Server.Close closes http.DefaultTransport's idle
// connections, which breaks a parallel subtest's request that was
// about to reuse one ("CloseIdleConnections called").
var opsClient = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}

// opsServer builds a served engine plane for the operator and
// conformance tests.
func opsServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	d := ooc.NewDisk(0)
	eng := ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 32})
	srv := New(d, eng, cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Drain()
	})
	return srv, hs
}

func opsCreate(t testing.TB, base, name string, dims []int64, layoutName string) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"name": name, "dims": dims, "layout": layoutName})
	resp, err := opsClient.Post(base+"/v1/arrays", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: status %d", name, resp.StatusCode)
	}
}

func boxQuery(box layout.Box) string {
	return fmt.Sprintf("lo=%s&hi=%s", coordList(box.Lo), coordList(box.Hi))
}

// opsPutTile writes one tile over HTTP, optionally generation-gated.
func opsPutTile(t testing.TB, base, name string, box layout.Box, data []float64, gen uint64) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/arrays/%s/tile?%s", base, name, boxQuery(box))
	req, _ := http.NewRequest(http.MethodPut, url, bytes.NewReader(encodePayload(data)))
	if gen > 0 {
		req.Header.Set(TileGenHeader, fmt.Sprint(gen))
	}
	resp, err := opsClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put %s %v: status %d", name, box, resp.StatusCode)
	}
}

// opsGetTile reads one tile over HTTP, returning payload bytes and the
// reported write generation.
func opsGetTile(t testing.TB, base, name string, box layout.Box) ([]byte, uint64) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/arrays/%s/tile?%s", base, name, boxQuery(box))
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set(TileWantGenHeader, "1")
	resp, err := opsClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get %s %v: status %d %s", name, box, resp.StatusCode, body)
	}
	var gen uint64
	fmt.Sscan(resp.Header.Get(TileGenHeader), &gen)
	return body, gen
}

func randBox(rng *rand.Rand, dims []int64, maxEdge int64) layout.Box {
	lo := make([]int64, len(dims))
	hi := make([]int64, len(dims))
	for d := range dims {
		edge := 1 + rng.Int63n(maxEdge)
		if edge > dims[d] {
			edge = dims[d]
		}
		lo[d] = rng.Int63n(dims[d] - edge + 1)
		hi[d] = lo[d] + edge
	}
	return layout.NewBox(lo, hi)
}

func randData(rng *rand.Rand, n int64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * 100
	}
	return out
}

// scanAll runs one scan request and decodes every frame.
func scanAll(t testing.TB, base, name, query string, compress bool) ([]*ScanChunk, uint64) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/arrays/%s/scan?%s", base, name, query), nil)
	if compress {
		req.Header.Set("Accept-Encoding", WireEncoding)
	}
	resp, err := opsClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("scan %s?%s: status %d %s", name, query, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ScanContentType {
		t.Fatalf("scan content type %q", ct)
	}
	sr := NewScanReader(resp.Body)
	var chunks []*ScanChunk
	for {
		ch, err := sr.Next()
		if err == io.EOF {
			return chunks, sr.Total()
		}
		if err != nil {
			t.Fatalf("scan frame %d: %v", len(chunks), err)
		}
		// Next lends its buffers until the next call: keep a copy.
		chunks = append(chunks, &ScanChunk{Seq: ch.Seq, Box: layout.NewBox(ch.Box.Lo, ch.Box.Hi), Cursor: ch.Cursor, Data: slices.Clone(ch.Data)})
	}
}

// TestScanStream: the stream covers the box exactly in plan order, and
// every chunk is byte-identical to a tile GET of the chunk's box —
// raw and compressed alike.
func TestScanStream(t *testing.T) {
	for _, layoutName := range []string{"row", "col"} {
		for _, compress := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s-compress=%v", layoutName, compress), func(t *testing.T) {
				_, hs := opsServer(t, Config{})
				name := "S"
				dims := []int64{40, 24}
				opsCreate(t, hs.URL, name, dims, layoutName)
				rng := rand.New(rand.NewSource(7))
				full := layout.NewBox([]int64{0, 0}, []int64{40, 24})
				opsPutTile(t, hs.URL, name, full, randData(rng, full.Size()), 0)

				box := layout.NewBox([]int64{3, 2}, []int64{37, 22})
				chunks, total := scanAll(t, hs.URL, name, boxQuery(box)+"&chunk=100", compress)
				if uint64(len(chunks)) != total {
					t.Fatalf("%d chunks delivered, trailer says %d", len(chunks), total)
				}
				var l *layout.Layout
				if layoutName == "col" {
					l = layout.ColMajor(dims...)
				} else {
					l = layout.RowMajor(dims...)
				}
				plan := layout.PlanScan(l, box, 100)
				if len(plan) != len(chunks) {
					t.Fatalf("%d chunks, plan has %d", len(chunks), len(plan))
				}
				for i, ch := range chunks {
					if ch.Seq != uint64(i) {
						t.Fatalf("chunk %d has seq %d", i, ch.Seq)
					}
					if ch.Box.String() != plan[i].String() {
						t.Fatalf("chunk %d box %v, plan %v", i, ch.Box, plan[i])
					}
					ref, _ := opsGetTile(t, hs.URL, name, ch.Box)
					if !bytes.Equal(encodePayload(ch.Data), ref) {
						t.Fatalf("chunk %d differs from tile GET of %v", i, ch.Box)
					}
					if ch.Cursor == "" {
						t.Fatalf("chunk %d carries no cursor", i)
					}
				}
			})
		}
	}
}

// TestScanResume: a scan resumed from chunk k's cursor delivers
// exactly chunks k+1.. — no skips, no double delivery.
func TestScanResume(t *testing.T) {
	_, hs := opsServer(t, Config{})
	opsCreate(t, hs.URL, "R", []int64{32, 32}, "row")
	rng := rand.New(rand.NewSource(11))
	full := layout.NewBox([]int64{0, 0}, []int64{32, 32})
	opsPutTile(t, hs.URL, "R", full, randData(rng, full.Size()), 0)

	all, _ := scanAll(t, hs.URL, "R", boxQuery(full)+"&chunk=128", false)
	if len(all) < 4 {
		t.Fatalf("want several chunks, got %d", len(all))
	}
	for _, k := range []int{0, len(all) / 2, len(all) - 1} {
		resumed, total := scanAll(t, hs.URL, "R", "cursor="+all[k].Cursor, false)
		if int(total) != len(all) {
			t.Fatalf("resume at %d: trailer total %d, want %d", k, total, len(all))
		}
		if len(resumed) != len(all)-k-1 {
			t.Fatalf("resume at %d: %d chunks, want %d", k, len(resumed), len(all)-k-1)
		}
		for i, ch := range resumed {
			want := all[k+1+i]
			if ch.Seq != want.Seq || ch.Box.String() != want.Box.String() {
				t.Fatalf("resume at %d: chunk %d is seq %d %v, want seq %d %v",
					k, i, ch.Seq, ch.Box, want.Seq, want.Box)
			}
			if !bytes.Equal(encodePayload(ch.Data), encodePayload(want.Data)) {
				t.Fatalf("resume at %d: chunk seq %d data differs", k, ch.Seq)
			}
		}
	}
	// The last chunk's cursor resumes to an empty tail: just a trailer.
	tail, _ := scanAll(t, hs.URL, "R", "cursor="+all[len(all)-1].Cursor, false)
	if len(tail) != 0 {
		t.Fatalf("resume past the end delivered %d chunks", len(tail))
	}
}

// TestScanCursorRejection: malformed or mismatched cursors 400 (404
// for an unknown array), never 5xx.
func TestScanCursorRejection(t *testing.T) {
	_, hs := opsServer(t, Config{})
	opsCreate(t, hs.URL, "C", []int64{16, 16}, "row")
	box := layout.NewBox([]int64{0, 0}, []int64{16, 16})

	get := func(q string) int {
		resp, err := opsClient.Get(hs.URL + "/v1/arrays/C/scan?" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		cursor string
		want   int
	}{
		{"garbage!!!", 400},
		{base64.RawURLEncoding.EncodeToString([]byte("not-a-cursor")), 400},
		{EncodeScanCursor("C", box, 64, "col-major", 0), 400}, // wrong layout
		{EncodeScanCursor("gone", box, 64, "row-major", 0), 404},
		{EncodeScanCursor("C", box, 64, "row-major", 9999), 400}, // seq past plan
		{EncodeScanCursor("C", layout.NewBox([]int64{0, 0}, []int64{99, 99}), 64, "row-major", 0), 400},
	}
	for _, tc := range cases {
		if got := get("cursor=" + tc.cursor); got != tc.want {
			t.Errorf("cursor %.24q...: status %d, want %d", tc.cursor, got, tc.want)
		}
	}
	// A tampered token must fail the checksum.
	tok := EncodeScanCursor("C", box, 64, "row-major", 1)
	raw, _ := base64.RawURLEncoding.DecodeString(tok)
	raw[3] ^= 0x40
	if got := get("cursor=" + base64.RawURLEncoding.EncodeToString(raw)); got != 400 {
		t.Errorf("tampered cursor: status %d, want 400", got)
	}
}

// TestReduceMatchesClientFold: reduce ≡ the client-side fold over a
// plain GET, bit-for-bit (the Bits field carries exactness through
// JSON).
func TestReduceMatchesClientFold(t *testing.T) {
	_, hs := opsServer(t, Config{})
	opsCreate(t, hs.URL, "D", []int64{48, 32}, "row")
	rng := rand.New(rand.NewSource(3))
	full := layout.NewBox([]int64{0, 0}, []int64{48, 32})
	opsPutTile(t, hs.URL, "D", full, randData(rng, full.Size()), 0)

	box := layout.NewBox([]int64{5, 3}, []int64{43, 29})
	payload, _ := opsGetTile(t, hs.URL, "D", box)
	ref := make([]float64, box.Size())
	decodePayload(payload, ref)

	fold := map[string]func() float64{
		"sum": func() float64 {
			var s float64
			for _, v := range ref {
				s += v
			}
			return s
		},
		"min": func() float64 {
			m := math.Inf(1)
			for _, v := range ref {
				if v < m {
					m = v
				}
			}
			return m
		},
		"max": func() float64 {
			m := math.Inf(-1)
			for _, v := range ref {
				if v > m {
					m = v
				}
			}
			return m
		},
		"count": func() float64 { return float64(box.Size()) },
	}
	for op, f := range fold {
		body, _ := json.Marshal(reduceRequest{Op: op, Lo: box.Lo, Hi: box.Hi})
		resp, err := opsClient.Post(hs.URL+"/v1/arrays/D/reduce", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out reduceResponse
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reduce %s: status %d", op, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if out.Count != box.Size() {
			t.Errorf("reduce %s: count %d, want %d", op, out.Count, box.Size())
		}
		if want := math.Float64bits(f()); out.Bits != want {
			t.Errorf("reduce %s: bits %x, want %x (value %v)", op, out.Bits, want, f())
		}
	}
	// Unknown op and bad boxes 400.
	for _, bad := range []string{
		`{"op":"mean","lo":[0,0],"hi":[4,4]}`,
		`{"op":"sum","lo":[0],"hi":[4,4]}`,
		`{"op":"sum","lo":[4,4],"hi":[0,0]}`,
		`nope`,
	} {
		resp, err := opsClient.Post(hs.URL+"/v1/arrays/D/reduce", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("reduce %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestOperatorConformance is the differential suite's single-node
// (occd) half; internal/cluster runs the router+3-node half. Across
// seeds, generation-gated single-tile PUTs land on the plane; then its
// scans must equal concatenated tile GETs in plan order, and its
// reduce must equal the client-side fold over a tile GET.
func TestOperatorConformance(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 6
	}
	dims := []int64{48, 48}
	for seed := 0; seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			_, subject := opsServer(t, Config{})
			layoutName := "row"
			if seed%2 == 1 {
				layoutName = "col"
			}
			opsCreate(t, subject.URL, "A", dims, layoutName)

			rng := rand.New(rand.NewSource(int64(seed)*7919 + 17))
			// Write phase: generation-gated single-tile puts.
			for gen := uint64(1); gen <= 18; gen++ {
				box := randBox(rng, dims, 16)
				data := randData(rng, box.Size())
				opsPutTile(t, subject.URL, "A", box, data, gen)
			}

			// Scan ≡ concatenated tile GETs in plan order, resumable at
			// any chunk.
			scanBox := randBox(rng, dims, 48)
			chunkElems := int64(1 + rng.Intn(500))
			chunks, _ := scanAll(t, subject.URL, "A", boxQuery(scanBox)+fmt.Sprintf("&chunk=%d", chunkElems), rng.Intn(2) == 0)
			var l *layout.Layout
			if layoutName == "col" {
				l = layout.ColMajor(dims...)
			} else {
				l = layout.RowMajor(dims...)
			}
			plan := layout.PlanScan(l, scanBox, chunkElems)
			if len(chunks) != len(plan) {
				t.Fatalf("scan delivered %d chunks, plan has %d", len(chunks), len(plan))
			}
			for i, ch := range chunks {
				if ch.Box.String() != plan[i].String() {
					t.Fatalf("chunk %d box %v, plan %v", i, ch.Box, plan[i])
				}
				refPayload, _ := opsGetTile(t, subject.URL, "A", ch.Box)
				if !bytes.Equal(encodePayload(ch.Data), refPayload) {
					t.Fatalf("scan chunk %d differs from tile GET of %v", i, ch.Box)
				}
			}
			if len(chunks) > 1 {
				k := rng.Intn(len(chunks) - 1)
				resumed, _ := scanAll(t, subject.URL, "A", "cursor="+chunks[k].Cursor, false)
				if len(resumed) != len(chunks)-k-1 {
					t.Fatalf("resume at %d delivered %d chunks, want %d", k, len(resumed), len(chunks)-k-1)
				}
				for i, ch := range resumed {
					if ch.Seq != chunks[k+1+i].Seq {
						t.Fatalf("resume skipped or repeated: got seq %d, want %d", ch.Seq, chunks[k+1+i].Seq)
					}
				}
			}

			// Reduce ≡ client-side fold over a single-tile GET.
			redBox := randBox(rng, dims, 32)
			refPayload, _ := opsGetTile(t, subject.URL, "A", redBox)
			refData := make([]float64, redBox.Size())
			decodePayload(refPayload, refData)
			var sum float64
			minV, maxV := math.Inf(1), math.Inf(-1)
			for _, v := range refData {
				sum += v
				if v < minV {
					minV = v
				}
				if v > maxV {
					maxV = v
				}
			}
			want := map[string]float64{"sum": sum, "min": minV, "max": maxV, "count": float64(redBox.Size())}
			for op, wv := range want {
				rb, _ := json.Marshal(reduceRequest{Op: op, Lo: redBox.Lo, Hi: redBox.Hi})
				resp, err := opsClient.Post(subject.URL+"/v1/arrays/A/reduce", "application/json", bytes.NewReader(rb))
				if err != nil {
					t.Fatal(err)
				}
				var rr reduceResponse
				if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if rr.Bits != math.Float64bits(wv) {
					t.Fatalf("reduce %s over %v: bits %x, want %x", op, redBox, rr.Bits, math.Float64bits(wv))
				}
			}
		})
	}
}

// newFuzzServer builds a minimal served plane for the fuzz targets
// (they cannot use the *testing.T helpers).
func newFuzzServer(f *testing.F) (*Server, *httptest.Server) {
	d := ooc.NewDisk(0)
	if _, err := d.CreateArray(ir.NewArray("F", 32, 32), layout.RowMajor(32, 32)); err != nil {
		f.Fatal(err)
	}
	eng := ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 8})
	srv := New(d, eng, Config{})
	hs := httptest.NewServer(srv.Handler())
	f.Cleanup(func() {
		hs.Close()
		srv.Drain()
	})
	return srv, hs
}

// FuzzScanCursor: arbitrary cursor tokens must parse-or-400 — never
// panic, never 5xx, never start a scan with an inconsistent plan.
func FuzzScanCursor(f *testing.F) {
	_, hs := newFuzzServer(f)
	box := layout.NewBox([]int64{0, 0}, []int64{32, 32})
	f.Add(EncodeScanCursor("F", box, 64, "row-major", 0))
	f.Add(EncodeScanCursor("F", box, 64, "row-major", 3))
	f.Add(EncodeScanCursor("gone", box, 64, "row-major", 0))
	f.Add(EncodeScanCursor("F", box, 64, "col-major", 1))
	f.Add("")
	f.Add("AAAA")
	f.Add("not base64 at all!!")
	f.Add(base64.RawURLEncoding.EncodeToString([]byte("ooc-scan/1|F|0,0|32,32|64|row-major|0|deadbeef")))
	f.Fuzz(func(t *testing.T, token string) {
		// The parser must never panic, and a token it rejects must be
		// rejected deterministically.
		if _, err := ParseScanCursor(token); err != nil {
			if _, err2 := ParseScanCursor(token); err2 == nil {
				t.Fatal("ParseScanCursor flip-flopped on the same token")
			}
		}
		resp, err := opsClient.Get(hs.URL + "/v1/arrays/F/scan?cursor=" + url.QueryEscape(token))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("cursor %q: status %d", token, resp.StatusCode)
		}
	})
}

// TestEngineFailureStatus pins the status an engine failure maps to:
// a closed engine is a retryable 503, anything else is a described 500.
func TestEngineFailureStatus(t *testing.T) {
	ts := newTestServer(t, Config{}, nil)
	if code, _ := ts.srv.front.failure(ooc.ErrEngineClosed); code != http.StatusServiceUnavailable {
		t.Errorf("closed engine: %d, want 503", code)
	}
	if code, msg := ts.srv.front.failure(errors.New("stripe torn")); code != http.StatusInternalServerError || msg != "stripe torn" {
		t.Errorf("generic failure: %d %q, want a described 500", code, msg)
	}
}

// hangupPlane serves a 1-D array whose ReadBox for chunk hangAt does
// not return until the request's context is done, and records every
// chunk it was asked for.
type hangupPlane struct {
	Plane
	arr    Array
	hangAt int64 // chunk index (box.Lo[0] / chunk size) that waits for the hang-up
	chunk  int64
	mu     sync.Mutex
	read   []int64
}

func (p *hangupPlane) Lookup(name string) (Array, bool) { return p.arr, name == p.arr.Name }

func (p *hangupPlane) ReadBox(ctx context.Context, _ Array, box layout.Box,
	render func([]float64, uint64) []byte) ([]byte, uint64, error) {
	k := box.Lo[0] / p.chunk
	p.mu.Lock()
	p.read = append(p.read, k)
	p.mu.Unlock()
	if k == p.hangAt {
		<-ctx.Done()
	}
	// Like a router fetch that ignores ctx, the read still succeeds.
	return render(make([]float64, box.Size()), 0), 0, nil
}

// TestScanStopsAfterHangUp: once a scan's client hangs up, the handler
// returns before reading another chunk instead of streaming into a
// dead socket until a write happens to fail.
func TestScanStopsAfterHangUp(t *testing.T) {
	const chunk, chunks = 4, 64
	p := &hangupPlane{
		arr:    Array{Name: "S", Dims: []int64{chunk * chunks}, Layout: layout.RowMajor(chunk * chunks)},
		hangAt: 1,
		chunk:  chunk,
	}
	fe := NewFrontEnd(p, FrontConfig{Reg: obs.NewRegistry()})
	done := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(done)
		fe.Handler().ServeHTTP(w, r)
	}))
	defer hs.Close()

	resp, err := opsClient.Get(fmt.Sprintf("%s/v1/arrays/S/scan?lo=0&hi=%d&chunk=%d", hs.URL, chunk*chunks, chunk))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScanReader(resp.Body).Next(); err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	resp.Body.Close() // hang up while chunk 1 is being read
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("scan handler still running 10s after the client hung up")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, k := range p.read {
		if k > p.hangAt {
			t.Fatalf("chunks read %v: chunk %d was read after the client hung up during chunk %d", p.read, k, p.hangAt)
		}
	}
}

// reduceSink keeps the client-side fold of BenchmarkReduceVsGetSum live.
var reduceSink float64

// BenchmarkReduceVsGetSum prices the pushed-down reduce against what a
// client does without it: GET the same box and fold it locally. Both
// arms run over loopback HTTP against a warm cache, on the n×n corner
// of a 256×256 row-major array (DESIGN.md §3.2, "Batch and reduce,
// priced").
func BenchmarkReduceVsGetSum(b *testing.B) {
	_, hs := opsServer(b, Config{})
	opsCreate(b, hs.URL, "A", []int64{256, 256}, "row")
	full := layout.NewBox([]int64{0, 0}, []int64{256, 256})
	opsPutTile(b, hs.URL, "A", full, randData(rand.New(rand.NewSource(1)), full.Size()), 0)
	for _, n := range []int64{32, 128, 256} {
		box := layout.NewBox([]int64{0, 0}, []int64{n, n})
		body, _ := json.Marshal(reduceRequest{Op: "sum", Lo: box.Lo, Hi: box.Hi})
		b.Run(fmt.Sprintf("n=%d/reduce", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				resp, err := opsClient.Post(hs.URL+"/v1/arrays/A/reduce", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				var out reduceResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("reduce: status %d, %v", resp.StatusCode, err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/get-sum", n), func(b *testing.B) {
			data := make([]float64, box.Size())
			for i := 0; i < b.N; i++ {
				payload, _ := opsGetTile(b, hs.URL, "A", box)
				decodePayload(payload, data)
				var s float64
				for _, v := range data {
					s += v
				}
				reduceSink = s
			}
		})
	}
}
