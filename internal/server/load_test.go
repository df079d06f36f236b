package server

// The serving gates: a zipf-skewed multi-client tile workload driven
// over real HTTP, and the plain tests that hold its numbers — scans cut
// round trips >= 5x, the wire coding cuts bytes >= 2x, and a storage
// fault storm under load still drains clean once the device heals. The
// fairness suite (package server_test) drives the same workload, which
// is why the driver's names are exported from this test file.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"outcore/internal/faultfs"
	"outcore/internal/layout"
	"outcore/internal/ooc"
)

// LoadSpec configures the synthetic multi-client tile workload. Tile
// selection is zipf-skewed — the multi-client array-access regime where
// a few hot tiles dominate, which is exactly what the engine's shared
// cold reads and its LRU cache are for.
type LoadSpec struct {
	BaseURL string // server root, e.g. http://127.0.0.1:8080

	Array    string  // target array name
	Dims     []int64 // its extents (tile grid derivation)
	TileEdge int64   // tile edge in elements per dimension

	Clients  int     // concurrent clients
	Requests int     // total requests across all clients
	ZipfS    float64 // zipf skew parameter (>1); <=1 = uniform
	ReadFrac float64 // fraction of point requests that read (rest write)
	Seed     int64   // deterministic tile-choice streams
	Compress bool    // negotiate the x-ooc-gorilla wire coding both ways

	// Scans replaces 80% of requests with streaming range scans that
	// each cover a full stripe of tiles in one request.
	Scans bool
}

// LoadResult is one load run's scorecard: client-side latency
// percentiles plus the server-side cache and wire deltas polled from
// /v1/stats around the run.
type LoadResult struct {
	Requests int     // requests issued
	OK       int     // 2xx responses
	Rejected int     // 503 backpressure responses
	Failed   int     // other non-2xx responses
	Errors   int     // transport failures
	P50      float64 // median latency, seconds (successful requests)
	P99      float64 // 99th-percentile latency, seconds

	Hits, Misses int64   // engine delta over the run
	HitRate      float64 // hits / (hits + misses), from the delta

	// Wire byte deltas from the server's /v1/stats front block.
	WireRawBytes int64 // logical tile payload bytes moved
	WireBytes    int64 // bytes that actually crossed the wire

	// RoundTrips counts HTTP requests actually issued; PointRoundTrips
	// counts what moving the same tile volume would have cost as
	// single-tile requests. Their ratio is the scans' round-trip
	// reduction at equal bytes (1:1 for a pure point workload).
	RoundTrips      int64
	PointRoundTrips int64
	ScanRequests    int64 // streaming scans issued
	ScanChunks      int64 // CRC-framed chunks those scans delivered
}

// tiles enumerates the aligned tile grid over dims.
func (spec LoadSpec) tiles() []layout.Box {
	edge := spec.TileEdge
	if edge <= 0 {
		edge = 8
	}
	grid := []layout.Box{{Lo: []int64{}, Hi: []int64{}}}
	for _, n := range spec.Dims {
		var next []layout.Box
		for _, b := range grid {
			for lo := int64(0); lo < n; lo += edge {
				hi := lo + edge
				if hi > n {
					hi = n
				}
				nb := layout.Box{
					Lo: append(append([]int64{}, b.Lo...), lo),
					Hi: append(append([]int64{}, b.Hi...), hi),
				}
				next = append(next, nb)
			}
		}
		grid = next
	}
	return grid
}

// picker returns a deterministic tile-index chooser: zipf-skewed when
// s > 1, uniform otherwise.
func picker(rng *rand.Rand, s float64, n int) func() int {
	if s > 1 && n > 1 {
		z := rand.NewZipf(rng, s, 1, uint64(n-1))
		return func() int { return int(z.Uint64()) }
	}
	return func() int { return rng.Intn(n) }
}

// RunLoad drives the workload closed-loop (each client fires its next
// request when the previous answer lands) and collates the scorecard.
// The server must already expose spec.Array.
func RunLoad(spec LoadSpec) (LoadResult, error) {
	if spec.Clients <= 0 {
		spec.Clients = 1
	}
	if spec.Requests <= 0 {
		spec.Requests = spec.Clients
	}
	tiles := spec.tiles()
	if len(tiles) == 0 {
		return LoadResult{}, fmt.Errorf("server: load spec yields no tiles (dims %v)", spec.Dims)
	}
	before, err := fetchStats(spec.BaseURL)
	if err != nil {
		return LoadResult{}, fmt.Errorf("server: load pre-stats: %w", err)
	}

	type clientTally struct {
		ok, rejected, failed, errs int
		lat                        []time.Duration

		roundTrips, pointTrips int64
		scans, scanChunks      int64
	}
	tallies := make([]clientTally, spec.Clients)
	var wg sync.WaitGroup
	for c := 0; c < spec.Clients; c++ {
		per := spec.Requests / spec.Clients
		if c < spec.Requests%spec.Clients {
			per++
		}
		wg.Add(1)
		go func(c, per int) {
			defer wg.Done()
			tally := &tallies[c]
			rng := rand.New(rand.NewSource(spec.Seed + int64(c)*7919))
			pick := picker(rng, spec.ZipfS, len(tiles))
			for i := 0; i < per; i++ {
				t0 := time.Now()
				var status int
				var err error
				tally.roundTrips++
				if spec.Scans && rng.Float64() < 0.8 {
					var chunks, pointEq int64
					status, chunks, pointEq, err = doScanRequest(spec, tiles[pick()])
					tally.scans++
					tally.scanChunks += chunks
					tally.pointTrips += pointEq
				} else {
					read := rng.Float64() < spec.ReadFrac
					status, err = doTileRequest(spec, tiles[pick()], read, rng)
					tally.pointTrips++
				}
				d := time.Since(t0)
				switch {
				case err != nil:
					tally.errs++
				case status == http.StatusServiceUnavailable:
					tally.rejected++
				case status >= 200 && status < 300:
					tally.ok++
					tally.lat = append(tally.lat, d)
				default:
					tally.failed++
				}
			}
		}(c, per)
	}
	wg.Wait()

	after, err := fetchStats(spec.BaseURL)
	if err != nil {
		return LoadResult{}, fmt.Errorf("server: load post-stats: %w", err)
	}

	res := LoadResult{Requests: spec.Requests}
	var lat []time.Duration
	for i := range tallies {
		res.OK += tallies[i].ok
		res.Rejected += tallies[i].rejected
		res.Failed += tallies[i].failed
		res.Errors += tallies[i].errs
		res.RoundTrips += tallies[i].roundTrips
		res.PointRoundTrips += tallies[i].pointTrips
		res.ScanRequests += tallies[i].scans
		res.ScanChunks += tallies[i].scanChunks
		lat = append(lat, tallies[i].lat...)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.P50 = percentile(lat, 0.50)
	res.P99 = percentile(lat, 0.99)
	res.Hits = after.Engine.Hits - before.Engine.Hits
	res.Misses = after.Engine.Misses - before.Engine.Misses
	if total := res.Hits + res.Misses; total > 0 {
		res.HitRate = float64(res.Hits) / float64(total)
	}
	res.WireRawBytes = after.WireRawBytes - before.WireRawBytes
	res.WireBytes = after.WireBytes - before.WireBytes
	return res, nil
}

// doScanRequest streams one range scan: the chosen tile's box widened
// to the array's full extent along the last dimension, chunked at one
// tile per frame — the same bytes a client would otherwise move with
// one point GET per tile on the stripe. Returns the chunk count
// consumed and that point-GET equivalent.
func doScanRequest(spec LoadSpec, tile layout.Box) (int, int64, int64, error) {
	last := len(tile.Lo) - 1
	lo := append([]int64{}, tile.Lo...)
	hi := append([]int64{}, tile.Hi...)
	edge := hi[last] - lo[last]
	lo[last] = 0
	hi[last] = spec.Dims[last]
	pointEq := (spec.Dims[last] + edge - 1) / edge
	chunk := edge
	for d := 0; d < last; d++ {
		chunk *= hi[d] - lo[d]
	}
	url := fmt.Sprintf("%s/v1/arrays/%s/scan?lo=%s&hi=%s&chunk=%d",
		spec.BaseURL, spec.Array, coordList(lo), coordList(hi), chunk)
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	if spec.Compress {
		req.Header.Set("Accept-Encoding", WireEncoding)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, 0, 0, nil
	}
	sr := NewScanReader(resp.Body)
	chunks := int64(0)
	for {
		_, err := sr.Next()
		if err == io.EOF {
			return resp.StatusCode, chunks, pointEq, nil
		}
		if err != nil {
			return 0, chunks, pointEq, err
		}
		chunks++
	}
}

// doTileRequest issues one tile read or write and returns the HTTP
// status. Write bodies are smooth tiles — a random per-tile base plus a
// dyadic ramp, the locally-coherent shape scientific kernels produce —
// so the compressed run measures a realistic wire win rather than the
// noise floor. With spec.Compress, writes travel as codec frames and
// reads offer the coding via Accept-Encoding.
func doTileRequest(spec LoadSpec, box layout.Box, read bool, rng *rand.Rand) (int, error) {
	url := fmt.Sprintf("%s/v1/arrays/%s/tile?lo=%s&hi=%s", spec.BaseURL, spec.Array, coordList(box.Lo), coordList(box.Hi))
	var req *http.Request
	var err error
	if read {
		req, err = http.NewRequest(http.MethodGet, url, nil)
		if err == nil && spec.Compress {
			req.Header.Set("Accept-Encoding", WireEncoding)
		}
	} else {
		data := make([]float64, box.Size())
		tileBase := float64(rng.Intn(4000)) * 0.25
		for i := range data {
			data[i] = tileBase + float64(i)*0.25
		}
		req, err = http.NewRequest(http.MethodPut, url, bytes.NewReader(EncodeTile(data, spec.Compress)))
		if err == nil && spec.Compress {
			req.Header.Set("Content-Encoding", WireEncoding)
		}
	}
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// percentile returns the q-quantile of sorted latencies, in seconds.
func percentile(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i].Seconds()
}

// fetchStats polls /v1/stats. An occrouter's scorecard carries the same
// keys, so one decoder serves both planes.
func fetchStats(base string) (statsPayload, error) {
	var out statsPayload
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("stats endpoint: %s", resp.Status)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

func TestLoadSpecTiles(t *testing.T) {
	spec := LoadSpec{Dims: []int64{10, 10}, TileEdge: 4}
	tiles := spec.tiles()
	if len(tiles) != 9 {
		t.Fatalf("10x10 grid at edge 4: %d tiles, want 9", len(tiles))
	}
	// Edge tiles clip to the array bound.
	last := tiles[len(tiles)-1]
	if last.Hi[0] != 10 || last.Hi[1] != 10 || last.Lo[0] != 8 || last.Lo[1] != 8 {
		t.Errorf("last tile = %v", last)
	}
	var total int64
	for _, b := range tiles {
		total += b.Size()
	}
	if total != 100 {
		t.Errorf("tiles cover %d elements, want 100", total)
	}
}

func TestPercentile(t *testing.T) {
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %v", p)
	}
	lat := []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	if p := percentile(lat, 0.5); p != 2 {
		t.Errorf("p50 = %v, want 2", p)
	}
	if p := percentile(lat, 0.99); p != 4 {
		t.Errorf("p99 = %v, want 4", p)
	}
}

// TestRunLoadAgainstServer drives the full harness loop against an
// in-process server: every request lands, the zipf skew produces cache
// hits, and the scorecard fields are coherent.
func TestRunLoadAgainstServer(t *testing.T) {
	ts := newTestServer(t, Config{}, nil)
	ts.createArray(t, "A", 32, 32)
	res, err := RunLoad(LoadSpec{
		BaseURL:  ts.http.URL,
		Array:    "A",
		Dims:     []int64{32, 32},
		TileEdge: 8,
		Clients:  4,
		Requests: 200,
		ZipfS:    1.2,
		ReadFrac: 0.8,
		Seed:     42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 200 {
		t.Fatalf("ok=%d rejected=%d failed=%d errors=%d, want 200 OK", res.OK, res.Rejected, res.Failed, res.Errors)
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Errorf("latency percentiles incoherent: p50=%v p99=%v", res.P50, res.P99)
	}
	// 200 zipf-skewed requests over a 16-tile grid must reuse tiles.
	if res.Hits == 0 || res.HitRate <= 0 {
		t.Errorf("no cache hits under zipf reuse: %+v", res)
	}
	if res.Hits+res.Misses == 0 {
		t.Error("engine saw no traffic")
	}
}

// TestRunLoadScanScenario is the operator round-trip gate: scans must
// move the stripe's tiles in single requests, so the point-GET
// round-trip equivalent has to come out at least 5x the requests
// actually issued.
func TestRunLoadScanScenario(t *testing.T) {
	ts := newTestServer(t, Config{}, nil)
	ts.createArray(t, "A", 64, 64)
	res, err := RunLoad(LoadSpec{
		BaseURL:  ts.http.URL,
		Array:    "A",
		Dims:     []int64{64, 64},
		TileEdge: 8,
		Clients:  4,
		Requests: 120,
		ReadFrac: 1,
		Seed:     7,
		Scans:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 120 {
		t.Fatalf("ok=%d failed=%d errors=%d, want 120 OK", res.OK, res.Failed, res.Errors)
	}
	if res.ScanRequests == 0 || res.ScanChunks == 0 {
		t.Fatalf("scan scenario issued no scans: %+v", res)
	}
	if res.RoundTrips != 120 {
		t.Errorf("round trips %d, want 120", res.RoundTrips)
	}
	// 80% scans, each spanning 8 tiles of the 64-wide stripe: the
	// point-GET equivalent must clear the 5x gate with margin.
	if res.PointRoundTrips < 5*res.RoundTrips {
		t.Errorf("point equivalent %d < 5x round trips %d — scans are not batching the stripe",
			res.PointRoundTrips, res.RoundTrips)
	}
}

// TestRunLoadCompressed is the wire gate: the harness with wire
// compression lands every request, and the /v1/stats wire delta shows
// fewer than half the bytes crossed than moved.
func TestRunLoadCompressed(t *testing.T) {
	ts := newTestServer(t, Config{}, nil)
	ts.createArray(t, "A", 32, 32)
	res, err := RunLoad(LoadSpec{
		BaseURL:  ts.http.URL,
		Array:    "A",
		Dims:     []int64{32, 32},
		TileEdge: 8,
		Clients:  2,
		Requests: 100,
		ReadFrac: 0.5,
		Seed:     7,
		Compress: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK != 100 {
		t.Fatalf("ok = %d of 100 (rejected %d, failed %d, errors %d)", res.OK, res.Rejected, res.Failed, res.Errors)
	}
	if res.WireRawBytes <= 0 || res.WireBytes <= 0 {
		t.Fatalf("wire deltas raw=%d enc=%d, want positive", res.WireRawBytes, res.WireBytes)
	}
	if res.WireBytes*2 > res.WireRawBytes {
		t.Errorf("wire bytes %d vs raw %d: smooth tiles should beat 2x", res.WireBytes, res.WireRawBytes)
	}
}

// TestStormUnderLoadDrainsClean arms the canonical storage fault storm
// under HTTP load: an injected fault must reach the client as a 5xx
// answer, never as a broken connection, and once the device heals the
// drain's flush must land every dirty tile — a drain error here is a
// real bug, not an injected one. The cache holds the whole array, so
// the storm hits first reads and every write-back happens at the drain.
// Engine.Close reports only what its final flush could not land, so an
// eviction that failed mid-storm would not fail a drain after the heal
// either; the large cache keeps the storm on the read path.
func TestStormUnderLoadDrainsClean(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj := faultfs.NewStorm(seed)
			inj.Heal() // array creation writes pass through; the storm starts with the load
			d := ooc.NewDisk(0).WrapBackend(inj.Wrap)
			srv := New(d, ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 64}), Config{})
			ts := &testServer{srv: srv, http: httptest.NewServer(srv.Handler())}
			defer ts.http.Close()
			ts.createArray(t, "A", 64, 64)
			inj.Arm()
			res, err := RunLoad(LoadSpec{
				BaseURL:  ts.http.URL,
				Array:    "A",
				Dims:     []int64{64, 64},
				TileEdge: 8,
				Clients:  4,
				Requests: 400,
				ReadFrac: 0.5,
				Seed:     seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Errors != 0 {
				t.Fatalf("%d transport errors under the storm; faults must surface as statuses", res.Errors)
			}
			if inj.Injected() == 0 || res.Failed == 0 {
				t.Fatalf("storm injected %d faults and %d requests failed; want both positive", inj.Injected(), res.Failed)
			}
			if res.OK+res.Rejected+res.Failed != res.Requests {
				t.Errorf("ok %d + rejected %d + failed %d != %d requests", res.OK, res.Rejected, res.Failed, res.Requests)
			}
			inj.Heal()
			if err := srv.Drain(); err != nil {
				t.Fatalf("drain after heal: %v", err)
			}
		})
	}
}
