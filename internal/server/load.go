package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"outcore/internal/layout"
)

// LoadSpec configures the synthetic multi-client tile workload the
// load harness (cmd/occload) fires at a running server. Tile selection
// is zipf-skewed — the multi-client array-access regime where a few
// hot tiles dominate, which is exactly what request coalescing and the
// LRU cache are for.
type LoadSpec struct {
	BaseURL string       // server root, e.g. http://127.0.0.1:8080
	Client  *http.Client // nil = http.DefaultClient

	Array    string  // target array name
	Dims     []int64 // its extents (tile grid derivation)
	TileEdge int64   // tile edge in elements per dimension

	Clients  int     // concurrent clients
	Requests int     // total requests across all clients
	ZipfS    float64 // zipf skew parameter (>1); <=1 = uniform
	ReadFrac float64 // fraction of reads (rest are tile writes)
	Seed     int64   // deterministic tile-choice streams
	Compress bool    // negotiate the x-ooc-gorilla wire coding both ways

	// Tenant, when set, rides every request as the X-Tenant header, so
	// the whole population bills to one tenant — the multi-tenant
	// scenario runs one RunLoad per population.
	Tenant string

	// Scenario selects the operator mix. "" or "point" is the classic
	// single-tile GET/PUT workload. "scan-heavy" replaces most reads
	// with streaming range scans that each cover a full stripe of tiles
	// in one request; "write-heavy" replaces most writes with multi-op
	// batch PUTs; "mixed" interleaves scans, batches, and point ops.
	Scenario string
	BatchOps int // tiles per batch request (default 8)

	// OpenLoopRate switches the harness from closed-loop (each client
	// fires its next request when the previous answer lands — a regime
	// that hides server stalls by slowing the offered load with them)
	// to an open-loop schedule: arrivals are fixed at this many
	// requests/second across all clients BEFORE the run starts, and
	// each request's latency is measured from its scheduled arrival,
	// not from when the client got around to sending it. A stalled
	// server therefore accrues queueing delay in the percentiles
	// instead of silently thinning the load — the coordinated-omission
	// trap the closed loop falls into. 0 keeps the closed loop.
	OpenLoopRate float64
}

// LoadResult is one load run's scorecard: client-side throughput and
// latency percentiles plus the server-side cache/coalescing deltas
// polled from /v1/stats around the run.
type LoadResult struct {
	Requests   int     // requests issued
	OK         int     // 2xx responses
	Rejected   int     // 429/503 backpressure responses
	Errors     int     // transport failures and other non-2xx
	Seconds    float64 // wall time of the run
	Throughput float64 // OK responses per second
	P50        float64 // median latency, seconds (successful requests)
	P99        float64 // 99th-percentile latency, seconds
	PutP50     float64 // median acked-PUT latency, seconds (0 if no writes)
	PutP99     float64 // 99th-percentile acked-PUT latency, seconds

	Hits, Misses int64   // engine delta over the run
	HitRate      float64 // hits / (hits + misses), from the delta
	Coalesced    int64   // server coalesced-request delta

	// Wire byte deltas from the server's compression scorecard (zero
	// when the server has no compression enabled).
	WireRawBytes int64 // logical tile payload bytes moved
	WireBytes    int64 // bytes that actually crossed the wire

	// Cluster deltas, filled when the target is an occrouter (its
	// /v1/stats mirrors the occd keys and adds a cluster scorecard);
	// all zero against a single occd.
	Replicas     int   // copies per tile the router maintains
	HandoffHints int64 // writes durably queued for down replicas during the run
	ReadRepairs  int64 // stale replicas rewritten during the run

	// Operator accounting. RoundTrips counts HTTP requests actually
	// issued; PointRoundTrips counts what moving the same tile volume
	// would have cost as single-tile requests. Their ratio is the
	// batched/streaming operators' round-trip reduction at equal bytes
	// (1:1 for a pure point workload).
	RoundTrips      int64
	PointRoundTrips int64
	ScanRequests    int64 // streaming scans issued
	ScanChunks      int64 // CRC-framed chunks those scans delivered
	BatchRequests   int64 // batch requests issued
	BatchOpsMoved   int64 // individual ops inside those batches
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

// RunLoad drives the workload and collates the scorecard. The server
// must already expose spec.Array (occload creates it or serves a
// kernel's arrays).
func RunLoad(spec LoadSpec) (LoadResult, error) {
	if spec.Clients <= 0 {
		spec.Clients = 1
	}
	if spec.Requests <= 0 {
		spec.Requests = spec.Clients
	}
	client := spec.Client
	if client == nil {
		client = http.DefaultClient
	}
	tiles := spec.tiles()
	if len(tiles) == 0 {
		return LoadResult{}, fmt.Errorf("server: load spec yields no tiles (dims %v)", spec.Dims)
	}
	before, err := fetchStats(client, spec.BaseURL)
	if err != nil {
		return LoadResult{}, fmt.Errorf("server: load pre-stats: %w", err)
	}

	type clientTally struct {
		ok, rejected, errs int
		lat                []time.Duration
		putLat             []time.Duration

		roundTrips, pointTrips int64
		scans, scanChunks      int64
		batches, batchOps      int64
	}
	tallies := make([]clientTally, spec.Clients)
	// The open-loop inter-arrival gap per client: arrivals are pinned
	// to the schedule computed here, before the run starts.
	var interarrival time.Duration
	if spec.OpenLoopRate > 0 {
		interarrival = time.Duration(float64(time.Second) * float64(spec.Clients) / spec.OpenLoopRate)
	}
	var wg sync.WaitGroup
	start := time.Now()
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
				if interarrival > 0 {
					// Open loop: latency runs from the scheduled arrival,
					// so a late send (the server stalled us) shows up as
					// queueing delay instead of vanishing.
					sched := start.Add(time.Duration(int64(i)*int64(spec.Clients)+int64(c)) * interarrival / time.Duration(spec.Clients))
					if wait := time.Until(sched); wait > 0 {
						time.Sleep(wait)
					}
					t0 = sched
				}
				var status int
				var err error
				isPut := false
				tally.roundTrips++
				switch spec.pickOp(rng) {
				case opScan:
					var chunks int64
					var pointEq int64
					status, chunks, pointEq, err = doScanRequest(client, spec, tiles[pick()], rng)
					tally.scans++
					tally.scanChunks += chunks
					tally.pointTrips += pointEq
				case opBatch:
					n := spec.BatchOps
					if n <= 0 {
						n = 8
					}
					status, err = doBatchRequest(client, spec, tiles, pick, n, rng)
					isPut = true
					tally.batches++
					tally.batchOps += int64(n)
					tally.pointTrips += int64(n)
				default:
					read := rng.Float64() < spec.ReadFrac
					isPut = !read
					status, err = doTileRequest(client, spec.Tenant, spec.BaseURL, spec.Array, tiles[pick()], read, spec.Compress, rng)
					tally.pointTrips++
				}
				d := time.Since(t0)
				switch {
				case err != nil:
					tally.errs++
				case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
					tally.rejected++
				case status >= 200 && status < 300:
					tally.ok++
					tally.lat = append(tally.lat, d)
					if isPut {
						tally.putLat = append(tally.putLat, d)
					}
				default:
					tally.errs++
				}
			}
		}(c, per)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := fetchStats(client, spec.BaseURL)
	if err != nil {
		return LoadResult{}, fmt.Errorf("server: load post-stats: %w", err)
	}

	res := LoadResult{Requests: spec.Requests, Seconds: elapsed.Seconds()}
	var lat, putLat []time.Duration
	for i := range tallies {
		res.OK += tallies[i].ok
		res.Rejected += tallies[i].rejected
		res.Errors += tallies[i].errs
		res.RoundTrips += tallies[i].roundTrips
		res.PointRoundTrips += tallies[i].pointTrips
		res.ScanRequests += tallies[i].scans
		res.ScanChunks += tallies[i].scanChunks
		res.BatchRequests += tallies[i].batches
		res.BatchOpsMoved += tallies[i].batchOps
		lat = append(lat, tallies[i].lat...)
		putLat = append(putLat, tallies[i].putLat...)
	}
	if res.Seconds > 0 {
		res.Throughput = float64(res.OK) / res.Seconds
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	res.P50 = percentile(lat, 0.50)
	res.P99 = percentile(lat, 0.99)
	sort.Slice(putLat, func(i, j int) bool { return putLat[i] < putLat[j] })
	res.PutP50 = percentile(putLat, 0.50)
	res.PutP99 = percentile(putLat, 0.99)
	res.Hits = after.Engine.Hits - before.Engine.Hits
	res.Misses = after.Engine.Misses - before.Engine.Misses
	if total := res.Hits + res.Misses; total > 0 {
		res.HitRate = float64(res.Hits) / float64(total)
	}
	res.Coalesced = after.Coalesced - before.Coalesced
	if after.Compression != nil && before.Compression != nil {
		res.WireRawBytes = after.Compression.WireRawBytes - before.Compression.WireRawBytes
		res.WireBytes = after.Compression.WireBytes - before.Compression.WireBytes
	}
	if after.Cluster != nil && before.Cluster != nil {
		res.Replicas = after.Cluster.Replicas
		res.HandoffHints = after.Cluster.HandoffHints - before.Cluster.HandoffHints
		res.ReadRepairs = after.Cluster.ReadRepairs - before.Cluster.ReadRepairs
	}
	return res, nil
}

// Load op kinds per request.
const (
	opPoint = iota
	opScan
	opBatch
)

// pickOp chooses this request's operator under the spec's scenario.
func (spec LoadSpec) pickOp(rng *rand.Rand) int {
	switch spec.Scenario {
	case "scan-heavy":
		if rng.Float64() < 0.8 {
			return opScan
		}
	case "write-heavy":
		if rng.Float64() < 0.8 {
			return opBatch
		}
	case "mixed":
		switch u := rng.Float64(); {
		case u < 1.0/3:
			return opScan
		case u < 2.0/3:
			return opBatch
		}
	}
	return opPoint
}

// doScanRequest streams one range scan: the chosen tile's box widened
// to the array's full extent along the last dimension, chunked at one
// tile per frame — the same bytes a client would otherwise move with
// one point GET per tile on the stripe. Returns the chunk count
// consumed and that point-GET equivalent.
func doScanRequest(client *http.Client, spec LoadSpec, tile layout.Box, rng *rand.Rand) (int, int64, int64, error) {
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
	if spec.Tenant != "" {
		req.Header.Set(TenantHeader, spec.Tenant)
	}
	resp, err := client.Do(req)
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

// doBatchRequest issues one multi-op batch PUT over n picked tiles
// (smooth payloads, like the point writes). The per-op statuses fold
// into one verdict: any failed op fails the request.
func doBatchRequest(client *http.Client, spec LoadSpec, tiles []layout.Box, pick func() int, n int, rng *rand.Rand) (int, error) {
	type wireOp struct {
		Op   string  `json:"op"`
		Lo   []int64 `json:"lo"`
		Hi   []int64 `json:"hi"`
		Data string  `json:"data_b64"`
	}
	ops := make([]wireOp, 0, n)
	for i := 0; i < n; i++ {
		box := tiles[pick()]
		data := make([]float64, box.Size())
		tileBase := float64(rng.Intn(4000)) * 0.25
		for j := range data {
			data[j] = tileBase + float64(j)*0.25
		}
		ops = append(ops, wireOp{Op: "put", Lo: box.Lo, Hi: box.Hi,
			Data: base64.StdEncoding.EncodeToString(EncodeTile(data, false))})
	}
	body, _ := json.Marshal(map[string]any{"ops": ops})
	req, err := http.NewRequest(http.MethodPost,
		fmt.Sprintf("%s/v1/arrays/%s/batch", spec.BaseURL, spec.Array), bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spec.Tenant != "" {
		req.Header.Set(TenantHeader, spec.Tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	var out struct {
		Failed int `json:"failed"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	if out.Failed > 0 {
		return http.StatusInternalServerError, nil
	}
	return resp.StatusCode, nil
}

// doTileRequest issues one tile read or write and returns
// the HTTP status. Write bodies are smooth tiles — a random per-tile
// base plus a dyadic ramp, the locally-coherent shape scientific
// kernels produce — so compression legs measure a realistic wire win
// rather than the noise floor. With compress set, writes travel as
// codec frames and reads offer the coding via Accept-Encoding.
func doTileRequest(client *http.Client, tenant, base, array string, box layout.Box, read, compress bool, rng *rand.Rand) (int, error) {
	url := fmt.Sprintf("%s/v1/arrays/%s/tile?lo=%s&hi=%s", base, array, coordList(box.Lo), coordList(box.Hi))
	var req *http.Request
	var err error
	if read {
		req, err = http.NewRequest(http.MethodGet, url, nil)
		if err == nil && compress {
			req.Header.Set("Accept-Encoding", WireEncoding)
		}
	} else {
		data := make([]float64, box.Size())
		tileBase := float64(rng.Intn(4000)) * 0.25
		for i := range data {
			data[i] = tileBase + float64(i)*0.25
		}
		req, err = http.NewRequest(http.MethodPut, url, bytes.NewReader(EncodeTile(data, compress)))
		if err == nil && compress {
			req.Header.Set("Content-Encoding", WireEncoding)
		}
	}
	if err != nil {
		return 0, err
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// coordList renders coordinates as the query form "1,2,3".
func coordList(c []int64) string {
	out := ""
	for i, v := range c {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("%d", v)
	}
	return out
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

// loadStats is statsPayload plus the cluster scorecard an occrouter's
// /v1/stats carries on top of the shared occd keys.
type loadStats struct {
	statsPayload
	Cluster *struct {
		Replicas     int   `json:"replicas"`
		HandoffHints int64 `json:"handoff_hints"`
		ReadRepairs  int64 `json:"read_repairs"`
	} `json:"cluster"`
}

// fetchStats polls /v1/stats.
func fetchStats(client *http.Client, base string) (loadStats, error) {
	var out loadStats
	resp, err := client.Get(base + "/v1/stats")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("stats endpoint: %s", resp.Status)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}
