// Command occload is the load harness for the tile server: it starts
// an occd-equivalent server in-process, fires concurrent zipf-skewed
// clients at one of its arrays, and reports throughput, latency
// percentiles, engine hit rate and coalesced-request counts. With
// -json the scorecard is written as an outcore-bench/v1 report, so the
// serving numbers land in the same BENCH machinery occbench feeds.
//
//	occload -kernel trans -version c-opt -clients 16 -requests 4000 \
//	    -zipf 1.2 -json BENCH_load.json -metrics-out load-metrics.prom
//
// -scenario switches the operator mix: scan-heavy streams layout-aware
// range scans over whole tile stripes (rows config serve-scan-*),
// write-heavy moves -batch-ops tiles per multi-op batch PUT
// (serve-batch-*), and mixed interleaves scans, batches and point ops
// (serve-mixed-*). The scorecard then adds the round-trip reduction —
// point-GET-equivalent requests over requests actually issued — which
// CI gates at >=5x for serve-scan rows. -arrival-rate R runs the mix
// open loop: arrivals follow a schedule fixed before the run and
// latency is measured from each scheduled arrival, so a stalling
// server accrues queueing delay instead of quietly thinning the
// offered load (no coordinated omission); config gains an -ol suffix.
//
// Cluster mode fires the same workload through an occrouter instead
// of a single server: -cluster <url> targets an external router, and
// -nodes "1,2,3" [-replicas R] starts an in-process router + N occd
// nodes per pass (rows config "serve-cluster-n<N>-r<R>", with the
// replication counters — handoff hints, read repairs — in the report).
//
// Two chaos modes ride on the same binary. -faults <seed> wraps the
// served arrays' backends in the internal/faultfs injector: a
// deterministic storm of EIO/ENOSPC/torn-write/sync failures surfaces
// as 5xx responses (counted, not fatal), and the injector heals before
// the final drain so the flush-retry path must land every surviving
// write. -crash-every <n> switches to episode mode: instead of HTTP
// load it runs one internal/dst simulation (power cuts every ~n steps,
// crash-consistency checks against the sequential model) and exits 1
// on any violation — see cmd/occhaos to sweep many seeds.
//
// -durable-puts makes every tile PUT durable before its 204, and -wal
// routes that durability through the write-ahead log's group commit;
// the scorecard then splits out acked-PUT latency percentiles, so the
// WAL's ack-latency win is measured by running the same write-heavy
// mix with and without -wal:
//
//	occload -read-frac 0.2 -durable-puts -dir /tmp/occ        # per-PUT fsync
//	occload -read-frac 0.2 -durable-puts -dir /tmp/occ -wal   # group commit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"

	"outcore/internal/cluster"
	"outcore/internal/codegen"
	"outcore/internal/dst"
	"outcore/internal/exp"
	"outcore/internal/faultfs"
	"outcore/internal/ir"
	"outcore/internal/obs"
	"outcore/internal/ooc"
	"outcore/internal/server"
	"outcore/internal/suite"
)

func main() {
	kernel := flag.String("kernel", "trans", "benchmark kernel whose arrays to serve")
	version := flag.String("version", "c-opt", "program version whose layouts the arrays use")
	n2 := flag.Int64("n2", 64, "extent of 2-D array dimensions")
	n3 := flag.Int64("n3", 12, "extent of 3-D array dimensions")
	n4 := flag.Int64("n4", 4, "extent of 4-D array dimensions")
	array := flag.String("array", "", "target array (default: the kernel's largest)")
	tileEdge := flag.Int64("tile-edge", 16, "requested tile edge in elements per dimension")
	clients := flag.Int("clients", 16, "concurrent clients")
	requests := flag.Int("requests", 2000, "total requests across all clients")
	zipf := flag.Float64("zipf", 1.1, "zipf skew of tile choice (<=1 = uniform)")
	readFrac := flag.Float64("read-frac", 0.9, "fraction of requests that are reads")
	seed := flag.Int64("seed", 1, "deterministic tile-choice seed")
	maxCall := flag.Int64("maxcall", 8192, "per-call element cap (0 = unlimited)")
	workers := flag.Int("workers", 4, "engine I/O workers")
	cacheTiles := flag.Int("cache-tiles", 64, "resident tile bound (LRU)")
	inflight := flag.Int("inflight", 0, "max concurrent data-plane requests (0 = 2*GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue depth")
	scenario := flag.String("scenario", "", "operator mix: empty/point = single-tile GET/PUT; scan-heavy = streaming range scans over tile stripes; write-heavy = multi-op batch PUTs; mixed = scans+batches+point ops (rows config serve-scan-*/serve-batch-*/serve-mixed-*)")
	batchOps := flag.Int("batch-ops", 8, "tiles per batch request in the write-heavy/mixed scenarios")
	arrivalRate := flag.Float64("arrival-rate", 0, "open-loop arrivals/second across all clients: the schedule is fixed before the run and latency is measured from each request's scheduled arrival, so server stalls surface as queueing delay instead of thinning the offered load (coordinated-omission-safe; 0 = closed loop)")
	dir := flag.String("dir", "", "backing directory for array files (empty = in-memory)")
	wal := flag.Bool("wal", false, "write-ahead log tile writes: durable PUTs ack on a group-committed log fsync instead of per-write stripe fsyncs")
	commitWindow := flag.Duration("commit-window", 0, "with -wal: wait this long before the group commit's log fsync so more writers share it (0 = fsync immediately; writers arriving mid-fsync still batch into the next round)")
	walCapWords := flag.Int64("wal-cap-words", 1<<23, "with -wal: log words before an inline checkpoint; each checkpoint stalls appenders for the member fsyncs, so serving runs want it large (log files are sparse)")
	durablePuts := flag.Bool("durable-puts", false, "make every tile PUT durable before its 204 (the write path -wal is built to speed up)")
	compress := flag.Bool("compress", false, "store array backends compressed, negotiate the x-ooc-gorilla tile wire encoding, and (with -wal) compress log record payloads; episode mode runs its WAL compressed")
	jsonOut := flag.String("json", "", "write the outcore-bench/v1 report here")
	metricsOut := flag.String("metrics-out", "", "write Prometheus metrics text here after the run (last -nodes pass)")
	faults := flag.Int64("faults", 0, "inject deterministic storage faults from this seed (0 = off)")
	crashEvery := flag.Int("crash-every", 0, "episode mode: run one dst simulation with a power cut every ~n steps instead of HTTP load (0 = off)")
	clusterAddr := flag.String("cluster", "", "drive the load at an external occrouter at this base URL instead of serving in-process")
	nodeSweep := flag.String("nodes", "", "in-process cluster mode: node count, or a comma list (e.g. 1,2,3) to run the identical workload once per count (rows config serve-cluster-n<N>-r<R>)")
	replicas := flag.Int("replicas", 2, "cluster mode: copies per tile (capped at the node count)")
	flag.Parse()

	switch *scenario {
	case "", "point", "scan-heavy", "write-heavy", "mixed", "multi-tenant":
	default:
		fmt.Fprintf(os.Stderr, "occload: -scenario: unknown mix %q (valid: point, scan-heavy, write-heavy, mixed, multi-tenant)\n", *scenario)
		os.Exit(2)
	}
	if *scenario == "multi-tenant" && (*clusterAddr != "" || *nodeSweep != "") {
		fmt.Fprintln(os.Stderr, "occload: -scenario multi-tenant runs against one in-process server (no -cluster/-nodes)")
		os.Exit(2)
	}

	if *crashEvery != 0 {
		runEpisode(*faults, *crashEvery, *requests, *clients, *workers, *cacheTiles, *wal, *compress)
		return
	}

	k, ok := suite.ByName(*kernel)
	if !ok {
		fmt.Fprintf(os.Stderr, "occload: -kernel: unknown kernel %q (valid: %s)\n",
			*kernel, strings.Join(suite.KernelNames(), ", "))
		os.Exit(2)
	}
	ver, ok := suite.ParseVersion(*version)
	if !ok {
		fmt.Fprintf(os.Stderr, "occload: -version: unknown version %q (valid: %s)\n",
			*version, strings.Join(suite.VersionNames(), ", "))
		os.Exit(2)
	}

	if *scenario == "multi-tenant" {
		rows, sink := multiTenantLoad(k, ver, mtSpec{
			n2: *n2, n3: *n3, n4: *n4,
			array:      *array,
			tileEdge:   *tileEdge,
			clients:    *clients,
			requests:   *requests,
			zipf:       *zipf,
			seed:       *seed,
			maxCall:    *maxCall,
			workers:    *workers,
			cacheTiles: *cacheTiles,
			inflight:   *inflight,
			queue:      *queue,
			compress:   *compress,
		})
		writeReports(*jsonOut, *metricsOut, *n2, *n3, *n4, rows, sink)
		return
	}

	if *clusterAddr != "" || *nodeSweep != "" {
		rows, sink := clusterLoad(k, clusterLoadSpec{
			addr:        *clusterAddr,
			nodeSweep:   *nodeSweep,
			replicas:    *replicas,
			n2:          *n2,
			n3:          *n3,
			n4:          *n4,
			array:       *array,
			tileEdge:    *tileEdge,
			clients:     *clients,
			requests:    *requests,
			zipf:        *zipf,
			readFrac:    *readFrac,
			seed:        *seed,
			workers:     *workers,
			cacheTiles:  *cacheTiles,
			wal:         *wal,
			durablePuts: *durablePuts,
			compress:    *compress,
			scenario:    *scenario,
			batchOps:    *batchOps,
			arrivalRate: *arrivalRate,
		})
		writeReports(*jsonOut, *metricsOut, *n2, *n3, *n4, rows, sink)
		return
	}

	sink := &obs.Sink{Metrics: obs.NewRegistry()}
	prog := k.Build(suite.Config{N2: *n2, N3: *n3, N4: *n4})
	plan, err := suite.PlanFor(prog, ver)
	fail(err)
	base := ooc.NewDisk(*maxCall).Observe(sink)
	if *compress {
		ooc.ObservePool(sink)
		base.EnableCompression()
	}
	var inj *faultfs.Injector
	if *faults != 0 {
		inj = faultfs.NewStorm(*faults).Observe(sink)
		inj.Heal() // array creation writes pass through; the storm starts with the load
		base.WrapBackend(inj.Wrap)
	}
	if *dir != "" {
		base.Dir(*dir)
	}
	if *wal {
		base.EnableWAL(ooc.WALOptions{
			CapWords:     *walCapWords,
			CommitWindow: *commitWindow,
			Compress:     *compress,
			Obs:          sink,
		})
	}
	d, err := codegen.SetupDiskOn(base, prog, plan, nil)
	fail(err)
	if inj != nil {
		inj.Arm()
	}

	var target *ooc.Array
	if *array != "" {
		if target = d.ArrayByName(*array); target == nil {
			fail(fmt.Errorf("kernel %s has no array %q", k.Name, *array))
		}
	} else {
		for _, ar := range d.Arrays() {
			if target == nil || ar.Meta.Len() > target.Meta.Len() {
				target = ar
			}
		}
		if target == nil {
			fail(fmt.Errorf("kernel %s builds no arrays", k.Name))
		}
	}

	eng := ooc.NewEngine(d, ooc.EngineOptions{Workers: *workers, CacheTiles: *cacheTiles, Obs: sink})
	srv := server.New(d, eng, server.Config{
		MaxInflight: *inflight,
		QueueDepth:  *queue,
		DurablePuts: *durablePuts,
		Obs:         sink,
	})
	hts := httptest.NewServer(srv.Handler())

	res, err := server.RunLoad(server.LoadSpec{
		BaseURL:      hts.URL,
		Array:        target.Meta.Name,
		Dims:         target.Meta.Dims,
		TileEdge:     *tileEdge,
		Clients:      *clients,
		Requests:     *requests,
		ZipfS:        *zipf,
		ReadFrac:     *readFrac,
		Seed:         *seed,
		Compress:     *compress,
		Scenario:     *scenario,
		BatchOps:     *batchOps,
		OpenLoopRate: *arrivalRate,
	})
	hts.Close()
	walStats := d.WALStats()
	if inj != nil {
		// Heal before the drain: the engine's flush retry against the
		// recovered device must land every surviving write — a drain
		// failure here is a real bug, not an injected one.
		inj.Heal()
	}
	drainErr := srv.Drain()
	fail(err)
	fail(drainErr)

	fmt.Printf("occload: %s/%s array %s %v, %d clients x %d requests (zipf %.2f, %d%% reads)\n",
		k.Name, ver, target.Meta.Name, target.Meta.Dims, *clients, *requests, *zipf, int(*readFrac*100))
	fmt.Printf("  ok %d, rejected %d, errors %d in %.2fs  (%.0f req/s)\n",
		res.OK, res.Rejected, res.Errors, res.Seconds, res.Throughput)
	fmt.Printf("  latency p50 %.2fms, p99 %.2fms\n", res.P50*1e3, res.P99*1e3)
	if res.PutP99 > 0 {
		mode := "buffered"
		if *durablePuts {
			mode = "durable (per-PUT fsync)"
			if *wal {
				mode = "durable (WAL group commit)"
			}
		}
		fmt.Printf("  acked PUTs: p50 %.2fms, p99 %.2fms  [%s]\n",
			res.PutP50*1e3, res.PutP99*1e3, mode)
	}
	fmt.Printf("  engine: %d hits / %d misses (hit rate %.1f%%), %d coalesced requests\n",
		res.Hits, res.Misses, 100*res.HitRate, res.Coalesced)
	printOperators(res)
	if *compress && res.WireRawBytes > 0 && res.WireBytes > 0 {
		fmt.Printf("  wire: %d raw bytes moved as %d encoded (%.2fx)\n",
			res.WireRawBytes, res.WireBytes, float64(res.WireRawBytes)/float64(res.WireBytes))
	}
	if walStats != nil {
		fmt.Printf("  wal: %d appends, %d commits / %d fsyncs (%.1f records per fsync), %d checkpoints\n",
			walStats.Appends, walStats.Commits, walStats.Fsyncs, walStats.FsyncBatch, walStats.Checkpoints)
	}
	if inj != nil {
		fmt.Printf("  faults: seed %d, %d injected (healed before drain; errors above are expected)\n",
			*faults, inj.Injected())
	}
	config := fmt.Sprintf("%s-%s-c%d-z%g", configPrefix(*scenario), ver, *clients, *zipf)
	if *arrivalRate > 0 {
		config += "-ol"
	}
	if *durablePuts {
		config += "-dp"
	}
	if *wal {
		config += "-wal"
	}
	if *compress {
		config += "-comp"
	}
	if res.Errors > 0 && inj == nil {
		fail(fmt.Errorf("%d requests failed", res.Errors))
	}
	writeReports(*jsonOut, *metricsOut, *n2, *n3, *n4, []exp.BenchEntry{exp.LoadBenchEntry(k.Name, config, res)}, sink)
}

// configPrefix names the bench row after the operator mix, so operator
// rows are greppable by config: serve-scan-* rows carry the streaming
// range-scan numbers CI gates at a >=5x round-trip reduction, and
// serve-batch-*/serve-mixed-* rows ride alongside informationally.
func configPrefix(scenario string) string {
	switch scenario {
	case "scan-heavy":
		return "serve-scan"
	case "write-heavy":
		return "serve-batch"
	case "mixed":
		return "serve-mixed"
	case "multi-tenant":
		return "serve-mt"
	}
	return "serve"
}

// printOperators renders the operator scorecard: how many streaming
// scans / batch requests ran, and the round-trip reduction — the
// single-tile-request equivalent of the same tile volume divided by
// the HTTP requests actually issued.
func printOperators(res server.LoadResult) {
	if res.ScanRequests == 0 && res.BatchRequests == 0 {
		return
	}
	if res.ScanRequests > 0 {
		fmt.Printf("  scans: %d requests streamed %d chunks\n", res.ScanRequests, res.ScanChunks)
	}
	if res.BatchRequests > 0 {
		fmt.Printf("  batches: %d requests moved %d tile ops\n", res.BatchRequests, res.BatchOpsMoved)
	}
	if res.RoundTrips > 0 {
		fmt.Printf("  round trips: %d issued vs %d point-GET equivalent (%.1fx reduction)\n",
			res.RoundTrips, res.PointRoundTrips, float64(res.PointRoundTrips)/float64(res.RoundTrips))
	}
}

// writeReports lands the run's outcore-bench/v1 report and Prometheus
// snapshot (last pass's sink; nil when the run had no in-process
// observer, e.g. load fired at an external router).
func writeReports(jsonOut, metricsOut string, n2, n3, n4 int64, rows []exp.BenchEntry, sink *obs.Sink) {
	if jsonOut != "" {
		rep := exp.BenchReport{
			Schema:  exp.BenchSchema,
			Setup:   exp.BenchSetup{N2: n2, N3: n3, N4: n4},
			Results: rows,
		}
		f, err := os.Create(jsonOut)
		fail(err)
		fail(rep.WriteJSON(f))
		fail(f.Close())
		fmt.Printf("  wrote %s\n", jsonOut)
	}
	if metricsOut != "" {
		if sink == nil {
			fmt.Fprintln(os.Stderr, "occload: -metrics-out: no in-process metrics against an external -cluster target; scrape the router's /metrics instead")
			return
		}
		f, err := os.Create(metricsOut)
		fail(err)
		fail(sink.Metrics.WritePrometheus(f))
		fail(f.Close())
		fmt.Printf("  wrote %s\n", metricsOut)
	}
}

// mtSpec carries the load-shape flags into the multi-tenant scenario.
type mtSpec struct {
	n2, n3, n4 int64
	array      string
	tileEdge   int64
	clients    int
	requests   int
	zipf       float64
	seed       int64
	maxCall    int64
	workers    int
	cacheTiles int
	inflight   int
	queue      int
	compress   bool
}

// multiTenantLoad is -scenario multi-tenant: two tenant populations —
// "point", an interactive point-GET tenant at DRR weight 4, and
// "scan", an aggressive streaming scanner at weight 1 with a chunk
// cap — against one server whose tenant plane does the isolating. The
// point tenant runs once alone (its solo baseline) and once with the
// scanner saturating the same plane; the serve-mt-* rows carry both
// p99s, and CI gates contended <= 2x solo.
func multiTenantLoad(k suite.Kernel, ver suite.Version, s mtSpec) ([]exp.BenchEntry, *obs.Sink) {
	sink := &obs.Sink{Metrics: obs.NewRegistry()}
	prog := k.Build(suite.Config{N2: s.n2, N3: s.n3, N4: s.n4})
	plan, err := suite.PlanFor(prog, ver)
	fail(err)
	base := ooc.NewDisk(s.maxCall).Observe(sink)
	if s.compress {
		ooc.ObservePool(sink)
		base.EnableCompression()
	}
	d, err := codegen.SetupDiskOn(base, prog, plan, nil)
	fail(err)
	var target *ooc.Array
	if s.array != "" {
		if target = d.ArrayByName(s.array); target == nil {
			fail(fmt.Errorf("kernel %s has no array %q", k.Name, s.array))
		}
	} else {
		for _, ar := range d.Arrays() {
			if target == nil || ar.Meta.Len() > target.Meta.Len() {
				target = ar
			}
		}
		if target == nil {
			fail(fmt.Errorf("kernel %s builds no arrays", k.Name))
		}
	}

	eng := ooc.NewEngine(d, ooc.EngineOptions{Workers: s.workers, CacheTiles: s.cacheTiles, Obs: sink})
	srv := server.New(d, eng, server.Config{
		MaxInflight: s.inflight,
		QueueDepth:  s.queue,
		Tenants: server.TenantConfig{
			Weights:         map[string]float64{"point": 4, "scan": 1},
			MaxScanInflight: 2,
		},
		Obs: sink,
	})
	hts := httptest.NewServer(srv.Handler())

	pointClients := s.clients / 2
	if pointClients < 1 {
		pointClients = 1
	}
	scanClients := s.clients - pointClients
	if scanClients < 1 {
		scanClients = 1
	}
	pointReqs := s.requests / 2
	if pointReqs < 1 {
		pointReqs = 1
	}
	scanReqs := s.requests - pointReqs
	if scanReqs < 1 {
		scanReqs = 1
	}
	pointSpec := server.LoadSpec{
		BaseURL:  hts.URL,
		Array:    target.Meta.Name,
		Dims:     target.Meta.Dims,
		TileEdge: s.tileEdge,
		Clients:  pointClients,
		Requests: pointReqs,
		ZipfS:    s.zipf,
		ReadFrac: 1.0,
		Seed:     s.seed,
		Compress: s.compress,
		Tenant:   "point",
	}

	// Pass 1 — solo baseline: the point tenant has the plane to itself.
	solo, err := server.RunLoad(pointSpec)
	fail(err)

	// Pass 2 — contended: the scanner floods the same plane while the
	// identical point workload repeats.
	var contended, scanRes server.LoadResult
	var pErr, sErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		scanRes, sErr = server.RunLoad(server.LoadSpec{
			BaseURL:  hts.URL,
			Array:    target.Meta.Name,
			Dims:     target.Meta.Dims,
			TileEdge: s.tileEdge,
			Clients:  scanClients,
			Requests: scanReqs,
			ZipfS:    s.zipf,
			ReadFrac: 1.0,
			Seed:     s.seed + 7331,
			Compress: s.compress,
			Scenario: "scan-heavy",
			Tenant:   "scan",
		})
	}()
	go func() {
		defer wg.Done()
		contended, pErr = server.RunLoad(pointSpec)
	}()
	wg.Wait()
	fail(pErr)
	fail(sErr)

	// Per-tenant scorecard straight from /v1/stats before the server
	// goes away.
	var st struct {
		Tenants []server.TenantStat `json:"tenants"`
	}
	resp, err := http.Get(hts.URL + "/v1/stats")
	fail(err)
	fail(json.NewDecoder(resp.Body).Decode(&st))
	resp.Body.Close()
	hts.Close()
	fail(srv.Drain())

	fmt.Printf("occload: %s/%s array %s %v, multi-tenant: point w4 x%d clients vs scan w1 x%d clients\n",
		k.Name, ver, target.Meta.Name, target.Meta.Dims, pointClients, scanClients)
	ratio := 0.0
	if solo.P99 > 0 {
		ratio = contended.P99 / solo.P99
	}
	fmt.Printf("  point solo:      ok %d, p50 %.2fms, p99 %.2fms\n", solo.OK, solo.P50*1e3, solo.P99*1e3)
	fmt.Printf("  point contended: ok %d, p50 %.2fms, p99 %.2fms  (%.2fx solo p99)\n",
		contended.OK, contended.P50*1e3, contended.P99*1e3, ratio)
	fmt.Printf("  scan contended:  ok %d, p50 %.2fms, p99 %.2fms, %d scans streamed %d chunks\n",
		scanRes.OK, scanRes.P50*1e3, scanRes.P99*1e3, scanRes.ScanRequests, scanRes.ScanChunks)
	for _, ts := range st.Tenants {
		fmt.Printf("  tenant %s (weight %g): %d requests, %d bytes, %d queue waits, %d chunks, %d quota rejections\n",
			ts.Tenant, ts.Weight, ts.Requests, ts.Bytes, ts.QueueWaits, ts.Chunks, ts.RejectedQuota)
	}

	cfg := fmt.Sprintf("serve-mt-%s-c%d-z%g", ver, s.clients, s.zipf)
	pointRow := exp.LoadBenchEntry(k.Name, cfg+"-point", contended)
	pointRow.Tenant = "point"
	pointRow.P99SoloMs = solo.P99 * 1e3
	pointRow.P99ContendedMs = contended.P99 * 1e3
	scanRow := exp.LoadBenchEntry(k.Name, cfg+"-scan", scanRes)
	scanRow.Tenant = "scan"
	scanRow.P99ContendedMs = scanRes.P99 * 1e3
	if n := solo.Errors + contended.Errors + scanRes.Errors; n > 0 {
		fail(fmt.Errorf("%d requests failed", n))
	}
	return []exp.BenchEntry{pointRow, scanRow}, sink
}

// clusterLoadSpec carries the load-shape flags into cluster mode.
type clusterLoadSpec struct {
	addr        string // external occrouter base URL ("" = in-process)
	nodeSweep   string // in-process node counts, e.g. "3" or "1,2,3"
	replicas    int
	n2, n3, n4  int64
	array       string
	tileEdge    int64
	clients     int
	requests    int
	zipf        float64
	readFrac    float64
	seed        int64
	workers     int
	cacheTiles  int
	wal         bool
	durablePuts bool
	compress    bool
	scenario    string
	batchOps    int
	arrivalRate float64
}

// clusterLoad fires the identical zipf workload at a tile cluster: an
// external occrouter (-cluster <url>) or an in-process router plus N
// occd nodes per pass (-nodes "1,2,3"). The router's /v1/stats mirrors
// occd's keys (engine counters summed over reachable nodes) and adds
// the cluster scorecard, so RunLoad works unchanged and each pass
// lands a serve-cluster-n<N>-r<R> row with the replication counters.
func clusterLoad(k suite.Kernel, spec clusterLoadSpec) ([]exp.BenchEntry, *obs.Sink) {
	// Placement is router-side grid tiling; the kernel only contributes
	// the target array's name and extents (row-major on every node).
	prog := k.Build(suite.Config{N2: spec.n2, N3: spec.n3, N4: spec.n4})
	var target *ir.Array
	for _, a := range prog.Arrays {
		if spec.array != "" {
			if a.Name == spec.array {
				target = a
				break
			}
			continue
		}
		if target == nil || a.Len() > target.Len() {
			target = a
		}
	}
	if target == nil {
		if spec.array != "" {
			fail(fmt.Errorf("kernel %s has no array %q", k.Name, spec.array))
		}
		fail(fmt.Errorf("kernel %s builds no arrays", k.Name))
	}

	if spec.addr != "" {
		row := clusterPass(k, spec, target, spec.addr, nil, 0, true)
		return []exp.BenchEntry{row}, nil
	}

	counts, err := parseNodeSweep(spec.nodeSweep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "occload: -nodes: %v\n", err)
		os.Exit(2)
	}
	var rows []exp.BenchEntry
	var lastSink *obs.Sink
	for pass, n := range counts {
		sink := &obs.Sink{Metrics: obs.NewRegistry()}
		lastSink = sink
		lc, err := cluster.NewLocal(cluster.LocalOptions{
			Nodes:       n,
			Replicas:    spec.replicas,
			TileDim:     spec.tileEdge,
			CacheTiles:  spec.cacheTiles,
			Workers:     spec.workers,
			WAL:         spec.wal,
			DurablePuts: spec.durablePuts,
			NoWire:      !spec.compress,
			Seed:        spec.seed,
			Obs:         sink,
		})
		fail(err)
		fail(lc.CreateArray(target.Name, target.Dims...))
		row := clusterPass(k, spec, target, lc.RouterURL, lc, n, pass == 0)
		fail(lc.Close())
		rows = append(rows, row)
	}
	return rows, lastSink
}

// clusterPass runs one workload pass against a router at base and
// renders its bench row. lc is nil for an external target, where the
// node count comes from the router's own scorecard.
func clusterPass(k suite.Kernel, spec clusterLoadSpec, target *ir.Array, base string, lc *cluster.LocalCluster, n int, first bool) exp.BenchEntry {
	cli := cluster.NewNodeClient("router", base)
	if lc == nil {
		fail(cli.CreateArray(target.Name, target.Dims, ""))
		var cs struct {
			Cluster struct {
				Nodes int `json:"nodes"`
			} `json:"cluster"`
		}
		fail(cli.Stats(&cs))
		n = cs.Cluster.Nodes
	}
	res, err := server.RunLoad(server.LoadSpec{
		BaseURL:      base,
		Array:        target.Name,
		Dims:         target.Dims,
		TileEdge:     spec.tileEdge,
		Clients:      spec.clients,
		Requests:     spec.requests,
		ZipfS:        spec.zipf,
		ReadFrac:     spec.readFrac,
		Seed:         spec.seed,
		Compress:     spec.compress,
		Scenario:     spec.scenario,
		BatchOps:     spec.batchOps,
		OpenLoopRate: spec.arrivalRate,
	})
	fail(err)

	if first {
		fmt.Printf("occload: %s array %s %v via occrouter, %d clients x %d requests (zipf %.2f, %d%% reads)\n",
			k.Name, target.Name, target.Dims, spec.clients, spec.requests, spec.zipf, int(spec.readFrac*100))
	}
	fmt.Printf("nodes %d (replicas %d):\n", n, res.Replicas)
	fmt.Printf("  ok %d, rejected %d, errors %d in %.2fs  (%.0f req/s)\n",
		res.OK, res.Rejected, res.Errors, res.Seconds, res.Throughput)
	fmt.Printf("  latency p50 %.2fms, p99 %.2fms\n", res.P50*1e3, res.P99*1e3)
	if res.PutP99 > 0 {
		fmt.Printf("  acked PUTs: p50 %.2fms, p99 %.2fms  [quorum %d/%d]\n",
			res.PutP50*1e3, res.PutP99*1e3, res.Replicas/2+1, res.Replicas)
	}
	fmt.Printf("  engine (all nodes): %d hits / %d misses (hit rate %.1f%%), %d coalesced requests\n",
		res.Hits, res.Misses, 100*res.HitRate, res.Coalesced)
	fmt.Printf("  cluster: %d handoff hints, %d read repairs\n", res.HandoffHints, res.ReadRepairs)
	printOperators(res)

	config := fmt.Sprintf("%s-cluster-n%d-r%d", configPrefix(spec.scenario), n, res.Replicas)
	if spec.durablePuts {
		config += "-dp"
	}
	if spec.wal {
		config += "-wal"
	}
	if spec.compress {
		config += "-comp"
	}
	if spec.arrivalRate > 0 {
		config += "-ol"
	}
	if res.Errors > 0 {
		fail(fmt.Errorf("%d requests failed", res.Errors))
	}
	return exp.LoadBenchEntry(k.Name, config, res)
}

// parseNodeSweep parses "1,2,3" into node counts.
func parseNodeSweep(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad node count %q: %v", part, err)
		}
		if n < 1 || n > 16 {
			return nil, fmt.Errorf("node count %d out of range (valid: 1..16)", n)
		}
		out = append(out, n)
	}
	return out, nil
}

// runEpisode is -crash-every: one deterministic dst simulation in
// place of the HTTP load, reusing the load-shape flags (requests as
// scheduler steps, clients as logical clients).
func runEpisode(seed int64, crashEvery, ops, clients, workers, cacheTiles int, wal, compress bool) {
	var prof faultfs.Profile
	if seed != 0 {
		prof = faultfs.StormProfile()
	}
	res := dst.Run(dst.Options{
		Seed:       seed,
		Ops:        ops,
		Clients:    clients,
		CrashEvery: crashEvery,
		Workers:    workers,
		CacheTiles: cacheTiles,
		WAL:        wal,
		Compress:   compress,
		Profile:    prof,
	})
	fmt.Println("occload: episode", res.Summary())
	if res.Failed() {
		for _, v := range res.Violations {
			fmt.Fprintln(os.Stderr, "occload:   violation:", v)
		}
		walFlag := ""
		if wal {
			walFlag = " -wal"
		}
		if compress {
			walFlag += " -compress"
		}
		fmt.Fprintf(os.Stderr, "occload: reproduce with: occload -faults %d -crash-every %d -requests %d -clients %d -workers %d -cache-tiles %d%s\n",
			seed, crashEvery, ops, clients, workers, cacheTiles, walFlag)
		os.Exit(1)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "occload:", err)
		os.Exit(1)
	}
}
