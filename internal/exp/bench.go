package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"outcore/internal/codegen"
	"outcore/internal/layout"
	"outcore/internal/ooc"
	"outcore/internal/sim"
	"outcore/internal/suite"
)

// BenchSchema identifies the BENCH JSON layout. Bump only on breaking
// changes — the CI regression gate and the perf-trajectory tooling
// parse these files across revisions.
const BenchSchema = "outcore-bench/v1"

// BenchKernels are the paper kernels the reproducible suite runs —
// the four whose Table-2/3 behaviour spans the interesting regimes
// (dense matmul, transpose-dominated I/O, symmetric update, the small
// baseline).
var BenchKernels = []string{"mat", "mxm", "trans", "syr2k"}

// BenchRunConfig is one engine configuration of the suite matrix.
type BenchRunConfig struct {
	Name       string `json:"name"`
	CacheTiles int    `json:"cache_tiles"`        // 0 = plain sequential runtime
	Compress   bool   `json:"compress,omitempty"` // store array backends compressed (additive field)
}

// BenchConfigs is the suite's configuration axis: the plain sequential
// runtime, the LRU-cached engine, and the cached engine over compressed
// backends.
var BenchConfigs = []BenchRunConfig{
	{Name: "sequential", CacheTiles: 0},
	{Name: "engine", CacheTiles: 8},
	{Name: "engine-compress", CacheTiles: 8, Compress: true},
}

// BenchEntry is one (kernel, configuration) measurement. IOCalls,
// IOBytes and SimMakespanSeconds come from the deterministic dry-run +
// PFS simulation (the values the regression gate compares); HitRate
// and WallSeconds come from a data-backed single-process execution
// (WallSeconds is machine-dependent and informational only).
type BenchEntry struct {
	Kernel             string  `json:"kernel"`
	Config             string  `json:"config"`
	IOCalls            int64   `json:"io_calls"`
	IOBytes            int64   `json:"io_bytes"`
	HitRate            float64 `json:"hit_rate"`
	SimMakespanSeconds float64 `json:"sim_makespan_seconds"`
	WallSeconds        float64 `json:"wall_seconds"`

	// Compression and allocation metrics. BytesDiskRaw and BytesDisk
	// are the logical vs encoded byte volumes that crossed the disk
	// boundary during the wall run (compress configs only; their ratio
	// is the on-disk byte reduction). AllocsPerGet is the measured per-operation
	// allocation count of a cached tile acquire — a pointer so the
	// legitimate value 0 survives serialization — and the CI gate
	// holds it at zero.
	BytesDiskRaw int64    `json:"bytes_disk_raw,omitempty"`
	BytesDisk    int64    `json:"bytes_disk,omitempty"`
	AllocsPerGet *float64 `json:"allocs_per_get,omitempty"`
}

// BenchFailure records one (kernel, configuration) run that errored;
// the suite keeps going so one broken kernel doesn't hide the rest,
// but any failure must make occbench exit non-zero.
type BenchFailure struct {
	Kernel string `json:"kernel"`
	Config string `json:"config"`
	Error  string `json:"error"`
}

// BenchSetup records the knobs a report was produced under, so a
// comparison against a baseline generated at different scale can be
// rejected instead of reporting nonsense regressions.
type BenchSetup struct {
	N2      int64 `json:"n2"`
	N3      int64 `json:"n3"`
	N4      int64 `json:"n4"`
	Procs   int   `json:"procs"`
	IONodes int   `json:"ionodes"`
	MemFrac int64 `json:"memfrac"`
}

// BenchReport is the machine-readable artifact `occbench -suite -json`
// emits (BENCH_<rev>.json) and the CI regression gate consumes.
type BenchReport struct {
	Schema   string         `json:"schema"`
	Setup    BenchSetup     `json:"setup"`
	Results  []BenchEntry   `json:"results"`
	Failures []BenchFailure `json:"failures,omitempty"`
}

// WriteJSON writes the report, indented for diffability.
func (r BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// LoadBenchReport parses and schema-checks a BENCH JSON.
func LoadBenchReport(rd io.Reader) (BenchReport, error) {
	var rep BenchReport
	if err := json.NewDecoder(rd).Decode(&rep); err != nil {
		return rep, fmt.Errorf("exp: parsing bench report: %w", err)
	}
	if rep.Schema != BenchSchema {
		return rep, fmt.Errorf("exp: bench report schema %q, want %q", rep.Schema, BenchSchema)
	}
	return rep, nil
}

// BenchSuite runs the reproducible benchmark suite: every kernel in
// o.Kernels (BenchKernels when unset) under every BenchConfigs entry,
// all as the c-opt version. Per entry it runs (a) the dry-run
// multi-processor simulation for the deterministic I/O-call count,
// byte volume and PFS makespan, and (b) a data-backed single-process
// execution for wall time and cache hit rate.
// Kernel failures are recorded in the report, not returned as an
// error, so the rest of the suite still produces data.
func BenchSuite(o Options) BenchReport {
	o.defaults()
	names := o.Kernels
	if len(names) == 0 {
		names = BenchKernels
	}
	configs := o.Configs
	if len(configs) == 0 {
		configs = BenchConfigs
	}
	rep := BenchReport{
		Schema: BenchSchema,
		Setup: BenchSetup{
			N2: o.Cfg.N2, N3: o.Cfg.N3, N4: o.Cfg.N4,
			Procs: o.Procs, IONodes: o.PFS.IONodes, MemFrac: o.MemFrac,
		},
	}
	for _, name := range names {
		k, ok := suite.ByName(name)
		if !ok {
			for _, bc := range configs {
				rep.Failures = append(rep.Failures, BenchFailure{Kernel: name, Config: bc.Name,
					Error: fmt.Sprintf("unknown kernel %q", name)})
			}
			continue
		}
		for _, bc := range configs {
			entry, err := benchOne(o, k, bc)
			if err != nil {
				rep.Failures = append(rep.Failures, BenchFailure{Kernel: k.Name, Config: bc.Name, Error: err.Error()})
				continue
			}
			rep.Results = append(rep.Results, entry)
		}
	}
	return rep
}

// benchOne measures one (kernel, configuration) cell.
func benchOne(o Options, k suite.Kernel, bc BenchRunConfig) (BenchEntry, error) {
	entry := BenchEntry{Kernel: k.Name, Config: bc.Name}

	// (a) Deterministic quantities: dry-run schedule + PFS simulation.
	st := o.setup(k, suite.COpt, o.Procs)
	st.CacheTiles = bc.CacheTiles
	m, err := sim.Run(st)
	if err != nil {
		return entry, err
	}
	entry.IOCalls = m.Calls
	entry.IOBytes = m.Elems * ooc.ElemSize
	entry.SimMakespanSeconds = m.Seconds

	// (b) Wall-clock + cache behaviour: one data-backed execution.
	wall, cache, extra, err := benchWall(o, k, bc)
	if err != nil {
		return entry, err
	}
	entry.WallSeconds = wall
	entry.HitRate = cache.HitRate()
	entry.BytesDiskRaw = extra.bytesDiskRaw
	entry.BytesDisk = extra.bytesDisk
	entry.AllocsPerGet = extra.allocsPerGet
	return entry, nil
}

// benchExtras carries the wall run's compression and allocation
// measurements into the report row.
type benchExtras struct {
	bytesDiskRaw int64
	bytesDisk    int64
	allocsPerGet *float64
}

// benchWall executes the kernel for real (in-memory files, zeroed
// data) under the configuration and reports the wall time and the
// engine's cache counters (zero for the sequential configuration).
func benchWall(o Options, k suite.Kernel, bc BenchRunConfig) (float64, ooc.EngineStats, benchExtras, error) {
	var extra benchExtras
	prog := k.Build(o.Cfg)
	plan, err := suite.PlanFor(prog, suite.COpt)
	if err != nil {
		return 0, ooc.EngineStats{}, extra, err
	}
	budget := suite.MemBudget(prog, o.MemFrac)
	base := ooc.NewDisk(o.PFS.StripeElems)
	if bc.Compress {
		base.EnableCompression()
	}
	d, err := codegen.SetupDiskOn(base, prog, plan, nil)
	if err != nil {
		return 0, ooc.EngineStats{}, extra, err
	}
	d.Observe(o.Obs)
	opts := codegen.Options{Strategy: suite.StrategyFor(suite.COpt), MemBudget: budget, Obs: o.Obs}
	var eng *ooc.Engine
	if bc.CacheTiles > 0 {
		eng = ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: bc.CacheTiles, Obs: o.Obs})
		opts.Engine = eng
	}
	mem := ooc.NewMemory(budget)
	start := time.Now()
	for it := 0; it < k.Iter; it++ {
		if _, err := codegen.RunProgram(prog, plan, d, mem, opts); err != nil {
			return 0, ooc.EngineStats{}, extra, err
		}
	}
	wall := time.Since(start).Seconds()
	if eng != nil {
		extra.allocsPerGet = measureAllocsPerGet(d, eng)
	}
	var cache ooc.EngineStats
	if eng != nil {
		if err := eng.Close(); err != nil {
			return 0, ooc.EngineStats{}, extra, err
		}
		cache = eng.Stats()
	}
	if cs := d.CompressionStats(); cs != nil {
		extra.bytesDiskRaw = cs.DiskReadRawBytes + cs.DiskWriteRawBytes
		extra.bytesDisk = cs.DiskReadBytes + cs.DiskWriteBytes
	}
	return wall, cache, extra, nil
}

// measureAllocsPerGet measures the per-operation heap allocation count
// of a cached tile acquire against the run's own engine and disk — the
// number the serving layer's zero-copy GET discipline rests on. Returns
// nil when no array offers a tile to measure.
func measureAllocsPerGet(d *ooc.Disk, eng *ooc.Engine) *float64 {
	arrays := d.Arrays()
	if len(arrays) == 0 {
		return nil
	}
	ar := arrays[0]
	lo := make([]int64, len(ar.Meta.Dims))
	hi := make([]int64, len(ar.Meta.Dims))
	for i, n := range ar.Meta.Dims {
		hi[i] = n
		if hi[i] > 8 {
			hi[i] = 8
		}
	}
	box := layout.NewBox(lo, hi)
	warm := func() bool {
		h, err := eng.Acquire(ar, box)
		if err != nil {
			return false
		}
		eng.Release(h, false)
		return true
	}
	if !warm() || !warm() {
		return nil
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if !warm() {
			return nil
		}
	}
	runtime.ReadMemStats(&after)
	// Integer division, as testing.AllocsPerRun does: stray background
	// allocations below one-per-op truncate to zero, while a real
	// per-op allocation always survives.
	v := float64((after.Mallocs - before.Mallocs) / rounds)
	return &v
}

// BenchRegression is one gated metric that got worse than the
// tolerance allows (or an entry that disappeared).
type BenchRegression struct {
	Kernel string
	Config string
	Metric string // "io_calls", "sim_makespan_seconds", "missing"
	Base   float64
	Cur    float64
}

// Ratio returns cur/base (0 when base is 0).
func (r BenchRegression) Ratio() float64 {
	if r.Base == 0 {
		return 0
	}
	return r.Cur / r.Base
}

func (r BenchRegression) String() string {
	if r.Metric == "missing" {
		return fmt.Sprintf("%s/%s: entry missing from current report", r.Kernel, r.Config)
	}
	return fmt.Sprintf("%s/%s: %s regressed %.1f%% (%.6g -> %.6g)",
		r.Kernel, r.Config, r.Metric, 100*(r.Ratio()-1), r.Base, r.Cur)
}

// CompareBench gates cur against base: any entry whose I/O-call count
// or simulated makespan exceeds the baseline by more than tol
// (fractional, e.g. 0.10) is a regression, as is any baseline entry
// missing from cur. Wall time, hit rate and overlap are informational
// and never gate. An error is returned when the reports are not
// comparable (different setup scale).
func CompareBench(base, cur BenchReport, tol float64) ([]BenchRegression, error) {
	if base.Setup != cur.Setup {
		return nil, fmt.Errorf("exp: bench setups differ (baseline %+v vs current %+v); regenerate the baseline",
			base.Setup, cur.Setup)
	}
	curBy := map[string]BenchEntry{}
	for _, e := range cur.Results {
		curBy[e.Kernel+"/"+e.Config] = e
	}
	var regs []BenchRegression
	for _, b := range base.Results {
		c, ok := curBy[b.Kernel+"/"+b.Config]
		if !ok {
			regs = append(regs, BenchRegression{Kernel: b.Kernel, Config: b.Config, Metric: "missing"})
			continue
		}
		if float64(c.IOCalls) > float64(b.IOCalls)*(1+tol) {
			regs = append(regs, BenchRegression{Kernel: b.Kernel, Config: b.Config, Metric: "io_calls",
				Base: float64(b.IOCalls), Cur: float64(c.IOCalls)})
		}
		if c.SimMakespanSeconds > b.SimMakespanSeconds*(1+tol) {
			regs = append(regs, BenchRegression{Kernel: b.Kernel, Config: b.Config, Metric: "sim_makespan_seconds",
				Base: b.SimMakespanSeconds, Cur: c.SimMakespanSeconds})
		}
		// The zero-allocation cached-GET contract is absolute, not a
		// ratio: any measured allocation on the hot path is a
		// regression regardless of the baseline.
		if c.AllocsPerGet != nil && *c.AllocsPerGet > 0 {
			regs = append(regs, BenchRegression{Kernel: b.Kernel, Config: b.Config, Metric: "allocs_per_get",
				Base: 0, Cur: *c.AllocsPerGet})
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Kernel != regs[j].Kernel {
			return regs[i].Kernel < regs[j].Kernel
		}
		if regs[i].Config != regs[j].Config {
			return regs[i].Config < regs[j].Config
		}
		return regs[i].Metric < regs[j].Metric
	})
	return regs, nil
}

// Render formats the report as the human-readable table occbench
// prints alongside the JSON artifact.
func (r BenchReport) Render() string {
	out := fmt.Sprintf("Benchmark suite (c-opt, %d procs, N2=%d)\n\n", r.Setup.Procs, r.Setup.N2)
	out += fmt.Sprintf("%-8s %-16s %10s %12s %8s %14s %10s\n",
		"kernel", "config", "io-calls", "io-bytes", "hit%", "sim-seconds", "wall-s")
	for _, e := range r.Results {
		out += fmt.Sprintf("%-8s %-16s %10d %12d %8.1f %14.4f %10.3f\n",
			e.Kernel, e.Config, e.IOCalls, e.IOBytes, 100*e.HitRate,
			e.SimMakespanSeconds, e.WallSeconds)
	}
	for _, f := range r.Failures {
		out += fmt.Sprintf("FAILED  %s/%s: %s\n", f.Kernel, f.Config, f.Error)
	}
	return out
}
