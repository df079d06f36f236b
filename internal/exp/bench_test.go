package exp

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"

	"outcore/internal/obs"
	"outcore/internal/suite"
)

// benchOptions is a small, fast suite configuration shared by the
// bench tests.
func benchOptions() Options {
	return Options{
		Cfg:     suite.Config{N2: 16, N3: 4, N4: 2},
		PFS:     ScaledPFS(16, 4),
		MemFrac: 32,
		Procs:   2,
	}
}

// TestBenchSuiteSchema locks the BENCH JSON wire format: the CI
// regression gate and external tooling parse these files across
// revisions, so key renames are breaking changes that must show up
// here first.
func TestBenchSuiteSchema(t *testing.T) {
	o := benchOptions()
	o.Kernels = []string{"mat"}
	rep := BenchSuite(o)
	if len(rep.Failures) != 0 {
		t.Fatalf("suite failures: %+v", rep.Failures)
	}
	if got, want := len(rep.Results), len(BenchConfigs); got != want {
		t.Fatalf("got %d results, want %d", got, want)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if raw["schema"] != BenchSchema {
		t.Errorf("schema = %v, want %q", raw["schema"], BenchSchema)
	}
	topKeys := sortedKeys(raw)
	if want := []string{"results", "schema", "setup"}; !reflect.DeepEqual(topKeys, want) {
		t.Errorf("top-level keys = %v, want %v", topKeys, want)
	}
	entry := raw["results"].([]any)[0].(map[string]any)
	entryKeys := sortedKeys(entry)
	want := []string{"config", "hit_rate", "io_bytes", "io_calls", "kernel",
		"sim_makespan_seconds", "wall_seconds"}
	if !reflect.DeepEqual(entryKeys, want) {
		t.Errorf("entry keys = %v, want %v", entryKeys, want)
	}

	// Round-trip through the loader.
	got, err := LoadBenchReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Setup != rep.Setup || len(got.Results) != len(rep.Results) {
		t.Errorf("round-trip mismatch: %+v vs %+v", got.Setup, rep.Setup)
	}

	// A foreign schema is rejected.
	if _, err := LoadBenchReport(strings.NewReader(`{"schema":"other/v9"}`)); err == nil {
		t.Error("LoadBenchReport accepted a foreign schema")
	}
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestBenchSuiteDeterministicMetrics runs the suite twice and demands
// identical gated metrics — the property the CI regression gate is
// built on.
func TestBenchSuiteDeterministicMetrics(t *testing.T) {
	o := benchOptions()
	o.Kernels = []string{"mxm"}
	a, b := BenchSuite(o), BenchSuite(o)
	if len(a.Failures)+len(b.Failures) != 0 {
		t.Fatalf("suite failures: %+v %+v", a.Failures, b.Failures)
	}
	for i := range a.Results {
		x, y := a.Results[i], b.Results[i]
		if x.IOCalls != y.IOCalls || x.IOBytes != y.IOBytes || x.SimMakespanSeconds != y.SimMakespanSeconds {
			t.Errorf("%s/%s: gated metrics differ across runs: %+v vs %+v", x.Kernel, x.Config, x, y)
		}
	}
}

// TestCompareBenchInjectedRegression injects a >10% io_calls increase
// and a >10% makespan increase and checks the gate trips — the
// demonstration the CI bench job's failure mode hangs on. Sub-tolerance
// drift must pass.
func TestCompareBenchInjectedRegression(t *testing.T) {
	base := BenchReport{
		Schema: BenchSchema,
		Results: []BenchEntry{
			{Kernel: "mxm", Config: "engine", IOCalls: 1000, SimMakespanSeconds: 50},
			{Kernel: "mat", Config: "sequential", IOCalls: 200, SimMakespanSeconds: 10},
		},
	}

	cur := base
	cur.Results = append([]BenchEntry(nil), base.Results...)
	cur.Results[0].IOCalls = 1111 // +11.1%
	cur.Results[1].SimMakespanSeconds = 11.5
	regs, err := CompareBench(base, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2: %v", len(regs), regs)
	}
	if regs[0].Kernel != "mat" || regs[0].Metric != "sim_makespan_seconds" {
		t.Errorf("regs[0] = %+v", regs[0])
	}
	if regs[1].Kernel != "mxm" || regs[1].Metric != "io_calls" {
		t.Errorf("regs[1] = %+v", regs[1])
	}

	// Drift inside the tolerance passes.
	ok := base
	ok.Results = append([]BenchEntry(nil), base.Results...)
	ok.Results[0].IOCalls = 1090 // +9%
	ok.Results[1].SimMakespanSeconds = 10.9
	regs, err = CompareBench(base, ok, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Errorf("sub-tolerance drift flagged: %v", regs)
	}

	// A vanished entry is a regression, not a silent pass.
	missing := base
	missing.Results = base.Results[:1]
	regs, err = CompareBench(base, missing, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "missing" {
		t.Errorf("missing entry: got %v", regs)
	}

	// Reports from different setups are not comparable.
	other := base
	other.Setup.N2 = 999
	if _, err := CompareBench(base, other, 0.10); err == nil {
		t.Error("CompareBench accepted mismatched setups")
	}
}

// TestBenchSuiteFailurePropagation: a broken kernel is recorded (once
// per configuration) and the rest of the suite still produces results —
// occbench turns non-empty Failures into a non-zero exit.
func TestBenchSuiteFailurePropagation(t *testing.T) {
	o := benchOptions()
	o.Kernels = []string{"nosuchkernel", "mat"}
	rep := BenchSuite(o)
	if got, want := len(rep.Failures), len(BenchConfigs); got != want {
		t.Fatalf("got %d failures, want %d: %+v", got, want, rep.Failures)
	}
	for _, f := range rep.Failures {
		if f.Kernel != "nosuchkernel" || f.Error == "" {
			t.Errorf("failure = %+v", f)
		}
	}
	if got, want := len(rep.Results), len(BenchConfigs); got != want {
		t.Errorf("healthy kernel produced %d results, want %d", got, want)
	}
}

// TestObserverEffect: attaching a full observability sink (trace +
// metrics) must not change the engine's backend request stream — the
// instrumented engine does the same I/O in the same order as the bare
// one, at a cache that thrashes and at one that holds the working set.
func TestObserverEffect(t *testing.T) {
	for _, cache := range []int{4, 8} {
		o := benchOptions()
		o.CacheTiles = cache

		bare, err := EngineDemo(o, "mxm", suite.COpt)
		if err != nil {
			t.Fatal(err)
		}
		o.Obs = &obs.Sink{Trace: obs.NewTrace(1 << 12), Metrics: obs.NewRegistry()}
		observed, err := EngineDemo(o, "mxm", suite.COpt)
		if err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(bare.EngTrace, observed.EngTrace) {
			t.Errorf("cache %d: observer effect: engine backend trace changed under the sink\nbare: %d calls, observed: %d calls",
				cache, len(bare.EngTrace), len(observed.EngTrace))
		}
		if bare.Cache != observed.Cache {
			t.Errorf("cache %d: observer effect: cache stats changed: %+v vs %+v", cache, bare.Cache, observed.Cache)
		}
		if o.Obs.Trace.Total() == 0 {
			t.Errorf("cache %d: sink recorded no events — instrumentation is dead", cache)
		}
	}
}

// TestBenchCompressRow pins the engine-compress cell: its gated
// metrics match the plain engine config (compression sits below the
// I/O-call accounting), its bytes_disk shows a real byte reduction
// against the logical volume, and the cached-GET path measured zero
// allocations.
func TestBenchCompressRow(t *testing.T) {
	o := benchOptions()
	o.Kernels = []string{"mat"}
	rep := BenchSuite(o)
	if len(rep.Failures) != 0 {
		t.Fatalf("suite failures: %+v", rep.Failures)
	}
	byConfig := map[string]BenchEntry{}
	for _, e := range rep.Results {
		byConfig[e.Config] = e
	}
	comp, ok := byConfig["engine-compress"]
	if !ok {
		t.Fatal("no engine-compress row in the suite report")
	}
	plain := byConfig["engine"]
	if comp.IOCalls != plain.IOCalls || comp.IOBytes != plain.IOBytes {
		t.Errorf("compress changed the logical I/O accounting: %+v vs %+v", comp, plain)
	}
	if comp.BytesDisk <= 0 || comp.BytesDiskRaw <= 0 {
		t.Fatalf("engine-compress row has no disk byte measurements: %+v", comp)
	}
	if comp.BytesDisk*2 > comp.BytesDiskRaw {
		t.Errorf("bytes_disk %d vs raw %d: less than the 2x reduction target", comp.BytesDisk, comp.BytesDiskRaw)
	}
	if plain.BytesDisk != 0 {
		t.Errorf("plain engine row carries bytes_disk %d, want 0", plain.BytesDisk)
	}
	for _, name := range []string{"engine", "engine-compress"} {
		e := byConfig[name]
		if e.AllocsPerGet == nil {
			t.Errorf("%s row has no allocs_per_get measurement", name)
		} else if *e.AllocsPerGet != 0 {
			t.Errorf("%s: allocs_per_get = %v, want 0", name, *e.AllocsPerGet)
		}
	}
	if seq := byConfig["sequential"]; seq.AllocsPerGet != nil {
		t.Error("sequential row should not carry allocs_per_get")
	}
}

// TestCompareBenchAllocsGate checks the absolute zero-allocation gate:
// a current report whose cached-GET path allocates trips the
// comparison even when every ratio metric is level.
func TestCompareBenchAllocsGate(t *testing.T) {
	one := 1.0
	zero := 0.0
	base := BenchReport{Schema: BenchSchema, Results: []BenchEntry{
		{Kernel: "mat", Config: "engine", IOCalls: 100, SimMakespanSeconds: 1, AllocsPerGet: &zero},
	}}
	cur := BenchReport{Schema: BenchSchema, Results: []BenchEntry{
		{Kernel: "mat", Config: "engine", IOCalls: 100, SimMakespanSeconds: 1, AllocsPerGet: &one},
	}}
	regs, err := CompareBench(base, cur, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 || regs[0].Metric != "allocs_per_get" {
		t.Fatalf("regressions = %+v, want one allocs_per_get", regs)
	}
	// And a zero-alloc current report passes.
	regs, err = CompareBench(base, base, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("level report tripped the gate: %+v", regs)
	}
}
