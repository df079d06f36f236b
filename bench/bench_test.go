package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"outcore/internal/suite"
)

// The tests run every workload at a fraction of its benchmark length:
// a tenth of a second's worth of ops per round, and 16x16 kernels.
func tiny(seed int64) runConfig {
	return runConfig{seed: seed, seconds: 1, opsDiv: 10, hooks: noHooks}
}

func TestMain(m *testing.M) {
	kernelConfig = suite.Config{N2: 16, N3: 4, N4: 2}
	os.Exit(m.Run())
}

func mustSpec(t *testing.T, name string) spec {
	t.Helper()
	sp, ok := specByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return sp
}

func mustE2E(t *testing.T, sp spec, cfg runConfig) *result {
	t.Helper()
	res, err := runE2E(sp, cfg)
	if err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	return res
}

// Two runs with one seed must agree to the last bit on everything that
// is a count; that is what lets a later change claim a count.
func TestSameSeedSameCounts(t *testing.T) {
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			a, b := mustE2E(t, sp, tiny(7)), mustE2E(t, sp, tiny(7))
			if !a.correct() || a.values["ok_frac"] != 1 {
				t.Fatalf("run failed its own checks: ok_frac=%v err=%v", a.values["ok_frac"], a.err)
			}
			if a.fingerprint != b.fingerprint {
				t.Errorf("op streams differ: %x vs %x", a.fingerprint, b.fingerprint)
			}
			for _, name := range []string{"io_calls_per_op_p1", "io_bytes_per_user_byte_p1", "ok_frac"} {
				if math.Float64bits(a.values[name]) != math.Float64bits(b.values[name]) {
					t.Errorf("%s: %v vs %v", name, a.values[name], b.values[name])
				}
			}
			for _, d := range endToEnd {
				if v := a.values[d.name]; v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v; end-to-end metrics must be finite and never 0", d.name, v)
				}
			}
		})
	}
}

func TestSeedsChangeTheStream(t *testing.T) {
	for _, sp := range specs {
		if sp.primary == opCycle {
			continue // the kernels' seed picks array contents, not ops
		}
		a := genStream(sp, 1, 100).fingerprint()
		if b := genStream(sp, 1, 100).fingerprint(); a != b {
			t.Errorf("%s: one seed gave two streams", sp.name)
		}
		if b := genStream(sp, 2, 100).fingerprint(); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", sp.name)
		}
	}
}

// BENCHMARK.json and the program must name the same workloads and the
// same metrics with the same units.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Why string
	}
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(kind string, defs []metricDef, listed []entry) {
		want := map[string]string{}
		for _, e := range listed {
			want[e.Name] = e.Unit
		}
		if len(want) != len(defs) {
			t.Errorf("%s: program emits %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(want))
		}
		for _, d := range defs {
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("%s: bad name or unit %q %q", kind, d.name, d.unit)
			}
			if u, ok := want[d.name]; !ok || u != d.unit {
				t.Errorf("%s: %s [%s] is not in BENCHMARK.json with that unit (has %q)", kind, d.name, d.unit, u)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, program has %d", len(doc.Workloads), len(specs))
	}
	for i, sp := range specs {
		if doc.Workloads[i].Name != sp.name || doc.Workloads[i].Why != sp.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, program has %q", i, doc.Workloads[i].Name, sp.name)
		}
	}
	// What a run emits is exactly the list, nothing missing or extra.
	res := mustE2E(t, mustSpec(t, "hit_point"), tiny(1))
	if got := collect(endToEnd, res.values); len(got) != len(endToEnd) {
		t.Errorf("result carries %d metrics, want %d", len(got), len(endToEnd))
	}
	for name := range res.values {
		found := false
		for _, d := range endToEnd {
			found = found || d.name == name
		}
		if !found {
			t.Errorf("run computed %q, which is not a listed end-to-end metric", name)
		}
	}
}

// The oracle must be live: each deliberate fault has to show in ok_frac.

func TestOracleCatchesCorruptResponseByte(t *testing.T) {
	cfg := tiny(3)
	cfg.hooks.corruptOp = 300 // past the 256 warm-up ops: a timed GET
	res := mustE2E(t, mustSpec(t, "hit_point"), cfg)
	if res.failed != 1 || res.values["ok_frac"] >= 1 {
		t.Fatalf("one flipped response bit: failed=%d ok_frac=%v, want exactly one failure", res.failed, res.values["ok_frac"])
	}
}

func TestOracleCatchesLostAckedPut(t *testing.T) {
	cfg := tiny(3)
	cfg.hooks.skipPutOp = 300
	res := mustE2E(t, mustSpec(t, "durable_put"), cfg)
	if res.failed == 0 || res.values["ok_frac"] >= 1 {
		t.Fatalf("a PUT recorded as acked but never stored passed the crash check: failed=%d ok_frac=%v", res.failed, res.values["ok_frac"])
	}
}

func TestOracleCatchesPerturbedKernelOutput(t *testing.T) {
	cfg := tiny(3)
	cfg.hooks.perturbCycle = 2
	res := mustE2E(t, mustSpec(t, "kernels"), cfg)
	if res.failed != 1 || res.values["ok_frac"] >= 1 {
		t.Fatalf("one changed output element: failed=%d ok_frac=%v, want exactly one failed cycle", res.failed, res.values["ok_frac"])
	}
}

// The crash switch itself: what no Sync acknowledged is gone, the rest
// stays.
func TestCrashStoreDropsUnsyncedWrites(t *testing.T) {
	p := newPowerSwitch()
	s := &crashStore{cur: make([]float64, 8), dur: make([]float64, 8)}
	p.stores["x"] = s
	if err := s.WriteAt([]float64{1, 2}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteAt([]float64{9, 9, 9}, 1); err != nil {
		t.Fatal(err)
	}
	p.cut()
	got := make([]float64, 4)
	if err := s.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if want := []float64{1, 2, 0, 0}; got[0] != want[0] || got[1] != want[1] || got[2] != want[2] || got[3] != want[3] {
		t.Fatalf("after crash: %v, want %v", got, want)
	}
	if err := s.WriteAt([]float64{1}, 8); err == nil {
		t.Fatal("write past the end succeeded")
	}
}

// The traced run must fill the whole ledger and show the structure the
// workloads were built to have.
func TestTracedRunFillsTheLedger(t *testing.T) {
	out := t.TempDir()
	want := map[string]func(v map[string]float64) bool{
		"hit_point": func(v map[string]float64) bool {
			return v["ooc.hit_rate"] == 1 && v["server.handler_us_per_op"] > 0 && v["server.http_us_per_op"] > 0
		},
		"miss_point": func(v map[string]float64) bool {
			return v["ooc.hit_rate"] < 0.1 && v["layout.runs_per_op"] == 32 && v["ooc.readtile_us_per_op"] > 0
		},
		"scan_stream": func(v map[string]float64) bool {
			return v["layout.planscan_us_per_op"] > 0 && v["layout.runs_per_op"] == 8
		},
		"durable_put": func(v map[string]float64) bool {
			return v["ooc.wal_fsyncs_per_op"] == 1 && v["ooc.writetile_us_per_op"] > 0 && v["ooc.sync_us_per_op"] > 0
		},
		"cluster_mixed": func(v map[string]float64) bool {
			return v["cluster.node_requests_per_op"] == 2 && v["cluster.router_us_per_op"] > 0 && v["ooc.codec_ratio"] > 1
		},
		"kernels": func(v map[string]float64) bool {
			return v["codegen.io_calls_vs_col"] > 0 && v["codegen.io_calls_over_compulsory"] >= 1 && v["core.plan_us_per_kernel"] > 0
		},
	}
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			res, err := runTraced(sp, tiny(5), out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() {
				t.Fatalf("traced replay failed its checks: %d of %d, %v", res.failed, res.attempted, res.err)
			}
			if !want[sp.name](res.values) {
				t.Errorf("ledger does not have the workload's shape: %v", res.values)
			}
			if c := res.values["client.new_conns_per_op"]; c >= 0.001 {
				t.Errorf("client.new_conns_per_op = %v: the harness is measuring connection churn", c)
			}
			for name := range res.values {
				found := false
				for _, d := range perLayer {
					found = found || d.name == name
				}
				if !found {
					t.Errorf("traced run computed %q, which is not a listed per-layer metric", name)
				}
			}
			raw, err := os.ReadFile(filepath.Join(out, "trace_"+sp.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatalf("chrome trace is not JSON: %v", err)
			}
			if len(doc.TraceEvents) < 10 {
				t.Errorf("chrome trace holds only %d events", len(doc.TraceEvents))
			}
		})
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("quartileSpread = %v, want %v", got, want)
	}
}
