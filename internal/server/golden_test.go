package server

import (
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"outcore/internal/obs"
	"outcore/internal/ooc"
)

var update = flag.Bool("update", false, "rewrite the golden schema files from the live responses")

// goldenServer builds a fully-observed stack (disk, engine, and server
// sharing one sink) so /metrics exposes every family a production occd
// would, then runs enough traffic to touch each counter's code path.
func goldenServer(t *testing.T) *testServer {
	t.Helper()
	// Built by hand rather than via newTestServer: the sink must reach
	// the buffer pool, the disk, the engine, AND the server — exactly as
	// cmd/occd wires them — so every production metric family shows up.
	sink := &obs.Sink{Metrics: obs.NewRegistry()}
	ooc.ObservePool(sink)
	ts := &testServer{}
	d := ooc.NewDisk(0).Observe(sink)
	eng := ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 16, Obs: sink})
	ts.disk = d
	ts.srv = New(d, eng, Config{Obs: sink})
	ts.http = httptest.NewServer(ts.srv.Handler())
	t.Cleanup(func() {
		ts.http.Close()
		ts.srv.Drain()
	})
	ts.createArray(t, "A", 8, 8)
	payload := make([]float64, 16)
	if status, out, _ := ts.do(t, http.MethodPut, ts.url("/v1/arrays/A/tile?lo=0,0&hi=4,4"), encodePayload(payload)); status != http.StatusNoContent {
		t.Fatalf("seed put: %d %s", status, out)
	}
	if status, _, _ := ts.do(t, http.MethodGet, ts.url("/v1/arrays/A/tile?lo=0,0&hi=4,4"), nil); status != 200 {
		t.Fatal("seed get failed")
	}
	return ts
}

// goldenWALServer is goldenServer with the write-ahead log enabled and
// durable PUTs on — the wiring cmd/occd builds for -wal -durable-puts —
// so the goldens pin the /v1/stats wal scorecard and the ooc_wal_*
// metric families. The seed PUT rides the durable path: its 204 means a
// group commit ran, so every WAL counter's code path has fired.
func goldenWALServer(t *testing.T) *testServer {
	t.Helper()
	sink := &obs.Sink{Metrics: obs.NewRegistry()}
	ts := &testServer{}
	d := ooc.NewDisk(0).Observe(sink)
	d.EnableWAL(ooc.WALOptions{Obs: sink})
	eng := ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 16, Obs: sink})
	ts.disk = d
	ts.srv = New(d, eng, Config{DurablePuts: true, Obs: sink})
	ts.http = httptest.NewServer(ts.srv.Handler())
	t.Cleanup(func() {
		ts.http.Close()
		ts.srv.Drain()
	})
	ts.createArray(t, "A", 8, 8)
	payload := make([]float64, 16)
	if status, out, _ := ts.do(t, http.MethodPut, ts.url("/v1/arrays/A/tile?lo=0,0&hi=4,4"), encodePayload(payload)); status != http.StatusNoContent {
		t.Fatalf("seed put: %d %s", status, out)
	}
	if status, _, _ := ts.do(t, http.MethodGet, ts.url("/v1/arrays/A/tile?lo=0,0&hi=4,4"), nil); status != 200 {
		t.Fatal("seed get failed")
	}
	return ts
}

// keyPaths flattens a decoded JSON object into sorted dotted key
// paths ("engine.Hits", "hit_rate", ...). Array elements collapse to
// "[]" — the schema is about field names, not traffic.
func keyPaths(prefix string, v any, out *[]string) {
	switch x := v.(type) {
	case map[string]any:
		for k, child := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			keyPaths(p, child, out)
		}
	case []any:
		for _, child := range x {
			keyPaths(prefix+"[]", child, out)
			break // one element shows the shape
		}
	default:
		*out = append(*out, prefix)
	}
}

func checkGolden(t *testing.T, name string, got []string) {
	t.Helper()
	sort.Strings(got)
	text := strings.Join(got, "\n") + "\n"
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/server/ -run Golden -update` after an intentional schema change)", err)
	}
	if string(want) != text {
		t.Errorf("%s drifted from the golden schema.\n got:\n%s\nwant:\n%s\nIf the change is intentional, regenerate with -update (and update TUTORIAL.md's dashboard examples).",
			name, text, want)
	}
}

// TestStatsGoldenSchema pins the /v1/stats JSON shape: adding,
// renaming, or dropping a field (including engine counters like
// WritebackErrors) is an API change and must update the golden file
// deliberately, not by accident.
func TestStatsGoldenSchema(t *testing.T) {
	ts := goldenServer(t)
	status, out, _ := ts.do(t, http.MethodGet, ts.url("/v1/stats"), nil)
	if status != 200 {
		t.Fatalf("stats: %d %s", status, out)
	}
	var decoded map[string]any
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatalf("stats is not JSON: %v\n%s", err, out)
	}
	var keys []string
	keyPaths("", decoded, &keys)
	checkGolden(t, "stats_schema.golden", keys)
}

// TestStatsGoldenWALSchema pins the WAL-enabled /v1/stats shape: the
// wal block (sequence watermarks, append/commit/fsync/checkpoint
// counters, replay tallies) is what the durability runbook and the CI
// chaos leg read, so its keys changing is an API change.
func TestStatsGoldenWALSchema(t *testing.T) {
	ts := goldenWALServer(t)
	status, out, _ := ts.do(t, http.MethodGet, ts.url("/v1/stats"), nil)
	if status != 200 {
		t.Fatalf("stats: %d %s", status, out)
	}
	var decoded map[string]any
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatalf("stats is not JSON: %v\n%s", err, out)
	}
	wal, ok := decoded["wal"].(map[string]any)
	if !ok {
		t.Fatalf("WAL server's /v1/stats has no wal block:\n%s", out)
	}
	// The durable seed PUT must have gone through the group commit.
	if c, _ := wal["commits"].(float64); c < 1 {
		t.Errorf("wal.commits = %v after a durable PUT, want >= 1", wal["commits"])
	}
	if f, _ := wal["fsyncs"].(float64); f < 1 {
		t.Errorf("wal.fsyncs = %v after a durable PUT, want >= 1", wal["fsyncs"])
	}
	var keys []string
	keyPaths("", decoded, &keys)
	checkGolden(t, "stats_schema_wal.golden", keys)
}

// TestMetricsGoldenWALSchema pins the ooc_wal_* metric families a
// WAL-enabled plane adds to /metrics.
func TestMetricsGoldenWALSchema(t *testing.T) {
	ts := goldenWALServer(t)
	status, out, _ := ts.do(t, http.MethodGet, ts.url("/metrics"), nil)
	if status != 200 {
		t.Fatalf("metrics: %d", status)
	}
	var families []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families = append(families, strings.TrimPrefix(line, "# TYPE "))
		}
	}
	checkGolden(t, "metrics_families_wal.golden", families)

	for _, want := range []string{"ooc_wal_appends_total", "ooc_wal_fsyncs_total", "ooc_wal_commits_total"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("WAL /metrics missing family %s", want)
		}
	}
}

// TestMetricsGoldenSchema pins the metric families /metrics exposes
// (name + type, from the # TYPE lines): dashboards and the CI load
// checks key off these names.
func TestMetricsGoldenSchema(t *testing.T) {
	ts := goldenServer(t)
	status, out, _ := ts.do(t, http.MethodGet, ts.url("/metrics"), nil)
	if status != 200 {
		t.Fatalf("metrics: %d", status)
	}
	var families []string
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families = append(families, strings.TrimPrefix(line, "# TYPE "))
		}
	}
	if len(families) == 0 {
		t.Fatalf("no # TYPE lines in /metrics output:\n%s", out)
	}
	checkGolden(t, "metrics_families.golden", families)

	// The JSON rendering must expose the same families.
	status, jout, _ := ts.do(t, http.MethodGet, ts.url("/metrics?format=json"), nil)
	if status != 200 {
		t.Fatalf("metrics?format=json: %d", status)
	}
	var decoded map[string]any
	if err := json.Unmarshal(jout, &decoded); err != nil {
		t.Fatalf("metrics json: %v\n%s", err, jout)
	}
	for _, fam := range families {
		name := strings.Fields(fam)[0]
		if !strings.Contains(string(jout), name) {
			t.Errorf("metric family %s present in Prometheus text but missing from the JSON rendering", name)
		}
	}
	_ = decoded
}
