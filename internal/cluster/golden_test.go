package cluster

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"outcore/internal/layout"
	"outcore/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the golden schema files from the live responses")

// goldenCluster builds an observed two-node cluster and runs one write
// and one read through the router, so the /v1/stats scorecard and every
// occrouter_*/ooc_cluster_* metric family is registered and live.
func goldenCluster(t *testing.T) *LocalCluster {
	t.Helper()
	sink := &obs.Sink{Metrics: obs.NewRegistry()}
	lc, err := NewLocal(LocalOptions{
		Nodes:       2,
		Replicas:    2,
		TileDim:     4,
		DurablePuts: true,
		Seed:        99,
		Obs:         sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	if err := lc.CreateArray("A", 8, 8); err != nil {
		t.Fatal(err)
	}
	cli := lc.Client()
	box := layout.Box{Lo: []int64{0, 0}, Hi: []int64{4, 4}}
	if _, _, err := cli.PutTile("A", box, make([]float64, 16), 0, true); err != nil {
		t.Fatalf("seed put: %v", err)
	}
	if _, _, err := cli.GetTile("A", box, true); err != nil {
		t.Fatalf("seed get: %v", err)
	}
	return lc
}

// keyPaths flattens a decoded JSON object into sorted dotted key paths,
// mirroring the server package's golden idiom; array elements collapse
// to "[]" — the schema is about field names, not traffic.
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
		t.Fatalf("%v (run `go test ./internal/cluster/ -run Golden -update` after an intentional schema change)", err)
	}
	if string(want) != text {
		t.Errorf("%s drifted from the golden schema.\n got:\n%s\nwant:\n%s\nIf the change is intentional, regenerate with -update (and update TUTORIAL.md's cluster examples).",
			name, text, want)
	}
}

func goldenGet(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s\n%s", url, resp.Status, body)
	}
	return body
}

// TestStatsGoldenClusterSchema pins the occrouter /v1/stats shape: the
// occd-mirroring top-level keys (engine, hit_rate, requests, ...) that
// let one stats reader serve both planes, plus the cluster block and
// per-node status array. Adding, renaming, or dropping a key is an API
// change and must update the golden deliberately.
func TestStatsGoldenClusterSchema(t *testing.T) {
	lc := goldenCluster(t)
	out := goldenGet(t, lc.RouterURL+"/v1/stats")
	var decoded map[string]any
	if err := json.Unmarshal(out, &decoded); err != nil {
		t.Fatalf("stats is not JSON: %v\n%s", err, out)
	}
	cl, ok := decoded["cluster"].(map[string]any)
	if !ok {
		t.Fatalf("router /v1/stats has no cluster block:\n%s", out)
	}
	if n, _ := cl["nodes"].(float64); n != 2 {
		t.Errorf("cluster.nodes = %v, want 2", cl["nodes"])
	}
	if nodes, ok := decoded["nodes"].([]any); !ok || len(nodes) != 2 {
		t.Errorf("router /v1/stats nodes array: got %v, want one entry per node", decoded["nodes"])
	}
	var keys []string
	keyPaths("", decoded, &keys)
	checkGolden(t, "stats_schema_cluster.golden", keys)
}

// TestMetricsGoldenClusterSchema pins the occrouter_* and ooc_cluster_*
// families the router's /metrics exposes — the names the nightly chaos
// job and cluster dashboards key off.
func TestMetricsGoldenClusterSchema(t *testing.T) {
	lc := goldenCluster(t)
	out := string(goldenGet(t, lc.RouterURL+"/metrics"))
	var families []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families = append(families, strings.TrimPrefix(line, "# TYPE "))
		}
	}
	if len(families) == 0 {
		t.Fatalf("no # TYPE lines in router /metrics output:\n%s", out)
	}
	checkGolden(t, "metrics_families_cluster.golden", families)

	for _, want := range []string{
		"occrouter_requests_total", "occrouter_tile_gets_total",
		"ooc_cluster_nodes_up", "ooc_cluster_handoff_hints_total",
		"ooc_cluster_read_repairs_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("router /metrics missing family %s", want)
		}
	}
}
