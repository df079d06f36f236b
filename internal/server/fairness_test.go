// Fairness conformance: the admission queue's two promises — point
// reads' tail latency survives an aggressive scanner, and the wire
// byte meter is exact — checked over real HTTP on every serving
// topology the repo ships: one occd, and an occrouter fronting three
// nodes. Lives in package server_test so it can stand the cluster up
// without an import cycle.
package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"outcore/internal/cluster"
	"outcore/internal/ooc"
	"outcore/internal/server"
)

// createArrayHTTP provisions an array through the public API — the
// suite drives every plane exactly as an external client would.
func createArrayHTTP(t *testing.T, base, name string, dims ...int64) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"name": name, "dims": dims})
	resp, err := http.Post(base+"/v1/arrays", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create %s: status %d", name, resp.StatusCode)
	}
}

// startSingle stands up one occd-shaped server with a deliberately
// small admission pool so the point and scan populations actually
// contend in the admission queue.
func startSingle(t *testing.T) string {
	t.Helper()
	d := ooc.NewDisk(0)
	eng := ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 32})
	srv := server.New(d, eng, server.Config{MaxInflight: 4, QueueDepth: 256})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Drain()
	})
	createArrayHTTP(t, hs.URL, "A", 64, 64)
	return hs.URL
}

// startCluster stands up the router+3-node plane.
func startCluster(t *testing.T) string {
	t.Helper()
	// Node admission (2 slots) is deliberately narrow: contention must
	// queue in admission, not in the engine behind it.
	lc, err := cluster.NewLocal(cluster.LocalOptions{
		Nodes: 3, Replicas: 2, TileDim: 8, CacheTiles: 32,
		MaxInflight: 2, QueueDepth: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lc.Close() })
	if err := lc.CreateArray("A", 64, 64); err != nil {
		t.Fatal(err)
	}
	return lc.RouterURL
}

// fairnessPlanes enumerates the serving topologies under conformance.
func fairnessPlanes() []struct {
	name  string
	start func(t *testing.T) string
} {
	return []struct {
		name  string
		start func(t *testing.T) string
	}{
		{"occd", startSingle},
		{"router+3-node", startCluster},
	}
}

func pointSpec(base string) server.LoadSpec {
	return server.LoadSpec{
		BaseURL: base, Array: "A", Dims: []int64{64, 64}, TileEdge: 8,
		Clients: 4, Requests: 400, ZipfS: 1.1, ReadFrac: 1,
		Seed: 42,
	}
}

// TestFairnessIsolation replays the seeded two-population mix — an
// aggressive streaming scanner against interactive point GETs — on
// each plane and holds the headline bound: the point readers'
// contended p99 stays within 2x their solo p99. One retry
// absorbs scheduler noise (sub-millisecond solo tails are jitter-
// dominated, especially under -race); a real fairness regression —
// scan chunk trains monopolizing the admission pool — fails both
// attempts by an order of magnitude, not a factor of two.
func TestFairnessIsolation(t *testing.T) {
	for _, plane := range fairnessPlanes() {
		t.Run(plane.name, func(t *testing.T) {
			base := plane.start(t)
			var lastErr string
			for attempt := 0; attempt < 2; attempt++ {
				solo, err := server.RunLoad(pointSpec(base))
				if err != nil {
					t.Fatal(err)
				}
				if solo.OK != solo.Requests {
					t.Fatalf("solo pass: %d/%d OK (%d rejected, %d errors)",
						solo.OK, solo.Requests, solo.Rejected, solo.Errors)
				}

				scanSpec := pointSpec(base)
				scanSpec.Scans = true
				scanSpec.ReadFrac = 0.5
				scanSpec.Requests = 200
				scanSpec.Seed = 7331
				var contended, scanRes server.LoadResult
				var scanErr error
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					scanRes, scanErr = server.RunLoad(scanSpec)
				}()
				contended, err = server.RunLoad(pointSpec(base))
				wg.Wait()
				if err != nil || scanErr != nil {
					t.Fatalf("contended pass: point %v, scan %v", err, scanErr)
				}
				if contended.OK == 0 || scanRes.OK == 0 {
					t.Fatalf("contended pass starved a population: point OK %d, scan OK %d",
						contended.OK, scanRes.OK)
				}
				if scanRes.ScanChunks == 0 {
					t.Fatalf("scanner streamed no chunks; the mix is not exercising scans")
				}

				// The conformance bound, with an absolute floor: below
				// ~25ms a p99 is measuring the Go scheduler, not the
				// admission policy.
				limit := 2 * solo.P99
				if floor := 0.025; limit < floor {
					limit = floor
				}
				if contended.P99 <= limit {
					lastErr = ""
					break
				}
				lastErr = fmt.Sprintf("point p99 %.2fms contended vs %.2fms solo (bound %.2fms)",
					contended.P99*1e3, solo.P99*1e3, limit*1e3)
			}
			if lastErr != "" {
				t.Errorf("%s: the scanner degraded point reads past the 2x bound: %s",
					plane.name, lastErr)
			}
		})
	}
}

// wireRawBytes reads the front end's logical wire byte meter from
// /v1/stats.
func wireRawBytes(t *testing.T, base string) int64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		WireRawBytes int64 `json:"wire_raw_bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.WireRawBytes
}

// TestByteAccountingExact holds the wire byte meter to exactness over
// HTTP on both planes: every admitted point op moves one full 8x8 tile
// (512 bytes), so the metered logical bytes must equal OK*512 — no
// rounding, no double counting on the router's fan-out, no leakage
// from failed requests.
func TestByteAccountingExact(t *testing.T) {
	for _, plane := range fairnessPlanes() {
		t.Run(plane.name, func(t *testing.T) {
			base := plane.start(t)
			spec := server.LoadSpec{
				BaseURL: base, Array: "A", Dims: []int64{64, 64}, TileEdge: 8,
				Clients: 4, Requests: 300, ZipfS: 1.1, ReadFrac: 0.5,
				Seed: 9,
			}
			res, err := server.RunLoad(spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.OK != res.Requests {
				t.Fatalf("%d/%d OK (%d rejected, %d errors); exactness needs a clean run",
					res.OK, res.Requests, res.Rejected, res.Errors)
			}
			want := int64(res.OK) * 8 * 8 * 8 // elems per tile x bytes per elem
			if got := wireRawBytes(t, base); got != want {
				t.Errorf("wire bytes metered = %d, admitted = %d (%d OK x 512B): accounting drifted",
					got, want, res.OK)
			}
		})
	}
}
