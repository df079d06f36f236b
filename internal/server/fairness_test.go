// Fairness conformance: the tenant plane's three promises — a point
// tenant's tail latency survives an aggressive scanner, DRR service
// shares follow the configured weights, and byte accounting is exact —
// checked over real HTTP on every serving topology the repo ships:
// one occd, and an occrouter fronting three nodes. Lives in package
// server_test so it can stand the cluster up without an import cycle.
package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"outcore/internal/cluster"
	"outcore/internal/ooc"
	"outcore/internal/server"
)

// fairnessConfig is the policy every plane in the suite runs: the
// point tenant is weighted 4:1 over the scanner, and the scanner's
// chunk trains are capped at 2 in flight.
func fairnessConfig() server.TenantConfig {
	return server.TenantConfig{
		Weights:         map[string]float64{"point": 4, "scan": 1},
		MaxScanInflight: 2,
	}
}

// slowBackend pads every read so admission — not storage speed — is
// the bottleneck the share tests measure.
type slowBackend struct {
	ooc.Backend
	delay time.Duration
}

func (b slowBackend) ReadAt(buf []float64, off int64) error {
	time.Sleep(b.delay)
	return b.Backend.ReadAt(buf, off)
}

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
// small admission pool so the two tenant populations actually contend
// in the DRR queues.
func startSingle(t *testing.T, cfg server.TenantConfig) string {
	t.Helper()
	d := ooc.NewDisk(0)
	eng := ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 32})
	srv := server.New(d, eng, server.Config{MaxInflight: 4, QueueDepth: 256, Tenants: cfg})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Drain()
	})
	createArrayHTTP(t, hs.URL, "A", 64, 64)
	return hs.URL
}

// startCluster stands up the router+3-node plane with the same tenant
// policy pushed to the router and every node — identity propagates on
// the fan-out, so node-side admission sees the router's tenant.
func startCluster(t *testing.T, cfg server.TenantConfig) string {
	t.Helper()
	// Node admission (2 slots) is deliberately narrow: contention must
	// queue in the DRR plane, where the weights govern, not in the
	// engine behind it.
	lc, err := cluster.NewLocal(cluster.LocalOptions{
		Nodes: 3, Replicas: 2, TileDim: 8, CacheTiles: 32,
		MaxInflight: 2, QueueDepth: 256, Tenants: cfg,
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
	start func(t *testing.T, cfg server.TenantConfig) string
} {
	return []struct {
		name  string
		start func(t *testing.T, cfg server.TenantConfig) string
	}{
		{"occd", startSingle},
		{"router+3-node", startCluster},
	}
}

func pointSpec(base string) server.LoadSpec {
	return server.LoadSpec{
		BaseURL: base, Array: "A", Dims: []int64{64, 64}, TileEdge: 8,
		Clients: 4, Requests: 400, ZipfS: 1.1, ReadFrac: 1,
		Seed: 42, Tenant: "point",
	}
}

// TestFairnessIsolation replays the seeded two-tenant mix — an
// aggressive streaming scanner against an interactive point-GET
// tenant — on each plane and holds the headline bound: the point
// tenant's contended p99 stays within 2x its solo p99. One retry
// absorbs scheduler noise (sub-millisecond solo tails are jitter-
// dominated, especially under -race); a real fairness regression —
// scan chunk trains monopolizing the admission pool — fails both
// attempts by an order of magnitude, not a factor of two.
func TestFairnessIsolation(t *testing.T) {
	for _, plane := range fairnessPlanes() {
		t.Run(plane.name, func(t *testing.T) {
			base := plane.start(t, fairnessConfig())
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
				scanSpec.Tenant = "scan"
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
					t.Fatalf("contended pass starved a tenant: point OK %d, scan OK %d",
						contended.OK, scanRes.OK)
				}
				if scanRes.ScanChunks == 0 {
					t.Fatalf("scan tenant streamed no chunks; the mix is not exercising scans")
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
				t.Errorf("%s: scan tenant degraded the point tenant past the 2x bound: %s",
					plane.name, lastErr)
			}
		})
	}
}

// TestDRRSharesConverge pins the weighted shares end to end: two point
// populations with weights 3:1 hammer a single admission slot, and the
// moment the weighted tenant finishes its fixed demand, the lighter
// tenant must have been granted roughly a third as many admissions —
// the DRR ring alternating gold,gold,gold,bronze while both queues
// stay occupied. (The per-grant schedule itself is pinned exactly by
// TestDRRGrantShares; this checks the whole HTTP stack converges to
// the same shares.)
func TestDRRSharesConverge(t *testing.T) {
	// Reads cost ~1ms against a tiny cache: service is slow enough
	// that both tenants keep waiters parked for the whole run, which
	// is the regime where DRR shares are defined.
	d := ooc.NewDisk(0)
	d.WrapBackend(func(name string, b ooc.Backend) ooc.Backend {
		return slowBackend{Backend: b, delay: time.Millisecond}
	})
	eng := ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 2})
	srv := server.New(d, eng, server.Config{
		MaxInflight: 1, QueueDepth: 256,
		Tenants: server.TenantConfig{Weights: map[string]float64{"gold": 3, "bronze": 1}},
	})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Drain()
	})
	createArrayHTTP(t, hs.URL, "A", 64, 64)

	spec := func(tenant string) server.LoadSpec {
		return server.LoadSpec{
			BaseURL: hs.URL, Array: "A", Dims: []int64{64, 64}, TileEdge: 8,
			Clients: 6, Requests: 400, ReadFrac: 1, // uniform tile choice: mostly cache misses
			Seed: 1, Tenant: tenant,
		}
	}
	var bronzeAtGoldFinish int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := server.RunLoad(spec("bronze")); err != nil {
			t.Error(err)
		}
	}()
	if _, err := server.RunLoad(spec("gold")); err != nil {
		t.Fatal(err)
	}
	// Gold just drained its demand: snapshot bronze's grant count now
	// (/v1/stats bypasses admission, so the read is immediate).
	for _, st := range tenantStats(t, hs.URL) {
		if st.Tenant == "bronze" {
			bronzeAtGoldFinish = st.Requests
		}
	}
	wg.Wait()

	// Expected share while both queues are saturated: bronze gets 1
	// grant per 3 of gold's, so ~133 of gold's 400. Wide tolerance —
	// closed-loop clients leave sub-millisecond queue gaps — but well
	// inside "unweighted" (400) and "starved" (0).
	if bronzeAtGoldFinish < 50 || bronzeAtGoldFinish > 270 {
		t.Errorf("bronze had %d grants when gold finished its 400, want ~133 for weights 3:1",
			bronzeAtGoldFinish)
	}
}

// tenantStats reads the per-tenant scorecard from /v1/stats.
func tenantStats(t *testing.T, base string) []server.TenantStat {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Tenants []server.TenantStat `json:"tenants"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Tenants
}

// TestByteAccountingExact holds the quota meter to exactness over HTTP
// on all three planes: every admitted point op moves one full 8x8 tile
// (512 bytes), so the tenant's metered bytes must equal OK*512 — no
// rounding, no double counting on the router's fan-out, no leakage
// from failed requests.
func TestByteAccountingExact(t *testing.T) {
	for _, plane := range fairnessPlanes() {
		t.Run(plane.name, func(t *testing.T) {
			base := plane.start(t, server.TenantConfig{})
			spec := server.LoadSpec{
				BaseURL: base, Array: "A", Dims: []int64{64, 64}, TileEdge: 8,
				Clients: 4, Requests: 300, ZipfS: 1.1, ReadFrac: 0.5,
				Seed: 9, Tenant: "meter",
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
			var got int64 = -1
			for _, st := range tenantStats(t, base) {
				if st.Tenant == "meter" {
					got = st.Bytes
				}
			}
			if got != want {
				t.Errorf("tenant bytes metered = %d, admitted = %d (%d OK x 512B): accounting drifted",
					got, want, res.OK)
			}
		})
	}
}

// TestByteAccountingProperty property-tests the meter itself: for any
// interleaving of debits across any tenants, the per-tenant byte
// counters must equal the exact sums fed in — the counter and the
// quota bucket move under one lock, so concurrency cannot skew them.
func TestByteAccountingProperty(t *testing.T) {
	prop := func(ops []struct {
		T uint8
		N uint16
	}) bool {
		p := server.NewTenantPlane(server.TenantPlaneOpts{
			Config: server.TenantConfig{QuotaBytesPerSec: 1e12},
		})
		want := map[string]int64{}
		for _, op := range ops {
			want[fmt.Sprintf("q%d", op.T%8)] += int64(op.N)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(ops); i += 4 {
					p.DebitBytes(fmt.Sprintf("q%d", ops[i].T%8), int64(ops[i].N))
				}
			}(g)
		}
		wg.Wait()
		got := map[string]int64{}
		for _, st := range p.Stats() {
			got[st.Tenant] = st.Bytes
		}
		for id, n := range want {
			if got[id] != n {
				t.Logf("tenant %s: metered %d, debited %d", id, got[id], n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuotaRetryAfterHTTP closes the loop on the 429 surface: a tenant
// over its request quota gets 429 with a Retry-After it can actually
// honor, on the single server and through the router alike.
func TestQuotaRetryAfterHTTP(t *testing.T) {
	// 5 rps leaves headroom for the (untenanted) array-create traffic
	// — on the cluster plane the router fans creation out to every
	// node under the same policy — while the greedy loop below burns
	// through the burst in well under a second.
	cfg := server.TenantConfig{QuotaRPS: 5}
	for _, plane := range fairnessPlanes() {
		t.Run(plane.name, func(t *testing.T) {
			base := plane.start(t, cfg)
			var rejected int
			var retryAfter string
			deadline := time.Now().Add(5 * time.Second)
			for rejected == 0 && time.Now().Before(deadline) {
				req, _ := http.NewRequest(http.MethodGet, base+"/v1/arrays/A/tile?lo=0,0&hi=8,8", nil)
				req.Header.Set(server.TenantHeader, "greedy")
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode == http.StatusTooManyRequests {
					rejected++
					retryAfter = resp.Header.Get("Retry-After")
				}
				resp.Body.Close()
			}
			if rejected == 0 {
				t.Fatal("quota of 1 rps never produced a 429")
			}
			if retryAfter == "" {
				t.Error("429 carried no Retry-After header")
			}
		})
	}
}
