package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"outcore/internal/server"
)

// TestRouterTenantQuota429 pins the router's quota verdict: an
// over-budget tenant gets 429 with a whole-seconds Retry-After, and a
// different tenant's bucket is untouched by the hog's spending.
func TestRouterTenantQuota429(t *testing.T) {
	lc, err := NewLocal(LocalOptions{
		Nodes:    2,
		Replicas: 1,
		TileDim:  4,
		Tenants:  server.TenantConfig{QuotaRPS: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.CreateArray("A", 8, 8); err != nil {
		t.Fatal(err)
	}

	get := func(tenant string) *http.Response {
		req, err := http.NewRequest(http.MethodGet,
			lc.RouterURL+"/v1/arrays/A/tile?lo=0,0&hi=4,4", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(server.TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	var limited *http.Response
	for i := 0; i < 10; i++ {
		if resp := get("hog"); resp.StatusCode == http.StatusTooManyRequests {
			limited = resp
			break
		}
	}
	if limited == nil {
		t.Fatal("10 rapid requests never tripped the 2 rps quota")
	}
	secs, err := strconv.Atoi(limited.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("429 Retry-After = %q, want whole seconds >= 1",
			limited.Header.Get("Retry-After"))
	}
	if resp := get("calm"); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh tenant got %d after another tenant's 429; quotas must be per tenant",
			resp.StatusCode)
	}
}

// TestRouterScanReleasesAdmissionEarly pins the streaming-scan slot
// discipline: with a chunk cap configured, the router's scan handler
// hands its admission slot back BEFORE the chunk loop, so a pool-of-1
// router shows zero held slots while a scan stream is still open —
// the stream pays per chunk, and point tenants never queue behind a
// resource DRR cannot see.
func TestRouterScanReleasesAdmissionEarly(t *testing.T) {
	lc, err := NewLocal(LocalOptions{
		Nodes:    2,
		Replicas: 1,
		TileDim:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.CreateArray("A", 16, 16); err != nil {
		t.Fatal(err)
	}

	// A second router over the same nodes, with a one-slot pool and the
	// chunk cap on; it recovers the array catalog from the nodes at
	// construction.
	r, err := NewRouter(Options{
		Nodes:       lc.clients,
		Replicas:    1,
		TileDim:     4,
		MaxInflight: 1,
		Tenants: server.TenantConfig{
			Weights:         map[string]float64{"point": 4, "scan": 1},
			MaxScanInflight: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Drain()
	hts := httptest.NewServer(r.Handler())
	defer hts.Close()

	req, err := http.NewRequest(http.MethodGet,
		hts.URL+"/v1/arrays/A/scan?lo=0,0&hi=16,16&chunk=16", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(server.TenantHeader, "scan")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scan: status %d", resp.StatusCode)
	}
	sr := server.NewScanReader(resp.Body)
	if _, err := sr.Next(); err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	// The first chunk is only written after the handler released its
	// admission slot, so observing the chunk means the one-slot pool
	// must already be empty — stream still open.
	var st struct {
		Inflight int64 `json:"inflight"`
	}
	if err := NewNodeClient("router", hts.URL).Stats(&st); err != nil {
		t.Fatal(err)
	}
	if st.Inflight != 0 {
		t.Errorf("scan stream holds %d admission slots mid-stream; the chunk cap should pay per chunk instead", st.Inflight)
	}
	chunks := 1
	for {
		if _, err := sr.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("chunk %d: %v", chunks, err)
		}
		chunks++
	}
	if chunks < 2 {
		t.Fatalf("scan delivered %d chunks; want a multi-chunk stream", chunks)
	}
}

// TestRouterHealthzAndCatalog covers the router's liveness and
// catalog listing endpoints.
func TestRouterHealthzAndCatalog(t *testing.T) {
	lc, err := NewLocal(LocalOptions{Nodes: 2, Replicas: 1, TileDim: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if err := lc.CreateArray("A", 8, 8); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(lc.RouterURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	resp, err = http.Get(lc.RouterURL + "/v1/arrays")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("array list: %d", resp.StatusCode)
	}
	if len(body) == 0 {
		t.Fatal("array list: empty body")
	}
}
