package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestValidateTenantID(t *testing.T) {
	for _, id := range []string{"a", "alpha", "A-1_b.c", strings.Repeat("x", 64)} {
		if err := ValidateTenantID(id); err != nil {
			t.Errorf("ValidateTenantID(%q) = %v, want ok", id, err)
		}
	}
	for _, id := range []string{"", strings.Repeat("x", 65), "a b", "a/b", "a\x00b", "ü", "~other", "a\nb"} {
		if err := ValidateTenantID(id); err == nil {
			t.Errorf("ValidateTenantID(%q) = nil, want error", id)
		}
	}
}

func TestResolveTenant(t *testing.T) {
	cases := []struct {
		name, header, path string
		wantTenant         string
		wantPath           string
		wantErr            bool
	}{
		{"untenanted", "", "/v1/stats", DefaultTenant, "/v1/stats", false},
		{"header only", "alpha", "/v1/stats", "alpha", "/v1/stats", false},
		{"path only", "", "/t/beta/v1/stats", "beta", "/v1/stats", false},
		{"header wins over path", "alpha", "/t/beta/v1/stats", "alpha", "/v1/stats", false},
		{"bad header", "a b", "/v1/stats", "", "", true},
		{"bad path id", "", "/t/a b/v1/stats", "", "", true},
		// Both present, path malformed: still a 400 even though the
		// header alone would have resolved — a malformed id anywhere
		// is a client bug worth surfacing.
		{"bad path id under valid header", "alpha", "/t//v1/stats", "", "", true},
		{"bare /t/<id>", "", "/t/gamma", "gamma", "/", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodGet, "/", nil)
			req.URL.Path = tc.path
			if tc.header != "" {
				req.Header.Set(TenantHeader, tc.header)
			}
			tenant, path, err := ResolveTenant(req)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("ResolveTenant(%q, %q) = %q, want error", tc.header, tc.path, tenant)
				}
				return
			}
			if err != nil {
				t.Fatalf("ResolveTenant(%q, %q): %v", tc.header, tc.path, err)
			}
			if tenant != tc.wantTenant || path != tc.wantPath {
				t.Errorf("ResolveTenant(%q, %q) = (%q, %q), want (%q, %q)",
					tc.header, tc.path, tenant, path, tc.wantTenant, tc.wantPath)
			}
		})
	}
}

func TestTenantHandler(t *testing.T) {
	var gotTenant, gotPath string
	h := TenantHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTenant, gotPath = TenantOf(r), r.URL.Path
	}))

	req := httptest.NewRequest(http.MethodGet, "/t/beta/v1/arrays", nil)
	req.Header.Set(TenantHeader, "alpha")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || gotTenant != "alpha" || gotPath != "/v1/arrays" {
		t.Errorf("header+path: code %d tenant %q path %q, want 200 alpha /v1/arrays",
			rec.Code, gotTenant, gotPath)
	}

	req = httptest.NewRequest(http.MethodGet, "/v1/arrays", nil)
	req.Header.Set(TenantHeader, strings.Repeat("x", 65))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("overlong header: code %d, want 400", rec.Code)
	}
}

func TestTenantOfWithoutHandler(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	if got := TenantOf(req); got != DefaultTenant {
		t.Errorf("TenantOf without TenantHandler = %q, want %q", got, DefaultTenant)
	}
}

func TestParseTenantWeights(t *testing.T) {
	w, err := ParseTenantWeights(" alpha=3, beta=0.5 ,,")
	if err != nil || w["alpha"] != 3 || w["beta"] != 0.5 || len(w) != 2 {
		t.Errorf("ParseTenantWeights = %v, %v", w, err)
	}
	if w, err := ParseTenantWeights(""); err != nil || w != nil {
		t.Errorf("empty spec = %v, %v, want nil, nil", w, err)
	}
	for _, bad := range []string{"alpha", "alpha=0", "alpha=-1", "alpha=NaN", "a b=1", "=2"} {
		if _, err := ParseTenantWeights(bad); err == nil {
			t.Errorf("ParseTenantWeights(%q) = nil error, want error", bad)
		}
	}
}

func TestTenantQuotaRPS(t *testing.T) {
	now := time.Unix(1000, 0)
	p := NewTenantPlane(TenantPlaneOpts{
		Config: TenantConfig{QuotaRPS: 2},
		Clock:  func() time.Time { return now },
	})
	for i := 0; i < 2; i++ {
		if ok, _ := p.Allow("a"); !ok {
			t.Fatalf("request %d rejected inside the burst", i)
		}
	}
	ok, retry := p.Allow("a")
	if ok {
		t.Fatal("third request allowed with an empty bucket")
	}
	if retry <= 0 || retry > time.Second {
		t.Errorf("Retry-After = %v, want (0, 1s]", retry)
	}
	now = now.Add(time.Second)
	for i := 0; i < 2; i++ {
		if ok, _ := p.Allow("a"); !ok {
			t.Fatalf("request %d rejected after a 1s refill", i)
		}
	}
	if st := p.Stats(); len(st) != 1 || st[0].RejectedQuota != 1 {
		t.Errorf("tenant scorecard = %+v, want one row with rejected_quota 1", st)
	}
}

func TestTenantQuotaBytesPostpaid(t *testing.T) {
	now := time.Unix(1000, 0)
	p := NewTenantPlane(TenantPlaneOpts{
		Config: TenantConfig{QuotaBytesPerSec: 100},
		Clock:  func() time.Time { return now },
	})
	if ok, _ := p.Allow("a"); !ok {
		t.Fatal("first request rejected with a full byte bucket")
	}
	// Post-paid: the debit lands after the transfer and may overdraw.
	p.DebitBytes("a", 350)
	ok, retry := p.Allow("a")
	if ok {
		t.Fatal("request allowed while the byte bucket is 250 overdrawn")
	}
	// Refilling at 100 B/s from -250 to 1 takes 2.51s.
	if retry < 2500*time.Millisecond || retry > 2520*time.Millisecond {
		t.Errorf("Retry-After = %v, want ~2.51s", retry)
	}
	now = now.Add(3 * time.Second)
	if ok, _ := p.Allow("a"); !ok {
		t.Fatal("request rejected after the bucket refilled")
	}
	st := p.Stats()
	if len(st) != 1 || st[0].Bytes != 350 || st[0].RejectedQuota != 1 {
		t.Errorf("Stats = %+v, want bytes 350, rejected_quota 1", st)
	}
}

// TestDRRGrantShares drives the DRR scan directly (no goroutines, no
// clock): with both queues saturated, a weight-3 tenant must receive
// exactly 3 of every 4 grants.
func TestDRRGrantShares(t *testing.T) {
	p := NewTenantPlane(TenantPlaneOpts{
		Config: TenantConfig{Weights: map[string]float64{"a": 3}},
		Pool:   make(chan struct{}, 1),
	})
	p.mu.Lock()
	for _, id := range []string{"a", "b"} {
		ts := p.stateLocked(id)
		for i := 0; i < 40; i++ {
			ts.waiters = append(ts.waiters, &tenantWaiter{ts: ts, res: make(chan bool, 1)})
		}
		ts.inRing = true
		p.ring = append(p.ring, ts)
		p.queued.Add(40)
	}
	counts := map[string]int{}
	for i := 0; i < 40; i++ {
		w, ok := p.nextLocked()
		if !ok {
			p.mu.Unlock()
			t.Fatalf("grant %d: ring empty with waiters queued", i)
		}
		counts[w.ts.id]++
	}
	p.mu.Unlock()
	if counts["a"] != 30 || counts["b"] != 10 {
		t.Errorf("40 grants split a=%d b=%d, want 30/10 for weights 3:1", counts["a"], counts["b"])
	}
}

func TestAcquireQueueAndHandoff(t *testing.T) {
	p := NewTenantPlane(TenantPlaneOpts{Pool: make(chan struct{}, 1), QueueDepth: 1})
	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	release, ok := p.Acquire(req, "a")
	if !ok {
		t.Fatal("first acquire failed on an empty pool")
	}
	granted := make(chan bool, 1)
	go func() {
		rel, ok := p.Acquire(httptest.NewRequest(http.MethodGet, "/v1/stats", nil), "a")
		if ok {
			rel()
		}
		granted <- ok
	}()
	waitFor(t, func() bool { return p.Queued() == 1 })
	// Queue depth 1 is spent: the next arrival bounces.
	if _, ok := p.Acquire(httptest.NewRequest(http.MethodGet, "/v1/stats", nil), "b"); ok {
		t.Fatal("acquire succeeded past a full queue")
	}
	release()
	if !<-granted {
		t.Fatal("queued waiter was not handed the released slot")
	}
}

func TestAcquireContextCancel(t *testing.T) {
	p := NewTenantPlane(TenantPlaneOpts{Pool: make(chan struct{}, 1), QueueDepth: 8})
	release, _ := p.Acquire(httptest.NewRequest(http.MethodGet, "/v1/stats", nil), "a")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() {
		_, ok := p.Acquire(httptest.NewRequest(http.MethodGet, "/v1/stats", nil).WithContext(ctx), "a")
		done <- ok
	}()
	waitFor(t, func() bool { return p.Queued() == 1 })
	cancel()
	if <-done {
		t.Fatal("cancelled waiter reported a grant")
	}
	if p.Queued() != 0 {
		t.Errorf("queued = %d after cancel, want 0 (slot leak)", p.Queued())
	}
	release()
	// The pool must be whole again.
	rel, ok := p.Acquire(httptest.NewRequest(http.MethodGet, "/v1/stats", nil), "b")
	if !ok {
		t.Fatal("acquire failed after cancel+release; the cancelled waiter leaked the slot")
	}
	rel()
}

func TestFailWaitersFlushesQueues(t *testing.T) {
	p := NewTenantPlane(TenantPlaneOpts{Pool: make(chan struct{}, 1), QueueDepth: 8})
	release, _ := p.Acquire(httptest.NewRequest(http.MethodGet, "/v1/stats", nil), "a")
	done := make(chan bool, 1)
	go func() {
		_, ok := p.Acquire(httptest.NewRequest(http.MethodGet, "/v1/stats", nil), "a")
		done <- ok
	}()
	waitFor(t, func() bool { return p.Queued() == 1 })
	p.FailWaiters()
	if <-done {
		t.Fatal("parked waiter admitted during drain")
	}
	if p.Queued() != 0 {
		t.Errorf("queued = %d after FailWaiters, want 0", p.Queued())
	}
	if _, ok := p.Acquire(httptest.NewRequest(http.MethodGet, "/v1/stats", nil), "b"); ok {
		t.Fatal("acquire succeeded on a closed plane")
	}
	release() // must not hand the slot to anyone or panic
}

// TestTenantOverflowBucket: past maxTenantStates distinct ids, new
// identities fold into the shared overflow bucket instead of growing
// server memory without bound.
func TestTenantOverflowBucket(t *testing.T) {
	p := NewTenantPlane(TenantPlaneOpts{})
	for i := 0; i < maxTenantStates+88; i++ {
		p.DebitBytes("t"+strconv.Itoa(i), 1)
	}
	if len(p.states) != maxTenantStates+1 {
		t.Errorf("states = %d, want %d (cap + overflow bucket)", len(p.states), maxTenantStates+1)
	}
	var overflow *TenantStat
	for _, st := range p.Stats() {
		if st.Tenant == overflowTenant {
			s := st
			overflow = &s
		}
	}
	if overflow == nil || overflow.Bytes != 88 {
		t.Errorf("overflow bucket = %+v, want 88 bytes folded into %q", overflow, overflowTenant)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// FuzzTenantHeader hardens tenant resolution against hostile
// identities: arbitrary header bytes, path-encoded ids, and their
// disagreement must resolve to a valid tenant or a clean 400 — never
// a panic, never an id outside the validated charset.
func FuzzTenantHeader(f *testing.F) {
	f.Add("alpha", "beta", "v1/stats")
	f.Add("", "scan", "v1/arrays/A/tile")
	f.Add("a\x00b", "", "v1/stats")
	f.Add(strings.Repeat("x", 65), "y", "healthz")
	f.Add("..", "-_.", "")
	f.Add("alpha", "t/nested", "t/deeper/v1/stats")
	f.Fuzz(func(t *testing.T, header, pathTenant, tail string) {
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		path := "/" + tail
		if pathTenant != "" {
			path = "/t/" + pathTenant + path
		}
		req.URL.Path = path
		if header != "" {
			req.Header.Set(TenantHeader, header)
		}

		tenant, cleaned, err := ResolveTenant(req)
		if err == nil {
			if tenant != DefaultTenant {
				if verr := ValidateTenantID(tenant); verr != nil {
					t.Fatalf("resolved tenant %q fails validation: %v", tenant, verr)
				}
			}
			// Precedence: a present (and therefore valid) header is
			// always the identity.
			if h := req.Header.Get(TenantHeader); h != "" && tenant != h {
				t.Fatalf("header %q present and valid but tenant = %q", h, tenant)
			}
			if !strings.HasPrefix(cleaned, "/") {
				t.Fatalf("cleaned path %q is not rooted", cleaned)
			}
		}

		rec := httptest.NewRecorder()
		var seen string
		TenantHandler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			seen = TenantOf(r)
		})).ServeHTTP(rec, req)
		if err != nil {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("resolve error %v but handler answered %d, want 400", err, rec.Code)
			}
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("valid tenant %q but handler answered %d", tenant, rec.Code)
		}
		if seen != tenant {
			t.Fatalf("handler saw tenant %q, ResolveTenant said %q", seen, tenant)
		}
	})
}
