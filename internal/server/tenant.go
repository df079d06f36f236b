package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"outcore/internal/obs"
)

// Tenant identity. Every request belongs to exactly one tenant: the
// X-Tenant header when present, else a /t/<id>/ path prefix, else
// DefaultTenant. The default tenant is the backward-compatible lane —
// untenanted traffic is admitted and scheduled like any other tenant
// but is kept out of the per-tenant scorecards and metric families, so
// single-tenant deployments see no new surface.
const (
	// TenantHeader names the request's tenant.
	TenantHeader = "X-Tenant"
	// DefaultTenant is the identity of untenanted traffic.
	DefaultTenant = "default"

	maxTenantIDLen = 64
	// maxTenantStates bounds the per-tenant bookkeeping; beyond it new
	// identities fold into one shared overflow bucket so an id-spraying
	// client cannot grow server memory without bound.
	maxTenantStates = 512
	// overflowTenant is deliberately outside the valid id charset so it
	// can never collide with a real tenant.
	overflowTenant = "~other"
)

// ValidateTenantID rejects ids that are empty, overlong, or carry
// bytes outside [A-Za-z0-9._-] — the charset keeps ids safe as metric
// labels, path segments, and log fields.
func ValidateTenantID(id string) error {
	if id == "" {
		return errors.New("empty tenant id")
	}
	if len(id) > maxTenantIDLen {
		return fmt.Errorf("tenant id is %d bytes, max %d", len(id), maxTenantIDLen)
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("tenant id byte %q at offset %d (valid: [A-Za-z0-9._-])", c, i)
		}
	}
	return nil
}

// ResolveTenant extracts the request's tenant identity and the path
// the route table should see. The X-Tenant header wins over a
// /t/<id>/ path prefix; both are validated whenever present, so a
// malformed id in either place is a 400 even when the other would
// have resolved. The path prefix is stripped regardless of which
// source won — /t/alpha/v1/stats with X-Tenant: beta is beta asking
// for /v1/stats.
func ResolveTenant(r *http.Request) (tenant, path string, err error) {
	path = r.URL.Path
	var pathTenant string
	if rest, ok := strings.CutPrefix(path, "/t/"); ok {
		id, tail, _ := strings.Cut(rest, "/")
		if err := ValidateTenantID(id); err != nil {
			return "", "", fmt.Errorf("path tenant: %w", err)
		}
		pathTenant = id
		path = "/" + tail
	}
	if h := r.Header.Get(TenantHeader); h != "" {
		if err := ValidateTenantID(h); err != nil {
			return "", "", fmt.Errorf("%s: %w", TenantHeader, err)
		}
		return h, path, nil
	}
	if pathTenant != "" {
		return pathTenant, path, nil
	}
	return DefaultTenant, path, nil
}

type tenantCtxKey struct{}

// TenantOf returns the tenant identity TenantHandler resolved for
// this request, or DefaultTenant when the request never passed
// through the tenant plane (direct mux tests, internal probes).
func TenantOf(r *http.Request) string { return TenantFrom(r.Context()) }

// TenantFrom is TenantOf for a request's context — what a Plane sees.
func TenantFrom(ctx context.Context) string {
	if t, ok := ctx.Value(tenantCtxKey{}).(string); ok && t != "" {
		return t
	}
	return DefaultTenant
}

// TenantHandler is the outermost layer of both occd's and occrouter's
// handler stacks: it resolves the tenant (400 on a malformed id),
// strips the /t/<id>/ path prefix, and stashes the identity in the
// request context for admission, quota accounting, and fan-out.
func TenantHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tenant, path, err := ResolveTenant(r)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad tenant: %v", err)
			return
		}
		r2 := r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, tenant))
		if path != r.URL.Path {
			u := *r2.URL
			u.Path = path
			u.RawPath = ""
			r2.URL = &u
		}
		next.ServeHTTP(w, r2)
	})
}

// ParseTenantWeights parses a -tenant-weights value like
// "alpha=3,beta=1" into a DRR weight map. Unlisted tenants weigh 1.
func ParseTenantWeights(s string) (map[string]float64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad entry %q (want tenant=weight)", part)
		}
		id = strings.TrimSpace(id)
		if err := ValidateTenantID(id); err != nil {
			return nil, err
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
			return nil, fmt.Errorf("bad weight for tenant %s: %q (want a positive number)", id, val)
		}
		out[id] = w
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// TenantConfig groups the tenant-plane knobs occd and occrouter share.
// The zero value disables quotas and chunk caps and weighs every
// tenant equally — exactly the pre-tenant behavior.
type TenantConfig struct {
	// Weights are the DRR service shares; a tenant with weight 3 is
	// granted admission slots 3x as often as a weight-1 tenant when
	// both have waiters queued. Unlisted tenants weigh 1.
	Weights map[string]float64
	// QuotaBytesPerSec is each tenant's sustained payload-byte budget
	// (0 = unlimited). Byte accounting is post-paid: a request is
	// admitted while the bucket is positive and the bytes it actually
	// moved are debited afterwards, so the bucket can briefly go
	// negative but admitted bytes always equal metered bytes.
	QuotaBytesPerSec float64
	// QuotaRPS is each tenant's sustained request budget (0 = unlimited).
	QuotaRPS float64
	// MaxScanInflight caps the scan/batch chunks a tenant may have in
	// the engine at once (0 = unlimited), so one streaming scan cannot
	// occupy every data-plane slot while point tenants wait.
	MaxScanInflight int
}

// TenantPlaneOpts wires a TenantPlane into a serving stack.
type TenantPlaneOpts struct {
	Config TenantConfig
	// MetricPrefix names the labeled families: "occd" registers
	// occd_tenant_*, "occrouter" registers occrouter_tenant_*.
	MetricPrefix string
	// Reg receives the per-tenant metric families (nil = none).
	Reg *obs.Registry
	// Pool is the shared admission-slot pool (cap = max inflight). The
	// plane never closes or resizes it; Drain's fill-to-capacity
	// barrier keeps working unchanged. nil = admission unbounded.
	Pool chan struct{}
	// QueueDepth bounds the total waiters across all tenant queues.
	QueueDepth int
	// Clock is the quota clock (nil = time.Now); tests freeze it.
	Clock func() time.Time
	// Inflight, when set, tracks len(Pool) across acquires/releases.
	Inflight *obs.Gauge
}

// TenantPlane is the per-tenant scheduling and accounting layer:
// token-bucket request/byte quotas answering 429 + Retry-After, and —
// replacing the old single FIFO wait queue — per-tenant admission
// queues drained by deficit round-robin over configured weights, with
// an optional per-tenant cap on in-flight scan/batch chunks. One
// plane serves one daemon; occd and occrouter each own one.
type TenantPlane struct {
	cfg    TenantConfig
	prefix string
	reg    *obs.Registry
	// noreg absorbs the default tenant's counters so the accounting
	// code paths stay uniform without publishing a "default" series.
	noreg    *obs.Registry
	pool     chan struct{}
	depth    int
	now      func() time.Time
	inflight *obs.Gauge

	queued atomic.Int64 // waiters across all tenant queues

	mu      sync.Mutex
	closed  bool // FailWaiters ran; no new waiters, no handoffs
	states  map[string]*tenantState
	ring    []*tenantState // active DRR ring: tenants with waiters
	ringIdx int
}

type tenantState struct {
	id      string
	weight  float64
	deficit float64
	inRing  bool
	waiters []*tenantWaiter

	// Token buckets (guarded by the plane mutex). byteTokens may go
	// negative: bytes are debited after the transfer they paid for.
	reqTokens  float64
	byteTokens float64
	lastRefill time.Time

	// chunkSem caps in-flight scan/batch chunks (nil = unlimited).
	chunkSem chan struct{}

	requests   *obs.Counter
	bytes      *obs.Counter
	rejected   *obs.Counter
	queueWaits *obs.Counter
	chunks     *obs.Counter
}

// tenantWaiter is one queued admission. res carries the verdict:
// true hands the waiter an admission slot (the releaser's slot moves
// to it without ever re-entering the pool, so a racing request cannot
// barge past the queue), false means the plane is draining.
type tenantWaiter struct {
	ts       *tenantState
	res      chan bool
	resolved bool // popped from its queue; res will carry a verdict
}

// NewTenantPlane builds the plane and eagerly registers the metric
// families of every explicitly weighted tenant, so dashboards and
// goldens see the families before the first request lands.
func NewTenantPlane(o TenantPlaneOpts) *TenantPlane {
	p := &TenantPlane{
		cfg:      o.Config,
		prefix:   o.MetricPrefix,
		reg:      o.Reg,
		noreg:    obs.NewRegistry(),
		pool:     o.Pool,
		depth:    o.QueueDepth,
		now:      o.Clock,
		inflight: o.Inflight,
		states:   map[string]*tenantState{},
	}
	if p.prefix == "" {
		p.prefix = "occd"
	}
	if p.now == nil {
		p.now = time.Now
	}
	if p.depth <= 0 {
		p.depth = 64
	}
	ids := make([]string, 0, len(p.cfg.Weights))
	for id := range p.cfg.Weights {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	p.mu.Lock()
	for _, id := range ids {
		p.stateLocked(id)
	}
	p.mu.Unlock()
	return p
}

func (p *TenantPlane) weightOf(id string) float64 {
	if w, ok := p.cfg.Weights[id]; ok && w > 0 {
		return w
	}
	return 1
}

func (p *TenantPlane) reqBurst() float64 { return math.Max(p.cfg.QuotaRPS, 1) }

func (p *TenantPlane) byteBurst() float64 { return p.cfg.QuotaBytesPerSec }

func (p *TenantPlane) stateLocked(id string) *tenantState {
	if ts, ok := p.states[id]; ok {
		return ts
	}
	if len(p.states) >= maxTenantStates && id != overflowTenant {
		return p.stateLocked(overflowTenant)
	}
	ts := &tenantState{
		id:         id,
		weight:     p.weightOf(id),
		reqTokens:  p.reqBurst(),
		byteTokens: p.byteBurst(),
		lastRefill: p.now(),
	}
	if p.cfg.MaxScanInflight > 0 {
		ts.chunkSem = make(chan struct{}, p.cfg.MaxScanInflight)
	}
	reg := p.reg
	if id == DefaultTenant || reg == nil {
		reg = p.noreg
	}
	label := fmt.Sprintf("{tenant=%q}", id)
	ts.requests = reg.Counter(p.prefix+"_tenant_requests_total"+label,
		"requests admitted for this tenant")
	ts.bytes = reg.Counter(p.prefix+"_tenant_bytes_total"+label,
		"logical tile payload bytes moved for this tenant (the byte-quota meter)")
	ts.rejected = reg.Counter(p.prefix+"_tenant_rejected_quota_total"+label,
		"requests answered 429 by this tenant's request/byte quota")
	ts.queueWaits = reg.Counter(p.prefix+"_tenant_queue_waits_total"+label,
		"admissions that waited in this tenant's DRR queue")
	ts.chunks = reg.Counter(p.prefix+"_tenant_chunks_total"+label,
		"scan/batch chunks processed for this tenant")
	p.states[id] = ts
	return ts
}

func (p *TenantPlane) refillLocked(ts *tenantState) {
	now := p.now()
	dt := now.Sub(ts.lastRefill).Seconds()
	ts.lastRefill = now
	if dt <= 0 {
		return
	}
	if p.cfg.QuotaRPS > 0 {
		ts.reqTokens = math.Min(ts.reqTokens+dt*p.cfg.QuotaRPS, p.reqBurst())
	}
	if p.cfg.QuotaBytesPerSec > 0 {
		ts.byteTokens = math.Min(ts.byteTokens+dt*p.cfg.QuotaBytesPerSec, p.byteBurst())
	}
}

// tokenDelay is how long a bucket refilling at rate/sec needs to grow
// by `need` tokens — the Retry-After hint.
func tokenDelay(need, rate float64) time.Duration {
	return time.Duration(need / rate * float64(time.Second))
}

// Allow answers whether tenant may spend one request right now. A
// false verdict carries the Retry-After the 429 should advertise.
func (p *TenantPlane) Allow(tenant string) (bool, time.Duration) {
	if p.cfg.QuotaRPS <= 0 && p.cfg.QuotaBytesPerSec <= 0 {
		return true, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ts := p.stateLocked(tenant)
	p.refillLocked(ts)
	var retry time.Duration
	if p.cfg.QuotaRPS > 0 && ts.reqTokens < 1 {
		retry = tokenDelay(1-ts.reqTokens, p.cfg.QuotaRPS)
	}
	if p.cfg.QuotaBytesPerSec > 0 && ts.byteTokens < 1 {
		if d := tokenDelay(1-ts.byteTokens, p.cfg.QuotaBytesPerSec); d > retry {
			retry = d
		}
	}
	if retry > 0 {
		ts.rejected.Inc()
		return false, retry
	}
	if p.cfg.QuotaRPS > 0 {
		ts.reqTokens--
	}
	return true, 0
}

// DebitBytes meters n payload bytes against tenant: the labeled bytes
// counter and the byte-quota bucket move together under one lock, so
// bytes admitted and bytes metered cannot diverge (the invariant the
// fairness suite property-tests).
func (p *TenantPlane) DebitBytes(tenant string, n int64) {
	if n < 0 {
		return
	}
	p.mu.Lock()
	ts := p.stateLocked(tenant)
	ts.bytes.Add(n)
	if p.cfg.QuotaBytesPerSec > 0 {
		p.refillLocked(ts)
		ts.byteTokens -= float64(n)
	}
	p.mu.Unlock()
}

// Acquire claims one admission slot for tenant. When the pool is
// saturated the request waits in its tenant's queue and the queues
// are drained by deficit round-robin over the configured weights —
// a releasing request hands its slot directly to the chosen waiter,
// so the pool stays full while anyone is queued and new arrivals
// cannot barge. ok=false (queue full, plane draining, or the caller's
// context cancelled) means answer 503. release must be called exactly
// once per successful Acquire; calling it more than once is safe.
func (p *TenantPlane) Acquire(r *http.Request, tenant string) (release func(), ok bool) {
	if p.pool == nil {
		return func() {}, true
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false
	}
	ts := p.stateLocked(tenant)
	if p.queued.Load() == 0 {
		select {
		case p.pool <- struct{}{}:
			ts.requests.Inc()
			p.setInflightLocked()
			p.mu.Unlock()
			return p.releaseFunc(), true
		default:
		}
	}
	if p.queued.Load() >= int64(p.depth) {
		p.mu.Unlock()
		return nil, false
	}
	w := &tenantWaiter{ts: ts, res: make(chan bool, 1)}
	ts.waiters = append(ts.waiters, w)
	if !ts.inRing {
		ts.inRing = true
		p.ring = append(p.ring, ts)
	}
	p.queued.Add(1)
	ts.queueWaits.Inc()
	p.mu.Unlock()

	select {
	case granted := <-w.res:
		if !granted {
			return nil, false
		}
		p.mu.Lock()
		ts.requests.Inc()
		p.mu.Unlock()
		return p.releaseFunc(), true
	case <-r.Context().Done():
		p.mu.Lock()
		if w.resolved {
			// The grant raced the cancel. The slot is ours; pass it
			// on (or free it) instead of leaking it.
			p.mu.Unlock()
			if granted := <-w.res; granted {
				p.release()
			}
			return nil, false
		}
		p.removeWaiterLocked(w)
		p.mu.Unlock()
		return nil, false
	}
}

func (p *TenantPlane) releaseFunc() func() {
	var once sync.Once
	return func() { once.Do(p.release) }
}

func (p *TenantPlane) release() {
	p.mu.Lock()
	if !p.closed {
		if w, ok := p.nextLocked(); ok {
			// Slot handoff: the token stays in the pool and the
			// waiter inherits it.
			p.setInflightLocked()
			p.mu.Unlock()
			w.res <- true
			return
		}
	}
	select {
	case <-p.pool:
	default:
		// Unreachable while every release pairs an acquired slot;
		// guarded so a broken invariant degrades instead of deadlocks.
	}
	p.setInflightLocked()
	p.mu.Unlock()
}

// nextLocked runs the DRR scan: walk the active ring, topping up each
// queue's deficit by its weight as the ring pointer passes, and pop
// the head of the first queue whose deficit covers one admission.
func (p *TenantPlane) nextLocked() (*tenantWaiter, bool) {
	for len(p.ring) > 0 {
		if p.ringIdx >= len(p.ring) {
			p.ringIdx = 0
		}
		ts := p.ring[p.ringIdx]
		if len(ts.waiters) == 0 {
			p.dropRingLocked(p.ringIdx)
			continue
		}
		if ts.deficit < 1 {
			p.ringIdx++
			if p.ringIdx >= len(p.ring) {
				p.ringIdx = 0
			}
			next := p.ring[p.ringIdx]
			next.deficit += next.weight
			continue
		}
		ts.deficit--
		w := ts.waiters[0]
		ts.waiters = ts.waiters[1:]
		p.queued.Add(-1)
		w.resolved = true
		if len(ts.waiters) == 0 {
			p.dropRingLocked(p.ringIdx)
		}
		return w, true
	}
	return nil, false
}

// dropRingLocked retires ring[i] (its queue emptied); the deficit
// resets so a tenant cannot bank credit across idle periods.
func (p *TenantPlane) dropRingLocked(i int) {
	ts := p.ring[i]
	ts.inRing = false
	ts.deficit = 0
	p.ring = append(p.ring[:i], p.ring[i+1:]...)
	if p.ringIdx > i {
		p.ringIdx--
	}
	if p.ringIdx >= len(p.ring) {
		p.ringIdx = 0
	}
}

func (p *TenantPlane) removeWaiterLocked(w *tenantWaiter) {
	ts := w.ts
	for i, x := range ts.waiters {
		if x == w {
			ts.waiters = append(ts.waiters[:i], ts.waiters[i+1:]...)
			p.queued.Add(-1)
			break
		}
	}
	if len(ts.waiters) == 0 && ts.inRing {
		for i, q := range p.ring {
			if q == ts {
				p.dropRingLocked(i)
				break
			}
		}
	}
}

// FailWaiters flushes every queued admission with a drain verdict and
// stops future enqueues and handoffs. Drain calls it before filling
// the pool, so the fill-to-capacity barrier cannot deadlock against
// parked waiters and no queue slot outlives the drain.
func (p *TenantPlane) FailWaiters() {
	p.mu.Lock()
	p.closed = true
	var failed []*tenantWaiter
	for _, ts := range p.states {
		for _, w := range ts.waiters {
			w.resolved = true
			failed = append(failed, w)
		}
		ts.waiters = nil
		ts.inRing = false
		ts.deficit = 0
	}
	p.ring = nil
	p.ringIdx = 0
	p.queued.Store(0)
	p.mu.Unlock()
	for _, w := range failed {
		w.res <- false
	}
}

type admissionReleaseKey struct{}

// offerAdmissionRelease stashes a streaming request's slot release on
// the context its plane calls run under — but only when the plane has
// a chunk cap, because the per-chunk slots then pace the stream.
// Without a cap there is no other bound on stream concurrency, so the
// slot stays held for the stream's whole life.
func (p *TenantPlane) offerAdmissionRelease(ctx context.Context, release func()) context.Context {
	if p.cfg.MaxScanInflight <= 0 {
		return ctx
	}
	return context.WithValue(ctx, admissionReleaseKey{}, release)
}

// ReleaseAdmissionEarly hands back the admission slot of the paced
// stream ctx belongs to, if it offered one; otherwise it does nothing.
// A Plane calls it when the slot protects nothing of its own: the
// router holds no engine, so once a stream pays per chunk its slot
// would only stall point requests behind a resource DRR never sees
// (DRR balances admission grants, not hold times). occd's plane never
// calls it — Drain's barrier counts on a slot outliving its handler's
// engine work.
func ReleaseAdmissionEarly(ctx context.Context) {
	if release, ok := ctx.Value(admissionReleaseKey{}).(func()); ok {
		release()
	}
}

// AcquireChunk claims one of the tenant's in-flight chunk slots — the
// cap that stops a streaming scan's chunk train from occupying every
// data-plane slot at once. ok=false means the caller's context was
// cancelled while waiting; the chunk tally still counts the attempt.
func (p *TenantPlane) AcquireChunk(ctx context.Context, tenant string) (release func(), ok bool) {
	p.mu.Lock()
	ts := p.stateLocked(tenant)
	ts.chunks.Inc()
	sem := ts.chunkSem
	p.mu.Unlock()
	if sem == nil {
		return func() {}, true
	}
	select {
	case sem <- struct{}{}:
		var once sync.Once
		return func() { once.Do(func() { <-sem }) }, true
	case <-ctx.Done():
		return nil, false
	}
}

func (p *TenantPlane) setInflightLocked() {
	if p.inflight != nil {
		p.inflight.Set(float64(len(p.pool)))
	}
}

// Queued is the total waiters parked across all tenant queues.
func (p *TenantPlane) Queued() int64 { return p.queued.Load() }

// TenantStat is one tenant's /v1/stats scorecard row.
type TenantStat struct {
	Tenant        string  `json:"tenant"`
	Weight        float64 `json:"weight"`
	Requests      int64   `json:"requests"`
	Bytes         int64   `json:"bytes"`
	RejectedQuota int64   `json:"rejected_quota"`
	QueueWaits    int64   `json:"queue_waits"`
	Chunks        int64   `json:"chunks"`
	Queued        int     `json:"queued"`
}

// Stats renders the per-tenant scorecard, sorted by tenant id. The
// default tenant is omitted: untenanted deployments keep their
// pre-tenant stats shape.
func (p *TenantPlane) Stats() []TenantStat {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]TenantStat, 0, len(p.states))
	for id, ts := range p.states {
		if id == DefaultTenant {
			continue
		}
		out = append(out, TenantStat{
			Tenant:        id,
			Weight:        ts.weight,
			Requests:      ts.requests.Value(),
			Bytes:         ts.bytes.Value(),
			RejectedQuota: ts.rejected.Value(),
			QueueWaits:    ts.queueWaits.Value(),
			Chunks:        ts.chunks.Value(),
			Queued:        len(ts.waiters),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
