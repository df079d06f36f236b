package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"outcore/internal/layout"
	"outcore/internal/obs"
	"outcore/internal/ooc"
)

// Data-plane size limits. Both are per-server caps with sane
// defaults; Config fields set to a negative value disable them.
const (
	// DefaultMaxArrayElems caps a created array's total element count
	// (2^28 elements = 2 GiB of float64 backing).
	DefaultMaxArrayElems = int64(1) << 28
	// DefaultMaxTileElems caps a single tile request's element count
	// after clipping (2^22 elements = 32 MiB payload).
	DefaultMaxTileElems = int64(1) << 22
)

// WireEncoding is the tile content coding the server negotiates: a
// codec frame (see ooc.AppendFrame) instead of raw little-endian
// float64. Offered via Accept-Encoding on GET and declared via
// Content-Encoding on PUT.
const WireEncoding = "x-ooc-gorilla"

// Cluster replication headers. The router versions every replicated
// write with a per-tile generation; nodes gate PUTs on it and report
// it on GETs and HEADs, which is what lets the router rank replicas by
// freshness and repair the stale ones. Requests without these headers
// get the exact pre-cluster behavior.
const (
	// TileGenHeader carries a write generation: on a PUT request, the
	// generation to record (cells covered by an overlapping recorded
	// box with a newer generation keep the newer bytes; the write lands
	// on the rest); on GET, HEAD and PUT responses, the plane's recorded
	// generation.
	TileGenHeader = "X-Tile-Gen"
	// TileWantGenHeader, set to any non-empty value on a GET, asks for
	// the box's write generation on the response even when it is 0. A
	// HEAD of the tile endpoint — the generation probe, which reads no
	// tile — always reports it.
	TileWantGenHeader = "X-Tile-Want-Gen"
	// TileStaleHeader marks a 204 PUT response whose write was skipped
	// entirely because newer recorded generations cover every cell of
	// the box; the response's TileGenHeader reports the newest of them.
	TileStaleHeader = "X-Tile-Stale"
)

// FrontConfig wires a FrontEnd. Zero sizes and limits get the occd
// defaults.
type FrontConfig struct {
	// MetricPrefix names the daemon's own families: "occd" registers
	// occd_requests_total, "occrouter" occrouter_requests_total. The
	// scan/reduce families are occd_* on both.
	MetricPrefix string
	// Reg receives the families (and backs GET /metrics).
	Reg *obs.Registry
	// Series are the admission and wire series only occd publishes.
	Series FrontSeries

	MaxInflight   int   // admission slots (default 2*GOMAXPROCS)
	QueueDepth    int   // waiters for a slot (default 64)
	MaxArrayElems int64 // see Config
	MaxTileElems  int64 // see Config
}

// FrontSeries are series the front end drives but does not name: occd
// has always published them, occrouter never has, so the owner
// registers the ones it exposes and NewFrontEnd backs the rest with
// unpublished series.
type FrontSeries struct {
	Inflight      *obs.Gauge   // admission slots held, set when /metrics is read
	RejectedQueue *obs.Counter // 503s from a full queue
	WireRaw       *obs.Counter // logical tile bytes moved over HTTP
	WireBytes     *obs.Counter // bytes on the wire after negotiation
}

// FrontEnd is the one HTTP surface of the serving stack: route table,
// admission, box validation, payload and codec negotiation, and the
// tile/scan/reduce/array handlers, over whichever Plane it is
// given. occd's Server and occrouter's Router each own one.
type FrontEnd struct {
	plane Plane
	cfg   FrontConfig
	mux   *http.ServeMux
	// pool holds one token per admitted request (cap = MaxInflight);
	// queued counts the requests blocked sending to it, and drain is
	// closed by StopAdmitting to fail them.
	pool     chan struct{}
	queued   atomic.Int64
	drain    chan struct{}
	draining atomic.Bool

	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
	series   FrontSeries
	ops      opsMetrics
}

// NewFrontEnd builds the front end over p.
func NewFrontEnd(p Plane, cfg FrontConfig) *FrontEnd {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxArrayElems == 0 {
		cfg.MaxArrayElems = DefaultMaxArrayElems
	}
	if cfg.MaxTileElems == 0 {
		cfg.MaxTileElems = DefaultMaxTileElems
	}
	reg, pre := cfg.Reg, cfg.MetricPrefix
	// Series the owner does not publish still count, in a registry
	// nobody exposes.
	s, quiet := cfg.Series, obs.NewRegistry()
	orQuiet := func(c *obs.Counter, name string) *obs.Counter {
		if c == nil {
			c = quiet.Counter(name, "")
		}
		return c
	}
	s.RejectedQueue = orQuiet(s.RejectedQueue, "rejected_queue")
	s.WireRaw = orQuiet(s.WireRaw, "wire_raw_bytes")
	s.WireBytes = orQuiet(s.WireBytes, "wire_bytes")
	fe := &FrontEnd{
		plane:    p,
		cfg:      cfg,
		pool:     make(chan struct{}, cfg.MaxInflight),
		drain:    make(chan struct{}),
		requests: reg.Counter(pre+"_requests_total", "data-plane requests admitted"),
		errors:   reg.Counter(pre+"_errors_total", "data-plane requests that failed (5xx)"),
		latency: reg.Histogram(pre+"_request_seconds",
			"admitted request latency in seconds", obs.ExpBuckets(1e-5, 4, 10)),
		series: s,
		ops: opsMetrics{
			scanRequests:   reg.Counter("occd_scan_requests_total", "streaming range scans started"),
			scanChunks:     reg.Counter("occd_scan_chunks_total", "scan chunks framed and sent"),
			scanResumes:    reg.Counter("occd_scan_resumes_total", "scans resumed from a cursor token"),
			reduceRequests: reg.Counter("occd_reduce_requests_total", "pushed-down reductions served"),
			reduceElems:    reg.Counter("occd_reduce_elems_total", "elements folded by pushed-down reductions"),
		},
	}
	fe.mux = http.NewServeMux()
	fe.mux.HandleFunc("GET /healthz", fe.handleHealthz)
	fe.mux.HandleFunc("GET /metrics", fe.handleMetrics)
	fe.mux.HandleFunc("GET /v1/stats", fe.handleStats)
	fe.mux.HandleFunc("GET /v1/arrays", fe.admit(fe.handleArrayList))
	fe.mux.HandleFunc("POST /v1/arrays", fe.admit(fe.handleArrayCreate))
	fe.mux.HandleFunc("GET /v1/arrays/{name}", fe.admit(fe.handleArrayGet))
	fe.mux.HandleFunc("GET /v1/arrays/{name}/tile", fe.admit(fe.handleTileGet))
	fe.mux.HandleFunc("PUT /v1/arrays/{name}/tile", fe.admit(fe.handleTilePut))
	fe.mux.HandleFunc("GET /v1/arrays/{name}/scan", fe.admit(fe.handleScan))
	fe.mux.HandleFunc("POST /v1/arrays/{name}/reduce", fe.admit(fe.handleReduce))
	return fe
}

// Handler returns the HTTP handler to mount: the route table.
func (fe *FrontEnd) Handler() http.Handler { return fe.mux }

// StopAdmitting begins a drain: new data-plane requests answer 503,
// healthz flips, and every request waiting for a slot is failed with
// 503 — failed, not falsely acknowledged. Idempotent.
func (fe *FrontEnd) StopAdmitting() {
	if !fe.draining.Swap(true) {
		close(fe.drain)
	}
}

// Draining reports whether StopAdmitting has run.
func (fe *FrontEnd) Draining() bool { return fe.draining.Load() }

// Quiesce runs fn while no admitted request holds a slot. Call after
// StopAdmitting: with admission off and the waiters failed, filling
// the pool is a barrier over every handler still running, so fn sees a
// plane nobody is mid-operation on.
func (fe *FrontEnd) Quiesce(fn func()) {
	for i := 0; i < cap(fe.pool); i++ {
		fe.pool <- struct{}{}
	}
	fn()
	// Let any straggler run (and fail fast against the closed plane)
	// instead of hanging until its client gives up.
	for i := 0; i < cap(fe.pool); i++ {
		<-fe.pool
	}
}

// acquire claims an admission slot: a token sent into pool. When the
// pool is full the request waits, at most QueueDepth of them at once,
// in a blocking send. A receive from a full buffered channel moves
// the oldest blocked sender's token into the freed place, so waiters
// are admitted in arrival order and a newcomer's non-blocking send
// cannot barge past them. false (queue full, draining, or the client
// gone) means answer 503. The fast path allocates nothing.
func (fe *FrontEnd) acquire(ctx context.Context) bool {
	select {
	case fe.pool <- struct{}{}:
		return true
	default:
	}
	if fe.queued.Add(1) > int64(fe.cfg.QueueDepth) {
		fe.queued.Add(-1)
		return false
	}
	defer fe.queued.Add(-1)
	select {
	case fe.pool <- struct{}{}:
		return true
	case <-fe.drain:
	case <-ctx.Done():
	}
	return false
}

// release hands an acquired slot back.
func (fe *FrontEnd) release() {
	<-fe.pool
}

// admit is the data-plane gate: drain check, then one slot of the
// inflight pool for the handler's whole run (503 when the wait queue
// is full). A scan holds its slot for the whole stream.
func (fe *FrontEnd) admit(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if fe.draining.Load() {
			fe.unavailable(w, "draining")
			return
		}
		if !fe.acquire(r.Context()) {
			fe.series.RejectedQueue.Inc()
			fe.unavailable(w, "admission queue full")
			return
		}
		defer fe.release()
		fe.requests.Inc()
		t0 := time.Now()
		next(w, r)
		fe.latency.Observe(time.Since(t0).Seconds())
	}
}

// unavailable answers 503 with a fixed one-second Retry-After hint.
func (fe *FrontEnd) unavailable(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", "1")
	http.Error(w, msg, http.StatusServiceUnavailable)
}

// failure maps a plane error to the status and message the client
// sees, counting the 5xx.
func (fe *FrontEnd) failure(err error) (int, string) {
	code, msg := fe.plane.Status(err)
	if code >= 500 {
		fe.errors.Inc()
	}
	return code, msg
}

// planeError answers a failed plane call.
func (fe *FrontEnd) planeError(w http.ResponseWriter, err error) {
	code, msg := fe.failure(err)
	if code == http.StatusServiceUnavailable {
		fe.unavailable(w, msg)
		return
	}
	http.Error(w, msg, code)
}

// meterWire tallies one tile transfer in the wire counters /v1/stats
// reports.
func (fe *FrontEnd) meterWire(raw, wire int64) {
	fe.series.WireRaw.Add(raw)
	fe.series.WireBytes.Add(wire)
}

func (fe *FrontEnd) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if fe.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (fe *FrontEnd) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if g := fe.series.Inflight; g != nil {
		g.Set(float64(len(fe.pool)))
	}
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		if err := fe.cfg.Reg.WriteJSON(w); err != nil {
			fe.errors.Inc()
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := fe.cfg.Reg.WritePrometheus(w); err != nil {
		fe.errors.Inc()
	}
}

func (fe *FrontEnd) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, fe.plane.Stats(FrontStats{
		Requests:      fe.requests.Value(),
		RejectedQueue: fe.series.RejectedQueue.Value(),
		Inflight:      int64(len(fe.pool)),
		Queued:        fe.queued.Load(),
		Draining:      fe.draining.Load(),
		Ops: OpsStats{
			ScanRequests:   fe.ops.scanRequests.Value(),
			ScanChunks:     fe.ops.scanChunks.Value(),
			ScanResumes:    fe.ops.scanResumes.Value(),
			ReduceRequests: fe.ops.reduceRequests.Value(),
			ReduceElems:    fe.ops.reduceElems.Value(),
		},
		WireRawBytes: fe.series.WireRaw.Value(),
		WireBytes:    fe.series.WireBytes.Value(),
	}))
}

func (fe *FrontEnd) handleArrayList(w http.ResponseWriter, r *http.Request) {
	arrays := fe.plane.List()
	out := make([]ArrayInfo, len(arrays))
	for i, a := range arrays {
		out[i] = a.Info()
	}
	writeJSON(w, http.StatusOK, out)
}

func (fe *FrontEnd) handleArrayCreate(w http.ResponseWriter, r *http.Request) {
	// The body is a catalog row: Layout picks the file layout the tiles
	// are stored under, "row" (default) or "col".
	var req ArrayInfo
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad create body: %v", err)
		return
	}
	if req.Name == "" || strings.ContainsAny(req.Name, "/\\ \t\n") {
		httpError(w, http.StatusBadRequest, "bad array name %q", req.Name)
		return
	}
	if n := len(req.Name); n > ooc.MaxNameLen {
		httpError(w, http.StatusBadRequest, "array name of %d bytes exceeds %d", n, ooc.MaxNameLen)
		return
	}
	if len(req.Dims) == 0 {
		httpError(w, http.StatusBadRequest, "array needs at least one dimension")
		return
	}
	for _, d := range req.Dims {
		if d <= 0 {
			httpError(w, http.StatusBadRequest, "non-positive extent %d", d)
			return
		}
	}
	elems, ok := checkedProduct(req.Dims)
	if !ok {
		httpError(w, http.StatusBadRequest, "dims %v overflow the element count", req.Dims)
		return
	}
	if lim := fe.cfg.MaxArrayElems; lim > 0 && elems > lim {
		httpError(w, http.StatusBadRequest, "array of %d elements exceeds the server limit of %d", elems, lim)
		return
	}
	a, err := req.Array()
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := fe.plane.Create(r.Context(), a); err != nil {
		fe.planeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, a.Info())
}

// lookup resolves the {name} path segment, answering 404 itself.
func (fe *FrontEnd) lookup(w http.ResponseWriter, name string) (Array, bool) {
	a, ok := fe.plane.Lookup(name)
	if !ok {
		httpError(w, http.StatusNotFound, "no array %q", name)
	}
	return a, ok
}

func (fe *FrontEnd) handleArrayGet(w http.ResponseWriter, r *http.Request) {
	if a, ok := fe.lookup(w, r.PathValue("name")); ok {
		writeJSON(w, http.StatusOK, a.Info())
	}
}

// resolveBox validates lo/hi against the array and clips — the one box
// check behind tile, scan and reduce requests. limit caps the
// clipped element count (0: none; a scan's memory is bounded by its
// chunk, a reduce's by the plane's). A non-zero status is the 4xx.
func resolveBox(a Array, lo, hi []int64, limit int64) (layout.Box, int, string) {
	rank := len(a.Dims)
	if len(lo) != rank || len(hi) != rank {
		return layout.Box{}, http.StatusBadRequest,
			fmt.Sprintf("box rank %d/%d, array rank %d", len(lo), len(hi), rank)
	}
	for d := range lo {
		if lo[d] < 0 {
			return layout.Box{}, http.StatusBadRequest, fmt.Sprintf("negative coordinate %d", lo[d])
		}
		if hi[d] < lo[d] {
			return layout.Box{}, http.StatusBadRequest,
				fmt.Sprintf("hi[%d]=%d below lo[%d]=%d", d, hi[d], d, lo[d])
		}
	}
	// The box keeps the caller's coordinate slices: boxes are immutable
	// once built, so there is nothing to clone them against.
	box := layout.Box{Lo: lo, Hi: hi}.Clip(a.Dims)
	if box.Empty() {
		return layout.Box{}, http.StatusBadRequest,
			fmt.Sprintf("box %v is empty after clipping to %v", layout.Box{Lo: lo, Hi: hi}, a.Dims)
	}
	// The clipped size cannot overflow (array creation capped the dims
	// product), but it can still be an unreasonable single request.
	if limit > 0 && box.Size() > limit {
		return layout.Box{}, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("box %v holds %d elements, over the per-request limit of %d", box, box.Size(), limit)
	}
	return box, 0, ""
}

// queryBox resolves {name} plus the lo/hi query params, writing the
// 4xx response itself on failure. Both corners are parsed into one
// backing array.
func (fe *FrontEnd) queryBox(w http.ResponseWriter, r *http.Request, limit int64) (Array, layout.Box, bool) {
	a, ok := fe.lookup(w, r.PathValue("name"))
	if !ok {
		return a, layout.Box{}, false
	}
	qlo, qhi := queryValue(r.URL.RawQuery, "lo"), queryValue(r.URL.RawQuery, "hi")
	coords := make([]int64, 0, strings.Count(qlo, ",")+strings.Count(qhi, ",")+2)
	lo, err := appendCoords(coords, qlo)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad lo: %v", err)
		return a, layout.Box{}, false
	}
	lo = lo[:len(lo):len(lo)]
	hi, err := appendCoords(coords[len(lo):len(lo)], qhi)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad hi: %v", err)
		return a, layout.Box{}, false
	}
	box, status, msg := resolveBox(a, lo, hi, limit)
	if status != 0 {
		http.Error(w, msg, status)
		return a, layout.Box{}, false
	}
	return a, box, true
}

// queryValue returns the first value of key in a raw query string,
// decoded exactly as url.ParseQuery decodes it — a pair holding a
// semicolon or an invalid escape is skipped — without building the
// url.Values map. Only an escaped key or value allocates.
func queryValue(raw, key string) string {
	for raw != "" {
		var kv string
		kv, raw, _ = strings.Cut(raw, "&")
		if kv == "" || strings.Contains(kv, ";") {
			continue
		}
		k, v, _ := strings.Cut(kv, "=")
		var err error
		if strings.ContainsAny(k, "%+") {
			if k, err = url.QueryUnescape(k); err != nil {
				continue
			}
		}
		if k != key {
			continue
		}
		if strings.ContainsAny(v, "%+") {
			if v, err = url.QueryUnescape(v); err != nil {
				continue
			}
		}
		return v
	}
	return ""
}

// Header values the tile and scan handlers set as constants, shared so a
// response allocates nothing for them (net/http only reads them).
var (
	octetStreamValue     = []string{"application/octet-stream"}
	scanContentTypeValue = []string{ScanContentType}
	wireCodingValue      = []string{WireEncoding}
	staleValue           = []string{"true"}
)

// renderRaw and renderWire are the two tile body renderings, both into
// a pooled buffer the caller may hand back with ooc.PutBuf once it is
// written.
func renderRaw(data []float64, _ uint64) []byte {
	return appendTile(ooc.GetBuf(len(data) * ooc.ElemSize)[:0], data, false)
}

func renderWire(data []float64, _ uint64) []byte {
	return appendTile(ooc.GetBuf(len(data)*ooc.ElemSize + FrameMaxOverhead)[:0], data, true)
}

func (fe *FrontEnd) handleTileGet(w http.ResponseWriter, r *http.Request) {
	ar, box, ok := fe.queryBox(w, r, fe.cfg.MaxTileElems)
	if !ok {
		return
	}
	if r.Method == http.MethodHead {
		// The generation probe: same validation and admission as a GET,
		// no tile read and no body.
		_, gen, err := fe.plane.ReadBox(r.Context(), ar, box, nil)
		if err != nil {
			fe.planeError(w, err)
			return
		}
		w.Header().Set(TileGenHeader, strconv.FormatUint(gen, 10))
		return
	}
	render := renderRaw
	compress := acceptsWireEncoding(r.Header.Get("Accept-Encoding"))
	if compress {
		render = renderWire
	}
	payload, gen, err := fe.plane.ReadBox(r.Context(), ar, box, render)
	if err != nil {
		fe.planeError(w, err)
		return
	}
	fe.meterWire(box.Size()*ooc.ElemSize, int64(len(payload)))
	h := w.Header()
	h["Content-Type"] = octetStreamValue
	if compress {
		h["Content-Encoding"] = wireCodingValue
	}
	if gen != 0 || r.Header.Get(TileWantGenHeader) != "" {
		h.Set(TileGenHeader, strconv.FormatUint(gen, 10))
	}
	h.Set("X-Tile-Elems", strconv.FormatInt(box.Size(), 10))
	w.Write(payload)
	ooc.PutBuf(payload)
}

func (fe *FrontEnd) handleTilePut(w http.ResponseWriter, r *http.Request) {
	ar, box, ok := fe.queryBox(w, r, fe.cfg.MaxTileElems)
	if !ok {
		return
	}
	var gen uint64
	if v := r.Header.Get(TileGenHeader); v != "" {
		g, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad %s %q: %v", TileGenHeader, v, err)
			return
		}
		gen = g
	}
	// Content codings are case-insensitive (RFC 9110 §8.4.1).
	enc := r.Header.Get("Content-Encoding")
	framed := strings.EqualFold(enc, WireEncoding)
	if enc != "" && !framed {
		httpError(w, http.StatusUnsupportedMediaType, "unsupported Content-Encoding %q (only %s)", enc, WireEncoding)
		return
	}
	// A frame never exceeds raw-plus-header (AppendFrame's raw fallback
	// guarantees it), which bounds the read; the real size check is
	// DecodeTile's. The body is decoded into scratch before the plane
	// sees it: a short or half-decoded payload must never land in a
	// cached tile.
	want := box.Size() * ooc.ElemSize
	buf := ooc.GetBuf(int(want + FrameMaxOverhead))
	defer ooc.PutBuf(buf)
	body, err := readBody(r, buf)
	data := ooc.GetF64(int(box.Size()))
	defer ooc.PutF64(data)
	if err == nil {
		err = DecodeTile(body, framed, data)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "tile payload: %v (want %d elements for %v)", err, box.Size(), box)
		return
	}
	fe.meterWire(want, int64(len(body)))
	stored, stale, err := fe.plane.WriteBox(r.Context(), ar, box, data, gen)
	if err != nil {
		fe.planeError(w, err)
		return
	}
	if stored != 0 {
		w.Header().Set(TileGenHeader, strconv.FormatUint(stored, 10))
	}
	if stale {
		w.Header()[TileStaleHeader] = staleValue
	}
	w.Header().Set("X-Tile-Elems", strconv.FormatInt(box.Size(), 10))
	w.WriteHeader(http.StatusNoContent)
}

// acceptsWireEncoding reports whether an Accept-Encoding header offers
// WireEncoding: comma-separated codings, matched case-insensitively,
// each with optional parameters, where a q weight of 0 means "not
// acceptable" (RFC 9110 §12.5.3). A well-formed header allocates
// nothing.
func acceptsWireEncoding(header string) bool {
	for header != "" {
		var part string
		part, header, _ = strings.Cut(header, ",")
		c, params, _ := strings.Cut(part, ";")
		if strings.EqualFold(strings.TrimSpace(c), WireEncoding) && !zeroWeight(params) {
			return true
		}
	}
	return false
}

// zeroWeight reports whether a coding's parameters weigh it q=0.
func zeroWeight(params string) bool {
	for params != "" {
		var p string
		p, params, _ = strings.Cut(params, ";")
		if name, v, _ := strings.Cut(p, "="); strings.EqualFold(strings.TrimSpace(name), "q") {
			q, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return err == nil && q == 0
		}
	}
	return false
}

// appendCoords parses "1,2,3" onto dst.
func appendCoords(dst []int64, s string) ([]int64, error) {
	if s == "" {
		return nil, fmt.Errorf("missing coordinates")
	}
	for {
		p, rest, more := strings.Cut(s, ",")
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("coordinate %q: %w", p, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("negative coordinate %d", v)
		}
		dst = append(dst, v)
		if !more {
			return dst, nil
		}
		s = rest
	}
}

// checkedProduct multiplies positive extents, reporting overflow
// instead of wrapping (a created array's element count must stay a
// valid int64 before any limit comparison happens).
func checkedProduct(dims []int64) (int64, bool) {
	n := int64(1)
	for _, d := range dims {
		if d <= 0 || n > math.MaxInt64/d {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// FrameMaxOverhead bounds how much larger than the raw payload a codec
// frame can be: the 16-byte header plus word-padding slack (the raw
// fallback caps the payload itself at the logical size).
const FrameMaxOverhead = 24

// readBody reads a request body of at most len(body) bytes into body;
// a longer body than the box can hold is a malformed request, not
// silent truncation.
func readBody(r *http.Request, body []byte) ([]byte, error) {
	n, err := io.ReadFull(r.Body, body)
	switch err {
	case nil:
		var extra [1]byte
		if m, _ := r.Body.Read(extra[:]); m > 0 {
			return nil, fmt.Errorf("body longer than the tile")
		}
	case io.EOF, io.ErrUnexpectedEOF:
	default:
		return nil, err
	}
	return body[:n], nil
}

// EncodeTile renders a tile body: raw little-endian float64 (the wire
// format, matching the file backend's on-disk encoding), or with wire
// set a WireEncoding codec frame.
func EncodeTile(data []float64, wire bool) []byte { return appendTile(nil, data, wire) }

// appendTile appends data's tile body in either encoding to dst.
func appendTile(dst []byte, data []float64, wire bool) []byte {
	if wire {
		return ooc.AppendFrame(dst, data)
	}
	n := len(dst)
	dst = slices.Grow(dst, len(data)*ooc.ElemSize)[:n+len(data)*ooc.ElemSize]
	out := dst[n:]
	for _, v := range data {
		binary.LittleEndian.PutUint64(out, math.Float64bits(v))
		out = out[ooc.ElemSize:]
	}
	return dst
}

// DecodeTile fills data from a tile body in either encoding, which
// must hold exactly len(data) elements and nothing after them. On
// error data's contents are unspecified.
func DecodeTile(body []byte, wire bool, data []float64) error {
	if wire {
		n, err := ooc.DecodeFrame(body, data)
		if err == nil && n != len(body) {
			err = fmt.Errorf("%d trailing bytes after the frame", len(body)-n)
		}
		return err
	}
	if len(body) != len(data)*ooc.ElemSize {
		return fmt.Errorf("%d payload bytes for %d elements", len(body), len(data))
	}
	for i := range data {
		data[i] = math.Float64frombits(binary.LittleEndian.Uint64(body))
		body = body[ooc.ElemSize:]
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), status)
}
