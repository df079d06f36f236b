package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use standalone; Registry.Counter hands out named shared
// instances.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the value to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a point-in-time float metric. The zero value is ready.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed buckets (upper-bound
// inclusive, Prometheus-style, with an implicit +Inf bucket). Observe
// is lock-free and allocation-free.
type Histogram struct {
	bounds []float64      // sorted upper bounds; +Inf bucket is counts[len(bounds)]
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram returns a histogram over the given sorted upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// ExpBuckets returns n upper bounds start, start*factor, ... — the
// usual shape for latencies and request sizes.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Buckets returns the upper bounds and their (non-cumulative) counts;
// the final pair is the +Inf bucket.
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	bounds = append(append([]float64(nil), h.bounds...), math.Inf(1))
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

type metric struct {
	name, help string
	kind       metricKind
	c          *Counter
	g          *Gauge
	h          *Histogram
}

// Registry is a named collection of metrics with get-or-create
// semantics: asking for an existing name returns the shared instance,
// so independent components (or repeated runs) accumulate into the
// same series. Exposition is sorted by name for stable output.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{metrics: map[string]*metric{}} }

func (r *Registry) get(name, help string, k metricKind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != k {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different type", name))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: k}
	switch k {
	case kindCounter:
		m.c = &Counter{}
	case kindGauge:
		m.g = &Gauge{}
	}
	r.metrics[name] = m
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.get(name, help, kindCounter).c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.get(name, help, kindGauge).g
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later calls reuse the original bounds).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.get(name, help, kindHistogram)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m.h == nil {
		m.h = NewHistogram(bounds)
	}
	return m.h
}

// sorted returns the metrics ordered by name.
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// baseName strips a label suffix from a metric name: counters and
// gauges may be registered under labeled names like
// `occd_op_requests_total{op="get"}`, which belong to the family
// `occd_op_requests_total`. (Histograms render their own labeled sample
// lines and must be registered under plain names.)
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus writes the registry in the Prometheus text
// exposition format (version 0.0.4). Metrics registered under labeled
// names (see baseName) share one HELP/TYPE header per family, emitted
// once before the family's first sample.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	headered := map[string]bool{}
	for _, m := range r.sorted() {
		typ := [...]string{"counter", "gauge", "histogram"}[m.kind]
		if fam := baseName(m.name); !headered[fam] {
			headered[fam] = true
			if m.help != "" {
				fmt.Fprintf(bw, "# HELP %s %s\n", fam, m.help)
			}
			fmt.Fprintf(bw, "# TYPE %s %s\n", fam, typ)
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(bw, "%s %d\n", m.name, m.c.Value())
		case kindGauge:
			fmt.Fprintf(bw, "%s %s\n", m.name, strconv.FormatFloat(m.g.Value(), 'g', -1, 64))
		case kindHistogram:
			bounds, counts := m.h.Buckets()
			var cum int64
			for i, b := range bounds {
				cum += counts[i]
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", m.name, formatBound(b), cum)
			}
			fmt.Fprintf(bw, "%s_sum %s\n", m.name, strconv.FormatFloat(m.h.Sum(), 'g', -1, 64))
			fmt.Fprintf(bw, "%s_count %d\n", m.name, m.h.Count())
		}
	}
	return bw.Flush()
}

// jsonBucket is one histogram bucket in the JSON exposition.
type jsonBucket struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// jsonMetric is one metric in the JSON exposition.
type jsonMetric struct {
	Type    string       `json:"type"`
	Help    string       `json:"help,omitempty"`
	Value   *float64     `json:"value,omitempty"`
	Count   *int64       `json:"count,omitempty"`
	Sum     *float64     `json:"sum,omitempty"`
	Buckets []jsonBucket `json:"buckets,omitempty"`
}

// WriteJSON writes the registry as a single JSON object keyed by
// metric name (keys sorted — encoding/json sorts map keys — so the
// output is stable for golden tests).
func (r *Registry) WriteJSON(w io.Writer) error {
	out := map[string]jsonMetric{}
	for _, m := range r.sorted() {
		switch m.kind {
		case kindCounter:
			v := float64(m.c.Value())
			out[m.name] = jsonMetric{Type: "counter", Help: m.help, Value: &v}
		case kindGauge:
			v := m.g.Value()
			out[m.name] = jsonMetric{Type: "gauge", Help: m.help, Value: &v}
		case kindHistogram:
			bounds, counts := m.h.Buckets()
			jb := make([]jsonBucket, len(bounds))
			var cum int64
			for i, b := range bounds {
				cum += counts[i]
				jb[i] = jsonBucket{Le: formatBound(b), Count: cum}
			}
			n, s := m.h.Count(), m.h.Sum()
			out[m.name] = jsonMetric{Type: "histogram", Help: m.help, Count: &n, Sum: &s, Buckets: jb}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
