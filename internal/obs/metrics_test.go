package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "ignored on reuse")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Add(3)
	if b.Value() != 3 {
		t.Fatalf("shared counter = %d, want 3", b.Value())
	}
	h1 := r.Histogram("lat", "", ExpBuckets(1, 10, 3))
	h2 := r.Histogram("lat", "", nil)
	if h1 != h2 {
		t.Fatal("same name returned distinct histograms")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a name with a different type did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 4 || !math.IsInf(bounds[3], 1) {
		t.Fatalf("bounds = %v, want 3 finite + Inf", bounds)
	}
	// 0.5 and 1 fall in le=1 (upper-bound inclusive), 5 in le=10,
	// 50 in le=100, 500 and 5000 in +Inf.
	want := []int64{2, 1, 1, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("bucket %d: count %d, want %d", i, counts[i], want[i])
		}
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if got := h.Sum(); got != 5556.5 {
		t.Errorf("Sum = %g, want 5556.5", got)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(ExpBuckets(1, 2, 8))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
	if h.Sum() != 8000 {
		t.Fatalf("Sum = %g, want 8000", h.Sum())
	}
}

// golden registry shared by both exposition tests.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("ooc_io_read_calls_total", "backend read calls").Add(42)
	r.Gauge("sim_makespan_seconds", "simulated makespan").Set(1.25)
	h := r.Histogram("ooc_request_elems", "elements per I/O call", []float64{8, 64})
	h.Observe(4)
	h.Observe(4)
	h.Observe(32)
	h.Observe(1000)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP ooc_io_read_calls_total backend read calls
# TYPE ooc_io_read_calls_total counter
ooc_io_read_calls_total 42
# HELP ooc_request_elems elements per I/O call
# TYPE ooc_request_elems histogram
ooc_request_elems_bucket{le="8"} 2
ooc_request_elems_bucket{le="64"} 3
ooc_request_elems_bucket{le="+Inf"} 4
ooc_request_elems_sum 1040
ooc_request_elems_count 4
# HELP sim_makespan_seconds simulated makespan
# TYPE sim_makespan_seconds gauge
sim_makespan_seconds 1.25
`
	if got := buf.String(); got != want {
		t.Errorf("Prometheus exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWriteJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{
  "ooc_io_read_calls_total": {
    "type": "counter",
    "help": "backend read calls",
    "value": 42
  },
  "ooc_request_elems": {
    "type": "histogram",
    "help": "elements per I/O call",
    "count": 4,
    "sum": 1040,
    "buckets": [
      {
        "le": "8",
        "count": 2
      },
      {
        "le": "64",
        "count": 3
      },
      {
        "le": "+Inf",
        "count": 4
      }
    ]
  },
  "sim_makespan_seconds": {
    "type": "gauge",
    "help": "simulated makespan",
    "value": 1.25
  }
}
`
	if got := buf.String(); got != want {
		t.Errorf("JSON exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// And it must round-trip as JSON.
	var m map[string]jsonMetric
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("exposition is not valid JSON: %v", err)
	}
}

func TestSinkNilSafety(t *testing.T) {
	var s *Sink
	if s.TraceOf() != nil || s.MetricsOf() != nil {
		t.Fatal("nil sink must expose nil trace and metrics")
	}
	s = &Sink{}
	if s.TraceOf() != nil || s.MetricsOf() != nil {
		t.Fatal("empty sink must expose nil trace and metrics")
	}
}

// TestWritePrometheusLabeled pins the labeled exposition: counters
// registered under `family{label="v"}` names share exactly one
// HELP/TYPE header per family, emitted before the family's first
// sample, and each label value renders its own sample line. This is
// the contract per-label counters (one series per op) rely on.
func TestWritePrometheusLabeled(t *testing.T) {
	r := NewRegistry()
	r.Counter(`occd_op_requests_total{op="get"}`, "requests admitted by op").Add(3)
	r.Counter(`occd_op_requests_total{op="put"}`, "requests admitted by op").Add(5)
	r.Counter("ooc_io_read_calls_total", "backend read calls").Add(1)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP occd_op_requests_total requests admitted by op
# TYPE occd_op_requests_total counter
occd_op_requests_total{op="get"} 3
occd_op_requests_total{op="put"} 5
# HELP ooc_io_read_calls_total backend read calls
# TYPE ooc_io_read_calls_total counter
ooc_io_read_calls_total 1
`
	if got := buf.String(); got != want {
		t.Errorf("labeled exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// The JSON rendering keys each series by its full labeled name.
	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]jsonMetric
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("labeled JSON exposition invalid: %v", err)
	}
	for _, k := range []string{`occd_op_requests_total{op="get"}`, `occd_op_requests_total{op="put"}`} {
		if _, ok := m[k]; !ok {
			t.Errorf("JSON exposition missing labeled series %q", k)
		}
	}
}

func TestBaseName(t *testing.T) {
	for in, want := range map[string]string{
		`occd_op_requests_total{op="x"}`: "occd_op_requests_total",
		"ooc_io_read_calls_total":        "ooc_io_read_calls_total",
	} {
		if got := baseName(in); got != want {
			t.Errorf("baseName(%q) = %q, want %q", in, got, want)
		}
	}
}
