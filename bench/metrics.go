package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The two lists below are the
// single source of the names and units the program prints;
// BENCHMARK.json carries the same names with direction and bound, and
// TestMetricNamesMatchBenchmarkJSON holds the two together.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees, per workload. Timing
// metrics are medians over the rounds of the per-round value; counts
// are taken over the whole timed phase (see README, "Definitions").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_cpu_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p95_ms", "ms"},
	{"ok_frac", "frac"},
	{"io_calls_per_op_p1", "count"},
	{"io_bytes_per_user_byte_p1", "B/B"},
	{"allocs_per_op", "count"},
	{"rss_mb", "MB"},
}

// perLayer is the traced run's ledger; the prefix is the module the
// number belongs to. A metric that does not apply to a workload (the
// router on a single node, the WAL on a read workload) reads 0 there.
var perLayer = []metricDef{
	{"layout.runs_us_per_op", "us"},
	{"layout.runs_per_op", "count"},
	{"layout.planscan_us_per_op", "us"},
	{"ooc.readtile_us_per_op", "us"},
	{"ooc.readtile_allocs_per_op", "count"},
	{"ooc.writetile_us_per_op", "us"},
	{"ooc.engine_us_per_op", "us"},
	{"ooc.hit_rate", "frac"},
	{"ooc.evictions_per_op", "count"},
	{"ooc.writebacks_per_op", "count"},
	{"ooc.wal_fsyncs_per_op", "count"},
	{"ooc.wal_words_per_user_word", "frac"},
	{"ooc.wal_checkpoints", "count"},
	{"ooc.sync_us_per_op", "us"},
	{"ooc.codec_encode_us_per_tile", "us"},
	{"ooc.codec_decode_us_per_tile", "us"},
	{"ooc.codec_ratio", "frac"},
	{"server.handler_us_per_op", "us"},
	{"server.handler_allocs_per_op", "count"},
	{"server.self_us_per_op", "us"},
	{"server.http_us_per_op", "us"},
	{"server.coalesced_per_op", "count"},
	{"server.rejected_per_op", "count"},
	{"client.self_us_per_op", "us"},
	{"client.new_conns_per_op", "count"},
	{"client.ops_per_s", "1/s"},
	{"client.lat_p99_ms", "ms"},
	{"cluster.router_us_per_op", "us"},
	{"cluster.self_us_per_op", "us"},
	{"cluster.node_requests_per_op", "count"},
	{"cluster.read_repairs_per_op", "count"},
	{"cluster.hints_per_op", "count"},
	{"core.plan_us_per_kernel", "us"},
	{"codegen.run_us_per_cycle", "us"},
	{"codegen.io_calls_vs_col", "frac"},
	{"codegen.io_calls_over_compulsory", "frac"},
	{"obs.trace_overhead_frac", "frac"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect renders values (keyed by metric name) under the given list:
// every listed metric is present, absent ones read 0.
func collect(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return out
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs,
// which it sorts in place. Empty input reads 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the middle of xs (mean of the middle pair for an even
// count), sorting a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
