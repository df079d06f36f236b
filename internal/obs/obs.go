// Package obs is the observability layer for the out-of-core stack:
// a bounded ring buffer of typed trace events (exportable as Chrome
// trace_event JSON for chrome://tracing / Perfetto) and a lightweight
// metrics registry (counters, gauges, histograms) with JSON and
// Prometheus-text exposition.
//
// The design constraint is that instrumentation must be free when
// nobody is looking: every instrumented component guards its emit
// sites with a nil check on the attached sink, and the emit paths
// themselves (Trace.Emit, Counter.Add, Gauge.Set, Histogram.Observe)
// perform zero heap allocations — verified by TestEmitPathAllocations.
package obs

// Kind identifies the typed trace events the stack emits.
type Kind uint8

// The event vocabulary. Engine and compute events carry wall-clock
// timestamps; PFS events carry the discrete-event simulator's virtual
// time. WriteChrome separates the two domains into distinct trace
// processes so the clocks never mix on one track.
const (
	// KindTileFetch is a synchronous backend read of a tile on an
	// engine cache miss (span).
	KindTileFetch Kind = iota
	// KindCompute is the statement-iteration work over one pinned tile
	// set (span).
	KindCompute
	// KindWriteback is a dirty tile flushed to the backend (span).
	KindWriteback
	// KindEviction is a cache entry dropped by capacity pressure
	// (instant).
	KindEviction
	// KindPFSRequest is one stripe-level subrequest serviced by a
	// simulated PFS I/O node, in virtual time (span; Track = node).
	KindPFSRequest

	numKinds
)

var kindNames = [numKinds]string{
	KindTileFetch:  "tile-fetch",
	KindCompute:    "compute",
	KindWriteback:  "writeback",
	KindEviction:   "eviction",
	KindPFSRequest: "pfs-request",
}

// String names the kind for exports and tests.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one trace record. It is a flat value type — emitting one
// copies a few words and never allocates.
type Event struct {
	Kind  Kind
	Track int32  // lane within the domain: PFS I/O node index (0 otherwise)
	Name  string // array / file the event concerns
	Start int64  // nanoseconds since the trace epoch (PFS: virtual ns)
	Dur   int64  // span duration in nanoseconds; 0 = instant event
	Bytes int64  // payload moved, in bytes (0 when not applicable)
}

// Sink bundles the two optional observation targets a component can be
// handed. Either field may be nil; a nil *Sink disables everything.
type Sink struct {
	Trace   *Trace
	Metrics *Registry
}

// TraceOf returns s.Trace, tolerating a nil sink.
func (s *Sink) TraceOf() *Trace {
	if s == nil {
		return nil
	}
	return s.Trace
}

// MetricsOf returns s.Metrics, tolerating a nil sink.
func (s *Sink) MetricsOf() *Registry {
	if s == nil {
		return nil
	}
	return s.Metrics
}
