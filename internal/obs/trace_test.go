package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestTraceWraparound(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Kind: KindEviction, Start: int64(i)})
	}
	if got := tr.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Oldest first: the last 4 of the 10 emitted.
	for i, e := range evs {
		if want := int64(6 + i); e.Start != want {
			t.Errorf("event %d: Start = %d, want %d", i, e.Start, want)
		}
	}
}

func TestTraceUnderCapacity(t *testing.T) {
	tr := NewTrace(8)
	for i := 0; i < 3; i++ {
		tr.Emit(Event{Start: int64(i)})
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if e.Start != int64(i) {
			t.Errorf("event %d: Start = %d, want %d", i, e.Start, i)
		}
	}
}

// TestTraceConcurrentEmit exercises the ring under the race detector:
// many goroutines emitting while another snapshots.
func TestTraceConcurrentEmit(t *testing.T) {
	tr := NewTrace(64)
	const goroutines, each = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = tr.Events()
				_ = tr.Dropped()
			}
		}
	}()
	var emitters sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		emitters.Add(1)
		go func(g int) {
			defer emitters.Done()
			for i := 0; i < each; i++ {
				tr.Emit(Event{Kind: KindTileFetch, Track: int32(g), Start: int64(i), Bytes: 8})
			}
		}(g)
	}
	emitters.Wait()
	close(stop)
	wg.Wait()
	if got := tr.Total(); got != goroutines*each {
		t.Fatalf("Total = %d, want %d", got, goroutines*each)
	}
	if got := len(tr.Events()); got != 64 {
		t.Fatalf("retained %d events, want 64", got)
	}
}

func TestWriteChromeIsValidJSON(t *testing.T) {
	tr := NewTrace(16)
	tr.Emit(Event{Kind: KindTileFetch, Name: "A", Start: 1000, Dur: 500, Bytes: 4096})
	tr.Emit(Event{Kind: KindEviction, Name: "B", Start: 2000})
	tr.Emit(Event{Kind: KindPFSRequest, Name: "C", Track: 3, Start: 0, Dur: 8_000_000, Bytes: 65536})
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteChrome output is not valid JSON: %v\n%s", err, buf.String())
	}
	// 2 process-name metadata records + 3 events.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("traceEvents has %d entries, want 5", len(doc.TraceEvents))
	}
	body := buf.String()
	for _, want := range []string{`"tile-fetch A"`, `"eviction B"`, `"pfs-request C"`, `"ph":"X"`, `"ph":"i"`} {
		if !strings.Contains(body, want) {
			t.Errorf("trace JSON missing %s", want)
		}
	}
	// The PFS event must sit in the simulated-clock process.
	pfsEntry := doc.TraceEvents[4]
	if pid, _ := pfsEntry["pid"].(float64); int(pid) != chromePidPFS {
		t.Errorf("PFS event pid = %v, want %d", pfsEntry["pid"], chromePidPFS)
	}
}

// TestEmitPathAllocations pins the acceptance criterion: the emit
// paths allocate nothing, so instrumentation attached or not never
// adds GC pressure to the engine's hot loops.
func TestEmitPathAllocations(t *testing.T) {
	tr := NewTrace(128)
	ev := Event{Kind: KindTileFetch, Name: "A", Start: 1, Dur: 2, Bytes: 3}
	if n := testing.AllocsPerRun(1000, func() { tr.Emit(ev) }); n != 0 {
		t.Errorf("Trace.Emit allocates %.1f per call, want 0", n)
	}
	var c Counter
	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %.1f per call, want 0", n)
	}
	var g Gauge
	if n := testing.AllocsPerRun(1000, func() { g.Set(1.5) }); n != 0 {
		t.Errorf("Gauge.Set allocates %.1f per call, want 0", n)
	}
	h := NewHistogram(ExpBuckets(1, 2, 10))
	if n := testing.AllocsPerRun(1000, func() { h.Observe(7) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %.1f per call, want 0", n)
	}
}

func BenchmarkTraceEmit(b *testing.B) {
	tr := NewTrace(1 << 12)
	ev := Event{Kind: KindTileFetch, Name: "A", Start: 1, Dur: 2, Bytes: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(ev)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(ExpBuckets(1e-6, 4, 12))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

func ExampleTrace_WriteChrome() {
	tr := NewTrace(4)
	tr.Emit(Event{Kind: KindWriteback, Name: "B", Start: 5000, Dur: 1000, Bytes: 512})
	var buf bytes.Buffer
	_ = tr.WriteChrome(&buf)
	fmt.Println(strings.Contains(buf.String(), `"writeback B"`))
	// Output: true
}
