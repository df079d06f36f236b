package obs

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"time"
)

// DefaultTraceCap is the ring capacity used when NewTrace is given a
// non-positive capacity: enough for the busiest suite kernel at n2=64
// without unbounded growth on long runs.
const DefaultTraceCap = 1 << 18

// Trace is a bounded ring buffer of events. Concurrent Emit calls are
// safe; once the ring is full the oldest events are overwritten (the
// usual flight-recorder behaviour — the most recent window survives).
type Trace struct {
	epoch time.Time

	mu  sync.Mutex
	buf []Event
	n   uint64 // total events ever emitted
}

// NewTrace returns a trace retaining at most capacity events
// (DefaultTraceCap when capacity <= 0). The wall-clock epoch for
// Now/Stamp is fixed at creation.
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Trace{epoch: time.Now(), buf: make([]Event, 0, capacity)}
}

// Now returns the current wall-clock time as nanoseconds since the
// trace epoch — the Start value for an event being emitted now.
func (t *Trace) Now() int64 { return time.Since(t.epoch).Nanoseconds() }

// Stamp converts an absolute time (e.g. a span's recorded start) to
// nanoseconds since the trace epoch.
func (t *Trace) Stamp(tm time.Time) int64 { return tm.Sub(t.epoch).Nanoseconds() }

// Emit appends the event, overwriting the oldest once full. It never
// allocates: the ring storage is laid down once in NewTrace.
func (t *Trace) Emit(e Event) {
	t.mu.Lock()
	if len(t.buf) < cap(t.buf) {
		t.buf = t.buf[:len(t.buf)+1]
	}
	t.buf[t.n%uint64(cap(t.buf))] = e
	t.n++
	t.mu.Unlock()
}

// Total returns the number of events ever emitted.
func (t *Trace) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped returns how many events were overwritten by wraparound.
func (t *Trace) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n - uint64(len(t.buf))
}

// Events returns the retained events, oldest first.
func (t *Trace) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.buf))
	if len(t.buf) < cap(t.buf) {
		copy(out, t.buf)
		return out
	}
	head := int(t.n % uint64(cap(t.buf))) // index of the oldest event
	n := copy(out, t.buf[head:])
	copy(out[n:], t.buf[:head])
	return out
}

// Chrome trace_event pid values: one process per clock domain so
// wall-clock engine activity and virtual-time PFS activity never share
// a timeline.
const (
	chromePidEngine = 1
	chromePidPFS    = 2
)

func chromePid(k Kind) int {
	if k == KindPFSRequest {
		return chromePidPFS
	}
	return chromePidEngine
}

// WriteChrome writes the retained events in the Chrome trace_event
// JSON array format understood by chrome://tracing and Perfetto.
// Spans become complete ("X") events, zero-duration events become
// instants ("i"); timestamps are microseconds as the format requires.
func (t *Trace) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n"); err != nil {
		return err
	}
	// Name the two processes so the viewer labels the clock domains.
	fmt.Fprintf(bw, `{"ph":"M","pid":%d,"name":"process_name","args":{"name":"tile engine (wall clock)"}},`+"\n", chromePidEngine)
	fmt.Fprintf(bw, `{"ph":"M","pid":%d,"name":"process_name","args":{"name":"pfs (simulated clock)"}}`, chromePidPFS)
	for _, e := range t.Events() {
		if _, err := bw.WriteString(",\n"); err != nil {
			return err
		}
		ts := float64(e.Start) / 1e3 // ns -> µs
		if e.Dur > 0 {
			fmt.Fprintf(bw,
				`{"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"name":%q,"cat":%q,"args":{"bytes":%d}}`,
				chromePid(e.Kind), e.Track, ts, float64(e.Dur)/1e3, e.Kind.String()+" "+e.Name, e.Kind.String(), e.Bytes)
		} else {
			fmt.Fprintf(bw,
				`{"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%.3f,"name":%q,"cat":%q,"args":{"bytes":%d}}`,
				chromePid(e.Kind), e.Track, ts, e.Kind.String()+" "+e.Name, e.Kind.String(), e.Bytes)
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
