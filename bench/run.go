package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"

	"outcore/internal/layout"
)

// span is one timed call into a layer: which depth, which op, when.
type span struct {
	depth depth
	op    int
	start time.Time
	dur   time.Duration
}

// roundStat is what one round contributes to the timing metrics.
type roundStat struct {
	lat  []float64 // primary-op latencies, ms
	ops  int       // every op of the round, primary or not
	cpu  float64   // user+sys seconds the process spent in the round
	wall float64
}

// phase is the outcome of replaying a list of rounds on one plane.
type phase struct {
	rounds    []roundStat
	attempted int
	failed    int
	userBytes int64         // payload bytes moved to or from the client
	putBytes  int64         // the PUT share of userBytes
	reads     int           // GET and scan ops
	writes    int           // PUT ops
	readBusy  time.Duration // time inside the plane's get/scan calls
	writeBusy time.Duration // time inside the plane's put calls
	mallocs   uint64
	firstErr  error
	acked     []op   // acknowledged PUTs, for the post-crash check
	spans     []span // one per op, when recording
}

// hooks are the deliberate faults the oracle-liveness tests inject;
// each names an op (or cycle) id, and -1 means off.
type hooks struct {
	corruptOp    int // flip one bit of this GET's answer before it is checked
	skipPutOp    int // record this PUT as acknowledged without sending it
	perturbCycle int // change one output element of this kernel cycle
}

var noHooks = hooks{corruptOp: -1, skipPutOp: -1, perturbCycle: -1}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// replay sends the rounds through the plane one op at a time (closed
// loop, one client), checking every answer against the model and
// applying every acknowledged write to it.
func replay(pl plane, m *model, rs [][]op, primary opKind, hk hooks, d depth, record bool) phase {
	var ph phase
	payload := make([]float64, tileEdge*tileEdge)
	fail := func(o op, err error) {
		ph.failed++
		if ph.firstErr == nil {
			ph.firstErr = fmt.Errorf("%s op %d: %w", d, o.id, err)
		}
	}
	m0 := mallocs()
	for _, ops := range rs {
		st := roundStat{ops: len(ops), lat: make([]float64, 0, len(ops))}
		cpu0, wall0 := cpuSeconds(), time.Now()
		for _, o := range ops {
			ph.attempted++
			ph.userBytes += o.elems() * 8
			var err error
			var dur time.Duration
			ok := true
			t0 := time.Now()
			switch o.kind {
			case opGet:
				var data []float64
				data, err = pl.get(o)
				dur = time.Since(t0)
				if err == nil && o.id == hk.corruptOp {
					data[len(data)/2] = math.Float64frombits(math.Float64bits(data[len(data)/2]) ^ 1)
				}
				ok = err == nil && m.check(o.r0, o.c0, o.r1, o.c1, data)
			case opPut:
				putPayload(o, payload)
				t0 = time.Now()
				if o.id != hk.skipPutOp {
					err = pl.put(o, payload)
				}
				dur = time.Since(t0)
				ph.putBytes += o.elems() * 8
				if err == nil {
					m.apply(o.r0, o.c0, o.r1, o.c1, payload)
					ph.acked = append(ph.acked, o)
				}
			case opScan:
				var seen int64
				err = pl.scan(o, func(b layout.Box, data []float64) {
					seen += b.Size()
					if !m.check(b.Lo[0], b.Lo[1], b.Hi[0], b.Hi[1], data) {
						ok = false
					}
				})
				dur = time.Since(t0)
				ok = ok && err == nil && seen == o.elems()
			}
			if o.kind == primary {
				st.lat = append(st.lat, float64(dur)/1e6)
			}
			if o.kind == opPut {
				ph.writes++
				ph.writeBusy += dur
			} else {
				ph.reads++
				ph.readBusy += dur
			}
			if record {
				ph.spans = append(ph.spans, span{depth: d, op: o.id, start: t0, dur: dur})
			}
			switch {
			case err != nil:
				fail(o, err)
			case !ok:
				fail(o, fmt.Errorf("answer differs from the model"))
			}
		}
		st.cpu, st.wall = cpuSeconds()-cpu0, time.Since(wall0).Seconds()
		ph.rounds = append(ph.rounds, st)
	}
	ph.mallocs = mallocs() - m0
	return ph
}

// timing folds the rounds into the reported timing metrics: each is
// the median over the rounds of the per-round value, so one burst from
// a neighbour moves at most one of the eight inputs.
type timing struct {
	p50, p95, opsPerCPU float64
	pooledP99           float64
	opsPerSec           float64
}

// busyUS is the mean time per op spent inside the plane's calls, every
// op counted; the harness's own work between calls is left out, so two
// depths subtract into the layer between them.
func (ph *phase) busyUS() float64 {
	return perOp(float64(ph.readBusy+ph.writeBusy)/1e3, ph.reads+ph.writes)
}

func perOp(total float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return total / float64(ops)
}

func (ph *phase) timing() timing {
	var p50s, p95s, rates []float64
	var pooled []float64
	var ops int
	var wall float64
	for _, r := range ph.rounds {
		lat := append([]float64(nil), r.lat...)
		p50s = append(p50s, percentile(lat, 0.50))
		p95s = append(p95s, percentile(lat, 0.95))
		if r.cpu > 0 {
			rates = append(rates, float64(r.ops)/r.cpu)
		}
		pooled = append(pooled, r.lat...)
		ops += r.ops
		wall += r.wall
	}
	t := timing{p50: median(p50s), p95: median(p95s), opsPerCPU: median(rates), pooledP99: percentile(pooled, 0.99)}
	if wall > 0 {
		t.opsPerSec = float64(ops) / wall
	}
	return t
}
