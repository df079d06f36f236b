package main

import (
	"fmt"
	"math"
	"time"

	"outcore/internal/obs"
	"outcore/internal/suite"
)

// setupReps is how many times a run builds and warms the system; the
// reported setup_s is the median, so one slow page-fault storm does
// not decide it.
const setupReps = 3

// runConfig is one invocation's arguments.
type runConfig struct {
	seed    int64
	seconds int
	opsDiv  int // tests: divide every round length by this (0 = 1)
	hooks   hooks
}

// roundOps is the round length of sp under this configuration: the
// spec's length at -seconds 10, scaled linearly.
func (cfg runConfig) roundOps(sp spec) int {
	return max(1, sp.opsPerRound*cfg.seconds/10/max(1, cfg.opsDiv))
}

// result is one run of one workload, in the shape the result line
// wants plus what the tests compare.
type result struct {
	attempted   int
	failed      int
	values      map[string]float64
	fingerprint uint64 // of the op stream
	notes       []string
	err         error // first failure, for the human-readable output
}

func (r *result) correct() bool { return r.failed == 0 && r.err == nil }

// setUp builds the stack to depth top, fills it and replays the warm-up
// ops; the returned seconds are the set-up time a user would wait.
func setUp(sp spec, top depth, sink *obs.Sink, warm []op) (*stack, *model, plane, float64, error) {
	m := newModel(sp.n)
	t0 := time.Now()
	st, err := buildStack(sp, top, sink)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	pl := st.plane()
	ph := replay(pl, m, [][]op{warm}, sp.primary, noHooks, top, false)
	secs := time.Since(t0).Seconds()
	if ph.failed > 0 {
		st.close()
		return nil, nil, nil, 0, fmt.Errorf("warm-up: %d of %d ops failed: %w", ph.failed, ph.attempted, ph.firstErr)
	}
	return st, m, pl, secs, nil
}

// runE2E is the untraced run: the only source of end-to-end metrics.
func runE2E(sp spec, cfg runConfig) (*result, error) {
	if sp.primary == opCycle {
		return runKernelsE2E(sp, cfg)
	}
	str := genStream(sp, cfg.seed, cfg.roundOps(sp))
	res := &result{fingerprint: str.fingerprint(), values: map[string]float64{}}

	st, m, pl, setup, err := setUp(sp, sp.top(), nil, str.warm)
	if err != nil {
		return nil, err
	}
	setups := []float64{setup}

	c0 := st.counters()
	ph := replay(pl, m, str.rounds, sp.primary, cfg.hooks, sp.top(), false)
	d := st.counters().minus(c0)
	rss := maxRSSMB()

	res.attempted, res.failed, res.err = ph.attempted, ph.failed, ph.firstErr
	if sp.crashChecked() {
		// Durability is part of the answer: only what survives a power
		// cut and a WAL replay counts as written.
		lost, err := crashCheck(st, m, ph.acked)
		if err != nil {
			return nil, err
		}
		res.failed = min(res.failed+lost, res.attempted)
		if lost > 0 && res.err == nil {
			res.err = fmt.Errorf("%d acknowledged PUTs did not survive crash + replay", lost)
		}
	} else if err := st.close(); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}

	for len(setups) < setupReps {
		st, _, _, s, err := setUp(sp, sp.top(), nil, str.warm)
		if err != nil {
			return nil, err
		}
		if err := st.close(); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}

	t := ph.timing()
	ops := float64(ph.attempted)
	res.notes = append(res.notes, fmt.Sprintf("timed phase: %d ops in %.2f s", ph.attempted, ops/t.opsPerSec))
	v := res.values
	v["setup_s"] = median(setups)
	v["ops_per_cpu_s"] = t.opsPerCPU
	v["lat_p50_ms"] = t.p50
	v["lat_p95_ms"] = t.p95
	v["ok_frac"] = float64(res.attempted-res.failed) / ops
	v["io_calls_per_op_p1"] = 1 + float64(d.io.Calls())/ops
	moved := d.io.ElemsRead + d.io.ElemsWritten + d.wal.AppendedWords
	v["io_bytes_per_user_byte_p1"] = 1 + float64(moved*8)/float64(ph.userBytes)
	v["allocs_per_op"] = float64(ph.mallocs) / ops
	v["rss_mb"] = rss
	return res, nil
}

// crashCheck cuts power, recovers, and counts the acknowledged PUTs
// whose tile does not read back as the model says. A tile nobody wrote
// that changed anyway counts as one failure.
func crashCheck(st *stack, m *model, acked []op) (int, error) {
	got, err := st.crashAndRecover()
	if err != nil {
		return 0, err
	}
	writers := map[[2]int64]int{}
	for _, o := range acked {
		writers[[2]int64{o.r0, o.c0}]++
	}
	lost := 0
	for r := int64(0); r < m.n; r += tileEdge {
		for c := int64(0); c < m.n; c += tileEdge {
			same := true
			for i := r; i < r+tileEdge && same; i++ {
				for j := c; j < c+tileEdge; j++ {
					if math.Float64bits(got[i*m.n+j]) != math.Float64bits(m.data[i*m.n+j]) {
						same = false
						break
					}
				}
			}
			if !same {
				if w := writers[[2]int64{r, c}]; w > 0 {
					lost += w
				} else {
					lost++
				}
			}
		}
	}
	return lost, nil
}

// runKernelsE2E times whole cycles; there is no client and no HTTP.
func runKernelsE2E(sp spec, cfg runConfig) (*result, error) {
	res := &result{values: map[string]float64{}}
	res.notes = append(res.notes, "a round holds only a few cycles, so its nearest-rank p95 is its slowest cycle: lat_p95_ms is the round-median of that")

	var ks *kernelSet
	var setups []float64
	for len(setups) < setupReps {
		t0 := time.Now()
		k, err := newKernelSet(suite.COpt, cfg.seed)
		if err != nil {
			return nil, err
		}
		if cs, err := k.cycle(nil, false); err != nil || !cs.ok {
			return nil, fmt.Errorf("warm-up cycle: ok=%v err=%v", cs.ok, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		ks = k
	}

	perRound := cfg.roundOps(sp)
	var p50s, p95s, rates, pooled []float64
	var calls, elems int64
	cycleID := 1
	m0 := mallocs()
	for r := 0; r < rounds; r++ {
		var lat []float64
		var cpu float64
		for i := 0; i < perRound; i++ {
			cs, err := ks.cycle(nil, cycleID == cfg.hooks.perturbCycle)
			if err != nil {
				return nil, err
			}
			cycleID++
			res.attempted++
			if !cs.ok {
				res.failed++
			}
			lat = append(lat, float64(cs.busy)/1e6)
			cpu += cs.cpu
			calls += cs.io.Calls()
			elems += cs.io.ElemsRead + cs.io.ElemsWritten
		}
		pooled = append(pooled, lat...)
		p50s = append(p50s, median(lat))
		p95s = append(p95s, percentile(lat, 0.95))
		rates = append(rates, float64(perRound)/cpu)
	}
	allocs := mallocs() - m0
	ops := float64(res.attempted)
	res.notes = append(res.notes, fmt.Sprintf("timed phase: %d cycles, %.2f s inside the kernels", res.attempted, sum(pooled)/1e3))
	v := res.values
	v["setup_s"] = median(setups)
	v["ops_per_cpu_s"] = median(rates)
	v["lat_p50_ms"] = median(p50s)
	v["lat_p95_ms"] = median(p95s)
	v["ok_frac"] = float64(res.attempted-res.failed) / ops
	v["io_calls_per_op_p1"] = 1 + float64(calls)/ops
	v["io_bytes_per_user_byte_p1"] = 1 + float64(elems)/(ops*float64(ks.elems))
	v["allocs_per_op"] = float64(allocs) / ops
	v["rss_mb"] = maxRSSMB()
	return res, nil
}
