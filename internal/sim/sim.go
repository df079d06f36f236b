// Package sim measures the paper's experiments end to end: it executes
// a kernel version's out-of-core schedule (in dry-run accounting mode)
// for each simulated processor's partition, collects the per-processor
// I/O request traces, optionally applies the h-opt coalescing pass, and
// feeds everything to the PFS discrete-event simulator to obtain
// execution times — the quantities behind Table 2 (normalized times on
// 16 processors) and Table 3 (speedups on 16..128 processors).
package sim

import (
	"fmt"

	"outcore/internal/codegen"
	"outcore/internal/handopt"
	"outcore/internal/obs"
	"outcore/internal/ooc"
	"outcore/internal/pfs"
	"outcore/internal/suite"
)

// Setup configures one measurement.
type Setup struct {
	Kernel  suite.Kernel
	Cfg     suite.Config
	Version suite.Version
	Procs   int

	// MemFrac divides the total out-of-core data size to obtain the
	// per-processor memory budget (128 in the paper).
	MemFrac int64
	// PFS is the simulated I/O subsystem.
	PFS pfs.Config
	// IterPerSec is the per-processor compute rate in statement
	// iterations per second.
	IterPerSec float64
	// HandOpt tunes the h-opt coalescing pass (zero value: defaults
	// derived from the stripe size).
	HandOpt handopt.Options

	// CacheTiles > 0 routes each processor's tile I/O through the
	// tile engine's LRU tile cache of that capacity: re-touched
	// tiles stop hitting the backend and writes are written back once,
	// so the PFS sees the cached request stream.
	CacheTiles int

	// Obs observes the whole measurement: the dry-run disks feed the
	// "ooc_io_*" registry series, engines (when CacheTiles > 0) publish
	// "ooc_engine_*" counters at close, the PFS simulation emits
	// virtual-time request events and "pfs_*" series, and the final
	// Measurement values are mirrored into "sim_*" series — so the
	// Measurement struct is the per-run view of what the registry
	// accumulates across runs. Nil disables all of it.
	Obs *obs.Sink
}

// Defaults fills unset fields.
func (s *Setup) defaults() {
	if s.Procs <= 0 {
		s.Procs = 1
	}
	if s.MemFrac == 0 {
		s.MemFrac = 128
	}
	if s.PFS.IONodes == 0 {
		s.PFS = pfs.DefaultConfig()
	}
	if s.IterPerSec == 0 {
		s.IterPerSec = 5e6
	}
}

// handoptDefaults derives coalescing limits from the platform and the
// memory budget: a merged call can never exceed what fits in memory.
func (s *Setup) handoptDefaults(budget int64) handopt.Options {
	if s.HandOpt != (handopt.Options{}) {
		return s.HandOpt
	}
	o := handopt.DefaultOptions(s.PFS.StripeElems)
	// Sieve gaps are only worth reading when their transfer time is
	// cheaper than the saved per-request overhead.
	o.MaxGap = int64(s.PFS.NodeOverhead * s.PFS.NodeBandwidth)
	if budget > 0 && o.ChunkElems > budget/2 {
		o.ChunkElems = budget / 2
	}
	return o
}

// Measurement is the outcome of one simulated run: a per-run view of
// the quantities that, when Setup.Obs is attached, also accumulate in
// the metrics registry (see Setup.Obs).
type Measurement struct {
	Kernel     string
	Version    suite.Version
	Procs      int
	Seconds    float64 // simulated execution time (PFS makespan)
	Calls      int64   // I/O library calls issued (after h-opt coalescing)
	Elems      int64   // elements moved
	Iterations int64   // statement iterations across all processors
	Coalesce   handopt.Stats
	// Cache aggregates the tile-engine counters across processors when
	// Setup.CacheTiles > 0 (hit rate, evictions, write-backs); zero
	// otherwise.
	Cache ooc.EngineStats
}

// Run executes the measurement.
func Run(st Setup) (Measurement, error) {
	m, _, err := RunDetailed(st)
	return m, err
}

// RunDetailed also returns the PFS simulation result (per-processor
// completion times, per-node utilization) for visualization.
func RunDetailed(st Setup) (Measurement, pfs.Result, error) {
	st.defaults()
	st.PFS.Obs = st.Obs
	prog := st.Kernel.Build(st.Cfg)
	plan, err := suite.PlanFor(prog, st.Version)
	if err != nil {
		return Measurement{}, pfs.Result{}, err
	}
	budget := suite.MemBudget(prog, st.MemFrac)
	opts := codegen.Options{
		Strategy:  suite.StrategyFor(st.Version),
		MemBudget: budget,
		DryRun:    true,
	}
	m := Measurement{Kernel: st.Kernel.Name, Version: st.Version, Procs: st.Procs}
	procs := make([]pfs.ProcWorkload, st.Procs)
	var rawProcs []pfs.ProcWorkload // h-opt fallback: uncoalesced schedule
	if st.Version == suite.HOpt {
		rawProcs = make([]pfs.ProcWorkload, st.Procs)
	}
	for p := 0; p < st.Procs; p++ {
		// Measurement disks carry no data: dry-run execution only touches
		// accounting, so backing arrays would be pure allocation churn.
		d, err := codegen.SetupDiskOn(ooc.NewDisk(0).NoBacking().Observe(st.Obs), prog, plan, nil)
		if err != nil {
			return Measurement{}, pfs.Result{}, err
		}
		d.Record = true
		mem := ooc.NewMemory(budget)
		procOpts := opts
		var eng *ooc.Engine
		if st.CacheTiles > 0 {
			eng = ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: st.CacheTiles, Obs: st.Obs})
			procOpts.Engine = eng
		}
		var iters int64
		for it := 0; it < st.Kernel.Iter; it++ {
			es, err := codegen.RunProgramSlice(prog, plan, d, mem, procOpts, p, st.Procs)
			if err != nil {
				return Measurement{}, pfs.Result{}, fmt.Errorf("sim: %s/%s proc %d: %w", st.Kernel.Name, st.Version, p, err)
			}
			iters += es.Iterations
		}
		if eng != nil {
			// Flush dirty cached tiles so their write calls reach the trace
			// before it is converted to PFS operations.
			if err := eng.Close(); err != nil {
				return Measurement{}, pfs.Result{}, fmt.Errorf("sim: %s/%s proc %d: %w", st.Kernel.Name, st.Version, p, err)
			}
			cs := eng.Stats()
			m.Cache.Hits += cs.Hits
			m.Cache.Misses += cs.Misses
			m.Cache.Evictions += cs.Evictions
			m.Cache.Invalidations += cs.Invalidations
			m.Cache.Writebacks += cs.Writebacks
		}
		var ops []pfs.Op
		if st.Version == suite.HOpt {
			raw := make([]pfs.Op, len(d.Trace))
			for i, r := range d.Trace {
				raw[i] = pfs.Call(r.Array, r.Off, r.Len, r.Write)
			}
			rawProcs[p] = pfs.ProcWorkload{Ops: raw}
			calls, cs := handopt.Coalesce(d.Trace, st.handoptDefaults(budget))
			m.Coalesce.CallsBefore += cs.CallsBefore
			m.Coalesce.CallsAfter += cs.CallsAfter
			m.Coalesce.ElemsBefore += cs.ElemsBefore
			m.Coalesce.ElemsAfter += cs.ElemsAfter
			ops = make([]pfs.Op, len(calls))
			for i, c := range calls {
				op := pfs.Op{Write: c.Write}
				op.First = pfs.Extent{File: c.Extents[0].Array, Off: c.Extents[0].Off, Len: c.Extents[0].Len}
				m.Elems += c.Extents[0].Len
				for _, e := range c.Extents[1:] {
					op.More = append(op.More, pfs.Extent{File: e.Array, Off: e.Off, Len: e.Len})
					m.Elems += e.Len
				}
				ops[i] = op
			}
		} else {
			ops = make([]pfs.Op, len(d.Trace))
			for i, r := range d.Trace {
				ops[i] = pfs.Call(r.Array, r.Off, r.Len, r.Write)
				m.Elems += r.Len
			}
		}
		d.Trace = nil // the converted ops are the only copy we keep
		m.Calls += int64(len(ops))
		m.Iterations += iters
		procs[p] = pfs.ProcWorkload{Ops: ops, ComputeSeconds: float64(iters) / st.IterPerSec}
	}
	res, err := pfs.Simulate(st.PFS, procs)
	if err != nil {
		return Measurement{}, pfs.Result{}, err
	}
	m.Seconds = res.Makespan
	if st.Version == suite.HOpt {
		// A hand optimizer keeps chunking/interleaving only where it
		// helps; fall back to the plain c-opt schedule otherwise.
		for p := range rawProcs {
			rawProcs[p].ComputeSeconds = procs[p].ComputeSeconds
		}
		rawRes, err := pfs.Simulate(st.PFS, rawProcs)
		if err != nil {
			return Measurement{}, pfs.Result{}, err
		}
		if rawRes.Makespan < m.Seconds {
			m.Seconds = rawRes.Makespan
			res = rawRes
			var calls, elems int64
			for _, w := range rawProcs {
				calls += int64(len(w.Ops))
				for _, op := range w.Ops {
					elems += op.First.Len
				}
			}
			m.Calls, m.Elems = calls, elems
		}
	}
	if reg := st.Obs.MetricsOf(); reg != nil {
		reg.Counter("sim_io_calls_total", "I/O library calls across simulated runs").Add(m.Calls)
		reg.Counter("sim_elems_total", "elements moved across simulated runs").Add(m.Elems)
		reg.Counter("sim_iterations_total", "statement iterations across simulated runs").Add(m.Iterations)
		reg.Gauge("sim_makespan_seconds", "simulated makespan of the most recent run").Set(m.Seconds)
	}
	return m, res, nil
}

// Speedups runs the setup at one processor and at each requested count,
// returning time(1)/time(p) per count — the paper's Table-3 metric
// (speedup of each version relative to ITS OWN single-node run).
func Speedups(st Setup, procCounts []int) (map[int]float64, error) {
	st.defaults()
	base := st
	base.Procs = 1
	b, err := Run(base)
	if err != nil {
		return nil, err
	}
	out := map[int]float64{}
	for _, p := range procCounts {
		cur := st
		cur.Procs = p
		mp, err := Run(cur)
		if err != nil {
			return nil, err
		}
		out[p] = b.Seconds / mp.Seconds
	}
	return out, nil
}
