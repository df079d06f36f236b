package exp

import (
	"fmt"
	"math/rand"
	"strings"

	"outcore/internal/codegen"
	"outcore/internal/ir"
	"outcore/internal/ooc"
	"outcore/internal/suite"
)

// EngineResult compares one kernel's data-backed execution under the
// sequential out-of-core runtime against the cached tile engine.
type EngineResult struct {
	Kernel  string
	Version suite.Version

	SeqCalls int64 // backend I/O calls, sequential runtime
	EngCalls int64 // backend I/O calls, cached engine
	SeqElems int64 // elements moved, sequential runtime
	EngElems int64 // elements moved, cached engine

	SeqMaxDiff float64 // sequential result vs in-core reference
	EngMaxDiff float64 // engine result vs in-core reference
	MaxDiff    float64 // engine result vs sequential result (bitwise goal: 0)

	Cache ooc.EngineStats

	SeqTrace []ooc.Request // per-call trace, sequential runtime
	EngTrace []ooc.Request // per-call trace, cached engine
}

// EngineDemo executes the kernel for real (data-backed, in-memory
// files) twice — once through the plain sequential runtime and once
// through the tile engine with an o.CacheTiles cache — and reports I/O
// calls, cache behaviour and result fidelity. The kernel's outer timing loop runs Iter times, exactly as
// the simulator's measurements do, so cross-iteration tile reuse shows
// up as cache hits.
func EngineDemo(o Options, kernel string, version suite.Version) (EngineResult, error) {
	k, err := kernelNamed(kernel)
	if err != nil {
		return EngineResult{}, err
	}
	res := EngineResult{Kernel: k.Name, Version: version}

	prog := k.Build(o.Cfg)
	plan, err := suite.PlanFor(prog, version)
	if err != nil {
		return EngineResult{}, err
	}
	budget := suite.MemBudget(prog, o.MemFrac)
	opts := codegen.Options{Strategy: suite.StrategyFor(version), MemBudget: budget}

	// Deterministic initial contents, shared by all three executions.
	init := ir.NewStore(prog.Arrays...)
	rng := rand.New(rand.NewSource(1999))
	for _, a := range prog.Arrays {
		d := init.Data(a)
		for i := range d {
			d[i] = rng.Float64()
		}
	}
	ref := init.Clone()
	for it := 0; it < k.Iter; it++ {
		prog.Execute(ref)
	}

	run := func(eng bool) (*ir.Store, ooc.Stats, []ooc.Request, error) {
		d, err := codegen.SetupDisk(prog, plan, o.PFS.StripeElems, init)
		if err != nil {
			return nil, ooc.Stats{}, nil, err
		}
		d.Observe(o.Obs)
		d.Record = true
		procOpts := opts
		procOpts.Obs = o.Obs
		var engine *ooc.Engine
		if eng {
			engine = ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: o.CacheTiles, Obs: o.Obs})
			procOpts.Engine = engine
		}
		mem := ooc.NewMemory(budget)
		for it := 0; it < k.Iter; it++ {
			if _, err := codegen.RunProgram(prog, plan, d, mem, procOpts); err != nil {
				return nil, ooc.Stats{}, nil, err
			}
		}
		if engine != nil {
			if err := engine.Close(); err != nil {
				return nil, ooc.Stats{}, nil, err
			}
			res.Cache = engine.Stats()
		}
		return codegen.DiskToStore(prog, d), d.Stats.Snapshot(), d.Trace, nil
	}

	seq, seqStats, seqTrace, err := run(false)
	if err != nil {
		return EngineResult{}, fmt.Errorf("exp: sequential run of %s/%s: %w", k.Name, version, err)
	}
	got, engStats, engTrace, err := run(true)
	if err != nil {
		return EngineResult{}, fmt.Errorf("exp: engine run of %s/%s: %w", k.Name, version, err)
	}

	res.SeqCalls, res.SeqElems = seqStats.Calls(), seqStats.ElemsRead+seqStats.ElemsWritten
	res.EngCalls, res.EngElems = engStats.Calls(), engStats.ElemsRead+engStats.ElemsWritten
	res.SeqTrace, res.EngTrace = seqTrace, engTrace
	for _, a := range prog.Arrays {
		if d := ir.MaxAbsDiff(ref, seq, a); d > res.SeqMaxDiff {
			res.SeqMaxDiff = d
		}
		if d := ir.MaxAbsDiff(ref, got, a); d > res.EngMaxDiff {
			res.EngMaxDiff = d
		}
		if d := ir.MaxAbsDiff(seq, got, a); d > res.MaxDiff {
			res.MaxDiff = d
		}
	}
	return res, nil
}

// Render formats the comparison for occbench.
func (r EngineResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (%s): sequential runtime vs cached tile engine\n\n", r.Kernel, r.Version)
	fmt.Fprintf(&b, "%-28s %14s %14s\n", "", "sequential", "engine")
	fmt.Fprintf(&b, "%-28s %14d %14d\n", "backend I/O calls", r.SeqCalls, r.EngCalls)
	fmt.Fprintf(&b, "%-28s %14d %14d\n", "elements moved", r.SeqElems, r.EngElems)
	fmt.Fprintf(&b, "%-28s %14.3g %14.3g\n", "max |diff| vs reference", r.SeqMaxDiff, r.EngMaxDiff)
	fmt.Fprintf(&b, "\ncache: %d hits / %d misses (hit rate %.1f%%), %d evictions, %d write-backs\n",
		r.Cache.Hits, r.Cache.Misses, 100*r.Cache.HitRate(), r.Cache.Evictions, r.Cache.Writebacks)
	return b.String()
}
