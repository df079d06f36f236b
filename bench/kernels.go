package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"outcore/internal/codegen"
	"outcore/internal/core"
	"outcore/internal/ir"
	"outcore/internal/obs"
	"outcore/internal/ooc"
	"outcore/internal/suite"
)

// The kernels workload is the paper's own experiment: the four
// programs of `occbench -suite`, compiled to the c-opt plan and run
// through the tile engine in the suite's "engine" configuration
// (8 cached tiles, synchronous). Sizes are the ones BENCH_baseline.json
// was recorded at (n2=64, per-call cap 2*n2), not occbench's n2=128
// default: at 128 one cycle takes ~5 s here and eight rounds would not
// fit the run budget.
var (
	kernelNames  = []string{"mat", "mxm", "trans", "syr2k"}
	kernelConfig = suite.Config{N2: 64, N3: 12, N4: 4}
)

const (
	kernelCacheTiles = 8
	kernelMemFrac    = 128
)

// kernelCallCap is the suite's scaled stripe: one call moves at most
// 2*N2 elements.
func kernelCallCap() int64 { return 2 * kernelConfig.N2 }

// kernelProg is one compiled kernel with its inputs and the answer the
// in-core reference execution gives for them.
type kernelProg struct {
	k      suite.Kernel
	prog   *ir.Program
	plan   *core.Plan
	opts   codegen.Options
	budget int64
	init   *ir.Store
	ref    *ir.Store
	planUS float64 // time suite.PlanFor took
}

type kernelSet struct {
	progs []kernelProg
	elems int64 // elements in all arrays of all four programs
	// compulsory is the fewest calls that move every array once:
	// the sum over arrays of ceil(size / call cap).
	compulsory int64
}

// newKernelSet builds and plans the four programs under version v and
// runs the in-core reference. The inputs are seeded, the same for every
// cycle of a run.
func newKernelSet(v suite.Version, seed int64) (*kernelSet, error) {
	ks := &kernelSet{}
	for _, name := range kernelNames {
		k, ok := suite.ByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", name)
		}
		kp := kernelProg{k: k, prog: k.Build(kernelConfig)}
		t0 := time.Now()
		plan, err := suite.PlanFor(kp.prog, v)
		if err != nil {
			return nil, fmt.Errorf("plan %s/%s: %w", name, v, err)
		}
		kp.planUS = float64(time.Since(t0)) / 1e3
		kp.plan = plan
		kp.budget = suite.MemBudget(kp.prog, kernelMemFrac)
		kp.opts = codegen.Options{Strategy: suite.StrategyFor(v), MemBudget: kp.budget}
		kp.init = ir.NewStore(kp.prog.Arrays...)
		rng := rand.New(rand.NewSource(streamSeed(seed, "kernels", name)))
		for _, a := range kp.prog.Arrays {
			d := kp.init.Data(a)
			for i := range d {
				d[i] = rng.Float64()
			}
			ks.elems += int64(len(d))
			ks.compulsory += (int64(len(d)) + kernelCallCap() - 1) / kernelCallCap()
		}
		kp.ref = kp.init.Clone()
		for it := 0; it < k.Iter; it++ {
			kp.prog.Execute(kp.ref)
		}
		ks.progs = append(ks.progs, kp)
	}
	return ks, nil
}

// cycleStat is what one cycle (all four kernels once) did.
type cycleStat struct {
	ok   bool
	busy time.Duration // inside RunProgram + Engine.Close, the four summed
	cpu  float64       // process CPU-seconds over the same intervals
	io   ooc.Stats
	eng  ooc.EngineStats
}

// cycle runs every kernel once on a fresh disk loaded with the inputs
// and compares each output array with the reference, bit for bit.
// Disk set-up and the comparison are outside the timed intervals.
func (ks *kernelSet) cycle(sink *obs.Sink, perturb bool) (cycleStat, error) {
	cs := cycleStat{ok: true}
	for i, kp := range ks.progs {
		// Start every kernel from a collected heap: without this the
		// process's peak RSS (14 MB, mostly runtime) swings 17% with GC
		// timing; with it, 7%. Outside the timed interval.
		runtime.GC()
		d, err := codegen.SetupDisk(kp.prog, kp.plan, kernelCallCap(), kp.init)
		if err != nil {
			return cs, err
		}
		eng := ooc.NewEngine(d, ooc.EngineOptions{Workers: 0, CacheTiles: kernelCacheTiles, Obs: sink})
		opts := kp.opts
		opts.Engine = eng
		opts.Obs = sink
		mem := ooc.NewMemory(kp.budget)

		cpu0, t0 := cpuSeconds(), time.Now()
		for it := 0; it < kp.k.Iter; it++ {
			if _, err := codegen.RunProgram(kp.prog, kp.plan, d, mem, opts); err != nil {
				return cs, fmt.Errorf("run %s: %w", kp.k.Name, err)
			}
		}
		if err := eng.Close(); err != nil {
			return cs, fmt.Errorf("close %s: %w", kp.k.Name, err)
		}
		cs.busy += time.Since(t0)
		cs.cpu += cpuSeconds() - cpu0

		cs.io.Add(d.Stats.Snapshot())
		addEngine(&cs.eng, eng.Stats())

		got := codegen.DiskToStore(kp.prog, d)
		if perturb && i == 0 {
			got.Data(kp.prog.Arrays[0])[0] += 1
		}
		for _, a := range kp.prog.Arrays {
			if ir.MaxAbsDiff(kp.ref, got, a) != 0 {
				cs.ok = false
			}
		}
	}
	return cs, nil
}
