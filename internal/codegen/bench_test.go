package codegen_test

import (
	"math/rand"
	"testing"

	"outcore/internal/codegen"
	"outcore/internal/core"
	"outcore/internal/ir"
	"outcore/internal/ooc"
	"outcore/internal/suite"
)

// BenchmarkExecuteEngine times one run of a kernel under the c-opt plan
// through a synchronous 8-tile engine at n2=64 — the executor the
// repository benchmark's kernels workload drives — and reports its
// allocations. mat and trans store their written array without reading
// it; mxm and syr2k read and write it back. Disk set-up and the
// engine's final flush are outside the timed region.
func BenchmarkExecuteEngine(b *testing.B) {
	for _, name := range []string{"mat", "mxm", "trans", "syr2k"} {
		b.Run(name, func(b *testing.B) {
			k, _ := suite.ByName(name)
			prog := k.Build(suite.Config{N2: 64, N3: 12, N4: 4})
			plan, err := suite.PlanFor(prog, suite.COpt)
			if err != nil {
				b.Fatal(err)
			}
			budget := suite.MemBudget(prog, 128)
			init := ir.NewStore(prog.Arrays...)
			rng := rand.New(rand.NewSource(1))
			for _, a := range prog.Arrays {
				for i, d := 0, init.Data(a); i < len(d); i++ {
					d[i] = rng.Float64()
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d, err := codegen.SetupDisk(prog, plan, 2*64, init)
				if err != nil {
					b.Fatal(err)
				}
				eng := ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 8})
				b.StartTimer()
				_, err = codegen.RunProgram(prog, plan, d, ooc.NewMemory(budget), codegen.Options{
					Strategy: suite.StrategyFor(suite.COpt), MemBudget: budget, Engine: eng})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if err := eng.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// buildCase is one kernel under the c-opt plan at the repository
// benchmark's kernels configuration: n2=64, N3 12, N4 4 and a budget of
// 1/128 of the program's data, each of whose nests Build compiles.
type buildCase struct {
	name string
	prog *ir.Program
	plan *core.Plan
	opts codegen.Options
}

func buildCases(tb testing.TB) []buildCase {
	var out []buildCase
	for _, name := range []string{"mat", "mxm", "trans", "syr2k"} {
		k, _ := suite.ByName(name)
		prog := k.Build(suite.Config{N2: 64, N3: 12, N4: 4})
		plan, err := suite.PlanFor(prog, suite.COpt)
		if err != nil {
			tb.Fatal(err)
		}
		opts := codegen.Options{Strategy: suite.StrategyFor(suite.COpt), MemBudget: suite.MemBudget(prog, 128)}
		out = append(out, buildCase{name, prog, plan, opts})
	}
	return out
}

func (c buildCase) build(tb testing.TB) {
	for _, n := range c.prog.Nests {
		if _, err := codegen.Build(n, c.plan.Nests[n], c.opts); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestBuildAllocs pins the allocations of compiling each kernel's
// schedule: RunProgram compiles every nest again on every run, so they
// recur once per run and processor. The counts are exact; a change
// that moves them must say so here.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	want := map[string]float64{"mat": 51, "mxm": 72, "trans": 49, "syr2k": 76}
	for _, c := range buildCases(t) {
		if got := testing.AllocsPerRun(50, func() { c.build(t) }); got != want[c.name] {
			t.Errorf("%s: Build allocates %v objects per call, want %v", c.name, got, want[c.name])
		}
	}
}

// BenchmarkBuild times compiling each kernel's schedule, the compile
// step RunProgram repeats on every run, and reports its allocations.
func BenchmarkBuild(b *testing.B) {
	for _, c := range buildCases(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.build(b)
			}
		})
	}
}
