package codegen_test

import (
	"math/rand"
	"testing"

	"outcore/internal/codegen"
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
