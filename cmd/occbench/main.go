// Command occbench regenerates the paper's evaluation artifacts on the
// simulated Paragon/PFS platform:
//
//	occbench -table 2                 # Table 2 (normalized times, 16 procs)
//	occbench -table 3                 # Table 3 (speedups 16..128 procs)
//	occbench -figure 1|2|3            # the three figures
//	occbench -ablation tiling|memory|order|storage
//	occbench -ablation engine -kernel mxm   # sequential runtime vs
//	                                        # cached tile engine
//
// Scale and platform knobs: -n2/-n3/-n4 (array extents), -procs,
// -ionodes, -memfrac, -kernels (comma-separated subset).
// Tile-engine knob: -cache-tiles (LRU tile-cache capacity; > 0 also
// routes the table measurements through the cached engine).
// Observability: -trace-out file.json writes a Chrome trace_event
// capture of the run (open in Perfetto), -metrics-out file.prom writes
// the metrics registry in Prometheus text format.
//
// The four kernels' exact I/O-call counts and simulated makespans are
// gated by `go test ./internal/exp -run TestKernelGateGolden`, not by
// this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"outcore/internal/exp"
	"outcore/internal/obs"
	"outcore/internal/suite"
)

func main() {
	table := flag.Int("table", 0, "reproduce Table 2 or 3")
	figure := flag.Int("figure", 0, "reproduce Figure 1, 2 or 3")
	ablation := flag.String("ablation", "", "ablation: tiling, memory, order, storage, optimal, blocked")
	kernels := flag.String("kernels", "", "comma-separated kernel subset (default: all ten)")
	kernel := flag.String("kernel", "mxm", "kernel for single-kernel ablations")
	n2 := flag.Int64("n2", 128, "extent of 2-D array dimensions")
	n3 := flag.Int64("n3", 24, "extent of 3-D array dimensions")
	n4 := flag.Int64("n4", 8, "extent of 4-D array dimensions")
	procs := flag.Int("procs", 16, "processor count for Table 2")
	ionodes := flag.Int("ionodes", 64, "I/O nodes in the simulated PFS")
	memFrac := flag.Int64("memfrac", 128, "memory budget = data size / memfrac")
	cacheTiles := flag.Int("cache-tiles", 0, "tile-engine cache capacity in tiles (0 = engine off for tables; engine ablation defaults to 8)")
	version := flag.String("version", "c-opt", "program version for the engine ablation")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON capture of the run to this file (view in Perfetto)")
	metricsOut := flag.String("metrics-out", "", "write the metrics registry in Prometheus text format to this file")
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// -trace-out / -metrics-out attach an observability sink that every
	// run mode threads through the engine, runtime and PFS simulator.
	var sink *obs.Sink
	if *traceOut != "" || *metricsOut != "" {
		sink = &obs.Sink{}
		if *traceOut != "" {
			sink.Trace = obs.NewTrace(obs.DefaultTraceCap)
		}
		if *metricsOut != "" {
			sink.Metrics = obs.NewRegistry()
		}
	}

	opts := exp.Options{
		Cfg:        suite.Config{N2: *n2, N3: *n3, N4: *n4},
		PFS:        exp.ScaledPFS(*n2, *ionodes),
		MemFrac:    *memFrac,
		Procs:      *procs,
		CacheTiles: *cacheTiles,
		Obs:        sink,
	}
	if *kernels != "" {
		opts.Kernels = strings.Split(*kernels, ",")
	}

	switch {
	case *table == 2:
		res, err := exp.Table2(opts)
		fail(err)
		fmt.Printf("Table 2: execution on %d processors (col in seconds, rest %% of col)\n\n", *procs)
		fmt.Print(res.Render())
	case *table == 3:
		res, err := exp.Table3(opts, []int{16, 32, 64, 128})
		fail(err)
		fmt.Println("Table 3: speedups relative to each version's 1-processor run")
		fmt.Println()
		fmt.Print(res.Render())
	case *figure == 1:
		out, err := exp.Figure1()
		fail(err)
		fmt.Print(out)
	case *figure == 2:
		fmt.Print(exp.Figure2())
	case *figure == 3:
		res, err := exp.Figure3()
		fail(err)
		fmt.Print(res.Render())
	case *ablation == "tiling":
		rows, err := exp.TilingAblation(opts)
		fail(err)
		fmt.Println("Tiling ablation: I/O calls of the c-opt plan under both strategies")
		fmt.Printf("%-10s %14s %14s\n", "program", "traditional", "out-of-core")
		for _, r := range rows {
			fmt.Printf("%-10s %14d %14d\n", r.Kernel, r.Traditional, r.OutOfCore)
		}
	case *ablation == "memory":
		rows, err := exp.MemorySweep(opts, *kernel, nil)
		fail(err)
		fmt.Printf("Memory sweep for %s (c-opt)\n%-8s %12s %12s\n", *kernel, "1/frac", "seconds", "calls")
		for _, r := range rows {
			fmt.Printf("%-8d %12.3f %12d\n", r.Frac, r.Seconds, r.Calls)
		}
	case *ablation == "order":
		res, err := exp.OrderAblation(opts, *kernel)
		fail(err)
		fmt.Printf("Nest-order ablation for %s: cost order %d calls, reversed %d calls\n",
			res.Kernel, res.CostOrderCalls, res.ReverseOrderCalls)
	case *ablation == "storage":
		fmt.Print(exp.StorageDemo())
	case *ablation == "engine":
		// Default to a useful cache, but respect an explicit
		// -cache-tiles 0.
		if !set["cache-tiles"] {
			opts.CacheTiles = 8
		}
		res, err := exp.EngineDemo(opts, *kernel, suite.Version(*version))
		fail(err)
		fmt.Print(res.Render())
	case *ablation == "blocked":
		rows, err := exp.BlockedAblation(*n2, nil)
		fail(err)
		fmt.Println("Blocked layouts: I/O calls to sweep all aligned BxB tiles")
		fmt.Printf("%-6s %12s %12s %12s\n", "B", "row-major", "col-major", "blocked(B)")
		for _, r := range rows {
			fmt.Printf("%-6d %12d %12d %12d\n", r.Tile, r.RowCalls, r.ColCalls, r.BlockedCalls)
		}
	case *ablation == "optimal":
		rows, err := exp.OptimalAblation(opts)
		fail(err)
		fmt.Println("Greedy propagation (c-opt) vs exact optimal assignment")
		fmt.Printf("%-10s %6s %14s %14s %12s %12s\n", "program", "refs", "c-opt good", "optimal good", "c-opt score", "opt score")
		for _, r := range rows {
			fmt.Printf("%-10s %6d %14d %14d %12.2f %12.2f\n",
				r.Kernel, r.TotalRefs, r.CombinedGood, r.OptimalGood, r.CombinedScore, r.OptimalScore)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		fail(err)
		fail(sink.Trace.WriteChrome(f))
		fail(f.Close())
		fmt.Printf("wrote %s (%d events, %d dropped; open in https://ui.perfetto.dev)\n",
			*traceOut, sink.Trace.Total()-sink.Trace.Dropped(), sink.Trace.Dropped())
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		fail(err)
		fail(sink.Metrics.WritePrometheus(f))
		fail(f.Close())
		fmt.Printf("wrote %s\n", *metricsOut)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "occbench:", err)
		os.Exit(1)
	}
}
