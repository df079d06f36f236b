// Command occbench regenerates the paper's evaluation artifacts on the
// simulated Paragon/PFS platform, and shows one kernel version's path
// from plan to I/O:
//
//	occbench -table 2|3           # Table 2 (16 procs), Table 3 (16..128)
//	occbench -figure 1|2|3        # the three figures
//	occbench -ablation tiling|memory|order|storage|engine|optimal|blocked
//	occbench -show plan|trace|viz -kernel mxm -version c-opt
//
// -show plan prints layouts, locality and tiling (-code adds the tiled
// pseudo-code, -demo swaps in the Section-3.1 worked example), -show
// trace the per-array I/O, the request sizes and the first -head
// requests, -show viz the I/O-node and processor bars behind Tables 2
// and 3. -n2/-n3/-n4, -procs, -ionodes, -memfrac, -kernels and
// -cache-tiles set the scale, platform and tile engine; -trace-out and
// -metrics-out write a Chrome trace (open in Perfetto) and Prometheus
// metrics of the run.
//
// The four kernels' exact I/O-call counts and simulated makespans are
// gated by `go test ./internal/exp -run TestKernelGateGolden`, not by
// this command.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"outcore/internal/exp"
	"outcore/internal/obs"
	"outcore/internal/suite"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "occbench:", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a bad command line: main exits 2 for it and 1 for a
// run that failed.
type usageError struct{ error }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("occbench", flag.ContinueOnError)
	table := fs.Int("table", 0, "reproduce Table 2 or 3")
	figure := fs.Int("figure", 0, "reproduce Figure 1, 2 or 3")
	ablation := fs.String("ablation", "", "ablation: tiling, memory, order, storage, engine, optimal, blocked")
	show := fs.String("show", "", "show one kernel version: plan, trace or viz")
	kernels := fs.String("kernels", "", "comma-separated kernel subset (default: all ten)")
	kernel := fs.String("kernel", "mxm", "kernel for single-kernel modes")
	n2 := fs.Int64("n2", 128, "extent of 2-D array dimensions")
	n3 := fs.Int64("n3", 24, "extent of 3-D array dimensions")
	n4 := fs.Int64("n4", 8, "extent of 4-D array dimensions")
	procs := fs.Int("procs", 16, "processor count for Table 2 and -show viz")
	ionodes := fs.Int("ionodes", 64, "I/O nodes in the simulated PFS")
	memFrac := fs.Int64("memfrac", 128, "memory budget = data size / memfrac")
	cacheTiles := fs.Int("cache-tiles", 0, "tile-engine cache capacity in tiles (0 = engine off for tables; engine ablation defaults to 8)")
	version := fs.String("version", "c-opt", "program version for the engine ablation and -show")
	demo := fs.Bool("demo", false, "with -show plan: the paper's Section-3.1 worked example instead of -kernel")
	code := fs.Bool("code", false, "with -show plan: print each nest's tiled pseudo-code")
	head := fs.Int("head", 0, "with -show trace: print the first N requests")
	maxCall := fs.Int64("maxcall", 8192, "with -show trace: per-call element cap (0 = unlimited)")
	traceOut := fs.String("trace-out", "", "write a Chrome trace_event JSON capture of the run to this file (view in Perfetto)")
	metricsOut := fs.String("metrics-out", "", "write the metrics registry in Prometheus text format to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return usageError{err}
	}
	for _, f := range []struct {
		name   string
		v, min int64
	}{
		{"n2", *n2, 1}, {"n3", *n3, 1}, {"n4", *n4, 1}, {"procs", int64(*procs), 1},
		{"ionodes", int64(*ionodes), 1}, {"memfrac", *memFrac, 1},
		{"head", int64(*head), 0}, {"maxcall", *maxCall, 0},
	} {
		if f.v < f.min {
			return usageError{fmt.Errorf("-%s: %d out of range (valid: >= %d)", f.name, f.v, f.min)}
		}
	}

	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

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
	ver := suite.Version(*version)

	var out string
	var err error
	switch {
	case *table == 2:
		out, err = rendered(exp.Table2(opts))
		out = fmt.Sprintf("Table 2: execution on %d processors (col in seconds, rest %% of col)\n\n", *procs) + out
	case *table == 3:
		out, err = rendered(exp.Table3(opts, []int{16, 32, 64, 128}))
		out = "Table 3: speedups relative to each version's 1-processor run\n\n" + out
	case *figure == 1:
		out, err = exp.Figure1()
	case *figure == 2:
		out = exp.Figure2()
	case *figure == 3:
		out, err = rendered(exp.Figure3())
	case *ablation == "tiling":
		out, err = rendered(exp.TilingAblation(opts))
	case *ablation == "memory":
		out, err = rendered(exp.MemorySweep(opts, *kernel, nil))
		out = fmt.Sprintf("Memory sweep for %s (c-opt)\n", *kernel) + out
	case *ablation == "order":
		out, err = rendered(exp.OrderAblation(opts, *kernel))
	case *ablation == "storage":
		out = exp.StorageDemo()
	case *ablation == "engine":
		// Default to a useful cache, but respect an explicit
		// -cache-tiles 0.
		if !set["cache-tiles"] {
			opts.CacheTiles = 8
		}
		out, err = rendered(exp.EngineDemo(opts, *kernel, ver))
	case *ablation == "blocked":
		out, err = rendered(exp.BlockedAblation(*n2, nil))
	case *ablation == "optimal":
		out, err = rendered(exp.OptimalAblation(opts))
	case *show == "plan":
		out, err = exp.ShowPlan(opts, *kernel, ver, *demo, *code)
	case *show == "trace":
		out, err = exp.ShowTrace(opts, *kernel, ver, *maxCall, *head)
	case *show == "viz":
		out, err = exp.ShowViz(opts, *kernel, ver)
	case *show != "":
		return usageError{fmt.Errorf("-show: unknown view %q (valid: plan, trace, viz)", *show)}
	default:
		fs.Usage()
		return usageError{errors.New("choose one of -table, -figure, -ablation or -show")}
	}
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, out)

	if *traceOut != "" {
		if err := writeFile(*traceOut, sink.Trace.WriteChrome); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d events, %d dropped; open in https://ui.perfetto.dev)\n",
			*traceOut, sink.Trace.Total()-sink.Trace.Dropped(), sink.Trace.Dropped())
	}
	if *metricsOut != "" {
		if err := writeFile(*metricsOut, sink.Metrics.WritePrometheus); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *metricsOut)
	}
	return nil
}

// rendered returns r's rendering, or err if the run that made r failed.
func rendered[T interface{ Render() string }](r T, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
