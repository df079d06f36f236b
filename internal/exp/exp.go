// Package exp is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (Section 4) from the simulated
// platform, in the paper's own report format.
//
//	Table 1  — kernel inventory (from internal/suite)
//	Table 2  — execution time on 16 processors: col in seconds, the
//	           other five versions as a percentage of col, plus the
//	           column averages
//	Table 3  — speedups at 16/32/64/128 processors relative to each
//	           version's own single-node run
//	Figure 1 — normalization + interference-graph components
//	Figure 2 — file layouts and their hyperplane vectors
//	Figure 3 — I/O calls per tile under traditional vs out-of-core
//	           tiling
//
// ShowPlan, ShowTrace and ShowViz render one kernel version's plan,
// dry-run I/O trace and simulated PFS contention (occbench -show).
//
// Absolute seconds depend on the simulator's constants; the claims
// under test are the relative shapes (orderings, ratios, crossover
// points), which EXPERIMENTS.md compares against the paper.
package exp

import (
	"fmt"
	"sort"
	"strings"

	"outcore/internal/obs"
	"outcore/internal/pfs"
	"outcore/internal/sim"
	"outcore/internal/suite"
)

// Options configures a harness run. Every field is used as given
// (occbench rejects out-of-range values before a run); a zero
// IterPerSec takes the simulator's default.
type Options struct {
	Cfg        suite.Config
	PFS        pfs.Config
	MemFrac    int64
	IterPerSec float64
	Kernels    []string // subset of kernel names; nil = all ten
	Procs      int      // Table-2 processor count (paper: 16)
	// CacheTiles > 0 runs every measurement through the tile engine's
	// LRU cache of that capacity (occbench -cache-tiles).
	CacheTiles int
	// Obs observes every measurement the harness runs: trace events
	// from the engine/PFS and metrics registry series (occbench's
	// -trace-out / -metrics-out flags hang off it).
	Obs *obs.Sink
}

// ScaledPFS returns a PFS configuration whose geometry scales with the
// array extent so the call-size economics stay balanced at reduced
// problem sizes: the stripe is kept at 2x the array dimension (64 KB
// vs 4096 doubles on the Paragon), and the per-element transfer time
// is fixed at a quarter of the per-request overhead. The balance keeps
// the execution-time ratios between versions in the paper's range:
// call-count reductions matter (the paper's thesis) without letting a
// 100x call-count gap translate into a 100x time gap, because every
// version still has to move roughly the same bytes through the same
// I/O nodes.
func ScaledPFS(n2 int64, ioNodes int) pfs.Config {
	cfg := pfs.DefaultConfig()
	cfg.IONodes = ioNodes
	cfg.NodeBandwidth = 500 // elements/s/node: 2 ms per element, 8 ms per request
	if n2 > 0 {
		cfg.StripeElems = 2 * n2
	}
	return cfg
}

func (o *Options) kernels() ([]suite.Kernel, error) {
	if len(o.Kernels) == 0 {
		return suite.Kernels, nil
	}
	var out []suite.Kernel
	for _, name := range o.Kernels {
		k, err := kernelNamed(name)
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// kernelNamed looks a kernel up by name, naming the valid ones if the
// name is not among them.
func kernelNamed(name string) (suite.Kernel, error) {
	k, ok := suite.ByName(name)
	if !ok {
		return k, fmt.Errorf("exp: unknown kernel %q (valid: %s)", name, strings.Join(suite.KernelNames(), ", "))
	}
	return k, nil
}

func (o Options) setup(k suite.Kernel, v suite.Version, procs int) sim.Setup {
	return sim.Setup{
		Kernel:     k,
		Cfg:        o.Cfg,
		Version:    v,
		Procs:      procs,
		MemFrac:    o.MemFrac,
		PFS:        o.PFS,
		IterPerSec: o.IterPerSec,
		CacheTiles: o.CacheTiles,
		Obs:        o.Obs,
	}
}

// Table2Row is one kernel's Table-2 entry.
type Table2Row struct {
	Kernel     string
	ColSeconds float64
	// Percent holds each version's execution time as a percentage of
	// col (col itself is 100).
	Percent map[suite.Version]float64
	Calls   map[suite.Version]int64
}

// Table2Result is the full table plus the paper's average row.
type Table2Result struct {
	Rows    []Table2Row
	Average map[suite.Version]float64
}

// Table2 measures all versions of the selected kernels on o.Procs
// processors.
func Table2(o Options) (Table2Result, error) {
	kernels, err := o.kernels()
	if err != nil {
		return Table2Result{}, err
	}
	var res Table2Result
	sums := map[suite.Version]float64{}
	for _, k := range kernels {
		row := Table2Row{
			Kernel:  k.Name,
			Percent: map[suite.Version]float64{},
			Calls:   map[suite.Version]int64{},
		}
		times := map[suite.Version]float64{}
		for _, v := range suite.Versions {
			m, err := sim.Run(o.setup(k, v, o.Procs))
			if err != nil {
				return Table2Result{}, fmt.Errorf("table 2: %s/%s: %w", k.Name, v, err)
			}
			times[v] = m.Seconds
			row.Calls[v] = m.Calls
		}
		row.ColSeconds = times[suite.Col]
		for _, v := range suite.Versions {
			row.Percent[v] = 100 * times[v] / times[suite.Col]
			sums[v] += row.Percent[v]
		}
		res.Rows = append(res.Rows, row)
	}
	res.Average = map[suite.Version]float64{}
	for _, v := range suite.Versions {
		res.Average[v] = sums[v] / float64(len(res.Rows))
	}
	return res, nil
}

// Render formats the table like the paper's Table 2 (col in seconds,
// the rest as percentages).
func (r Table2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s", "program", "col(s)")
	for _, v := range suite.Versions[1:] {
		fmt.Fprintf(&b, " %8s", v)
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %10.2f", row.Kernel, row.ColSeconds)
		for _, v := range suite.Versions[1:] {
			fmt.Fprintf(&b, " %8.1f", row.Percent[v])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-10s %10s", "average:", "")
	for _, v := range suite.Versions[1:] {
		fmt.Fprintf(&b, " %8.1f", r.Average[v])
	}
	b.WriteByte('\n')
	return b.String()
}

// Table3Row is one kernel+version speedup series.
type Table3Row struct {
	Kernel  string
	Version suite.Version
	Speedup map[int]float64 // procs -> speedup vs own 1-proc run
}

// Table3Result is the speedup table.
type Table3Result struct {
	Procs []int
	Rows  []Table3Row
}

// Table3 measures speedups for the selected kernels at the given
// processor counts (paper: 16, 32, 64, 128 with 64 I/O nodes).
func Table3(o Options, procs []int) (Table3Result, error) {
	if len(procs) == 0 {
		procs = []int{16, 32, 64, 128}
	}
	kernels, err := o.kernels()
	if err != nil {
		return Table3Result{}, err
	}
	res := Table3Result{Procs: procs}
	for _, k := range kernels {
		for _, v := range suite.Versions {
			sp, err := sim.Speedups(o.setup(k, v, 1), procs)
			if err != nil {
				return Table3Result{}, fmt.Errorf("table 3: %s/%s: %w", k.Name, v, err)
			}
			res.Rows = append(res.Rows, Table3Row{Kernel: k.Name, Version: v, Speedup: sp})
		}
	}
	return res, nil
}

// Render formats the speedup table like the paper's Table 3.
func (r Table3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-8s", "program", "version")
	procs := append([]int(nil), r.Procs...)
	sort.Ints(procs)
	for _, p := range procs {
		fmt.Fprintf(&b, " %8d", p)
	}
	b.WriteByte('\n')
	prev := ""
	for _, row := range r.Rows {
		name := ""
		if row.Kernel != prev {
			name = row.Kernel
			prev = row.Kernel
		}
		fmt.Fprintf(&b, "%-10s %-8s", name, row.Version)
		for _, p := range procs {
			fmt.Fprintf(&b, " %8.1f", row.Speedup[p])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
