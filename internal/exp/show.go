package exp

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"outcore/internal/codegen"
	"outcore/internal/core"
	"outcore/internal/ir"
	"outcore/internal/ooc"
	"outcore/internal/sim"
	"outcore/internal/suite"
)

// dryCount dry-runs prog under plan on a measurement-only disk whose
// calls move at most maxCall elements (0 = unlimited): the schedule's
// control structure and I/O accounting run, no data moves. The disk's
// Stats and PerFile hold the counts and, when record is set, its Trace
// holds every request in the order it was made.
func dryCount(prog *ir.Program, plan *core.Plan, maxCall int64, opts codegen.Options, record bool) (*ooc.Disk, codegen.ExecStats, error) {
	d, err := codegen.SetupDiskOn(ooc.NewDisk(maxCall).NoBacking(), prog, plan, nil)
	if err != nil {
		return nil, codegen.ExecStats{}, err
	}
	d.Record = record
	opts.DryRun = true
	st, err := codegen.RunProgram(prog, plan, d, ooc.NewMemory(opts.MemBudget), opts)
	return d, st, err
}

// workedExample builds the paper's Section-3.1 fragment on n x n
// arrays: U(i,j) = V(j,i) + 1 in one nest, V(i,j) = W(j,i) + 2 in the
// next, so V is read transposed and then written.
func workedExample(n int64) *ir.Program {
	u := ir.NewArray("U", n, n)
	v := ir.NewArray("V", n, n)
	w := ir.NewArray("W", n, n)
	return &ir.Program{
		Name:   "worked-example",
		Arrays: []*ir.Array{u, v, w},
		Nests: []*ir.Nest{
			{ID: 0, Loops: ir.Rect(n, n), Body: []*ir.Stmt{
				ir.Assign(ir.RefIdx(u, 2, 0, 1), []ir.Ref{ir.RefIdx(v, 2, 1, 0)}, "add1", ir.AddConst(1)),
			}},
			{ID: 1, Loops: ir.Rect(n, n), Body: []*ir.Stmt{
				ir.Assign(ir.RefIdx(v, 2, 0, 1), []ir.Ref{ir.RefIdx(w, 2, 1, 0)}, "add2", ir.AddConst(2)),
			}},
		},
	}
}

// ShowPlan renders the optimizer's decisions for one kernel version, or
// for the Section-3.1 worked example (on o.Cfg.N2-sized arrays) when
// demo is set: the input program, the plan with its derivation, the
// locality of every reference and every nest's tiling under the memory
// budget; code adds each nest's tiled pseudo-code.
func ShowPlan(o Options, kernel string, v suite.Version, demo, code bool) (string, error) {
	prog := workedExample(o.Cfg.N2)
	if !demo {
		k, err := kernelNamed(kernel)
		if err != nil {
			return "", err
		}
		prog = k.Build(o.Cfg)
	}
	plan, err := suite.PlanFor(prog, v)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== input program ===\n%s\n=== %s plan ===\n%s", prog, v, plan)
	if len(plan.Notes) > 0 {
		b.WriteString("derivation:\n")
		for _, note := range plan.Notes {
			fmt.Fprintln(&b, " ", note)
		}
	}
	b.WriteString("\n=== per-reference locality ===\n")
	for _, rep := range plan.Report(prog, nil) {
		fmt.Fprintf(&b, "  nest %d  %-16s %s\n", rep.Nest.ID, rep.Ref, rep.Locality)
	}
	budget := suite.MemBudget(prog, o.MemFrac)
	fmt.Fprintf(&b, "\n=== tiling ===\nmemory budget: %d elements (1/%d of %d)\n", budget, o.MemFrac, suite.TotalElems(prog))
	for _, n := range prog.Nests {
		sched, err := codegen.Build(n, plan.Nests[n], codegen.Options{Strategy: suite.StrategyFor(v), MemBudget: budget})
		if err != nil {
			fmt.Fprintf(&b, "  nest %d: %v\n", n.ID, err)
			continue
		}
		fmt.Fprintf(&b, "  nest %d: %s\n", n.ID, sched.Spec)
		if code {
			fmt.Fprintf(&b, "\n%s", sched)
		}
	}
	return b.String(), nil
}

// ShowTrace dry-runs one kernel version with calls capped at maxCall
// elements (0 = unlimited) and renders its I/O: call and byte totals,
// per-array calls and elements, the request-size histogram and, when
// head > 0, the first head requests.
func ShowTrace(o Options, kernel string, v suite.Version, maxCall int64, head int) (string, error) {
	k, err := kernelNamed(kernel)
	if err != nil {
		return "", err
	}
	prog := k.Build(o.Cfg)
	plan, err := suite.PlanFor(prog, v)
	if err != nil {
		return "", err
	}
	budget := suite.MemBudget(prog, o.MemFrac)
	d, st, err := dryCount(prog, plan, maxCall, codegen.Options{Strategy: suite.StrategyFor(v), MemBudget: budget}, true)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s  n2=%d  budget=%d elems  iterations=%d  tiles=%d\n",
		k.Name, v, o.Cfg.N2, budget, st.Iterations, st.Tiles)
	fmt.Fprintf(&b, "total: %d calls (%d read, %d write), %d bytes\n\n",
		d.Stats.Calls(), d.Stats.ReadCalls, d.Stats.WriteCalls, d.Stats.Bytes())
	arrays := append([]*ir.Array(nil), prog.Arrays...)
	sort.Slice(arrays, func(i, j int) bool { return arrays[i].Name < arrays[j].Name })
	fmt.Fprintf(&b, "%-10s %10s %10s %14s %14s\n", "array", "rd-calls", "wr-calls", "elems-read", "elems-written")
	for _, a := range arrays {
		if s := d.PerFile[a.Name]; s.Calls() > 0 {
			fmt.Fprintf(&b, "%-10s %10d %10d %14d %14d\n", a.Name, s.ReadCalls, s.WriteCalls, s.ElemsRead, s.ElemsWritten)
		}
	}
	h := &SizeHistogram{}
	for _, r := range d.Trace {
		h.Add(r.Len)
	}
	fmt.Fprintf(&b, "\nrequest-size distribution (elements):\n%s", h.Render())
	if head > 0 {
		fmt.Fprintf(&b, "\nfirst %d requests:\n", head)
		for _, r := range d.Trace[:min(head, len(d.Trace))] {
			op := "read "
			if r.Write {
				op = "write"
			}
			fmt.Fprintf(&b, "  %s %-8s off=%-8d len=%d\n", op, r.Array, r.Off, r.Len)
		}
	}
	return b.String(), nil
}

// ShowViz simulates one kernel version on o.Procs processors and draws
// the contention behind Tables 2 and 3: per-I/O-node utilization and
// per-processor completion times as bars. A call-heavy version shows
// hot, imbalanced I/O nodes; an optimized one short, even bars.
func ShowViz(o Options, kernel string, v suite.Version) (string, error) {
	k, err := kernelNamed(kernel)
	if err != nil {
		return "", err
	}
	m, res, err := sim.RunDetailed(o.setup(k, v, o.Procs))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s on %d processors, %d I/O nodes\n", k.Name, v, o.Procs, o.PFS.IONodes)
	fmt.Fprintf(&b, "simulated time %.2fs, %d I/O calls, %.1f MB moved\n\n",
		m.Seconds, m.Calls, float64(m.Elems*8)/1e6)
	b.WriteString("I/O node utilization (busy seconds / makespan):\n")
	maxBusy := res.MaxNodeBusy()
	for node, busy := range res.NodeBusy {
		fmt.Fprintf(&b, "  node %3d %s %6.1fs (%4.0f%%)\n", node, bar(busy, maxBusy), busy, 100*busy/res.Makespan)
	}
	b.WriteString("\nprocessor completion times:\n")
	for p, tEnd := range res.PerProc {
		fmt.Fprintf(&b, "  proc %3d %s %6.1fs\n", p, bar(tEnd, res.Makespan), tEnd)
	}
	return b.String(), nil
}

// bar renders v as a 50-character bar proportional to max.
func bar(v, max float64) string {
	const width = 50
	if max <= 0 {
		return strings.Repeat(" ", width)
	}
	n := min(int(v/max*width), width)
	return strings.Repeat("█", n) + strings.Repeat("·", width-n)
}

// SizeHistogram buckets I/O request sizes by powers of two — the
// distribution view behind the call counts: unoptimized versions issue
// many tiny requests, optimized ones few long runs.
type SizeHistogram struct {
	// Buckets[i] counts requests with size in [2^i, 2^(i+1)).
	Buckets []int64
	Total   int64
	Elems   int64
}

// Add records one request of the given size (in elements).
func (h *SizeHistogram) Add(size int64) {
	if size <= 0 {
		return
	}
	b := bits.Len64(uint64(size)) - 1
	for len(h.Buckets) <= b {
		h.Buckets = append(h.Buckets, 0)
	}
	h.Buckets[b]++
	h.Total++
	h.Elems += size
}

// Mean returns the average request size in elements.
func (h *SizeHistogram) Mean() float64 {
	if h.Total == 0 {
		return 0
	}
	return float64(h.Elems) / float64(h.Total)
}

// Render draws the histogram as ASCII bars.
func (h *SizeHistogram) Render() string {
	var b strings.Builder
	var top int64
	for _, c := range h.Buckets {
		top = max(top, c)
	}
	for i, c := range h.Buckets {
		if c > 0 {
			fmt.Fprintf(&b, "  %6d..%-6d %s %d\n", int64(1)<<i, int64(1)<<(i+1)-1, strings.Repeat("#", int(c*40/top)), c)
		}
	}
	fmt.Fprintf(&b, "  %d requests, mean %.1f elements\n", h.Total, h.Mean())
	return b.String()
}
