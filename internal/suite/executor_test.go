package suite

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"outcore/internal/codegen"
	"outcore/internal/core"
	"outcore/internal/ir"
	"outcore/internal/ooc"
)

// runPath executes p once under plan along one executor path — against
// the Memory budget ("memory"), through a tile engine ("engine"), or
// as one of the two data-less dry runs ("dry", "dry-engine") — on a fresh disk loaded with init (ignored by the dry
// paths) and returns the disk after every dirty tile has reached it.
func runPath(p *ir.Program, plan *core.Plan, v Version, path string, init *ir.Store) (*ooc.Disk, codegen.ExecStats, error) {
	budget := MemBudget(p, 16)
	opts := codegen.Options{Strategy: StrategyFor(v), MemBudget: budget}
	d := ooc.NewDisk(64)
	if path == "dry" || path == "dry-engine" {
		d = d.NoBacking()
		opts.DryRun = true
		init = nil
	}
	if _, err := codegen.SetupDiskOn(d, p, plan, init); err != nil {
		return nil, codegen.ExecStats{}, err
	}
	if path == "engine" || path == "dry-engine" {
		opts.Engine = ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 8})
	}
	st, err := codegen.RunProgram(p, plan, d, ooc.NewMemory(budget), opts)
	if opts.Engine != nil {
		if cerr := opts.Engine.Close(); err == nil {
			err = cerr
		}
	}
	return d, st, err
}

// kernelCase is one kernel under one version: a fresh program (plans
// key on pointers) with the kernel's shared seed transferred to it.
func kernelCase(t *testing.T, k Kernel, v Version, cfg Config, init *ir.Store, base *ir.Program) (*ir.Program, *core.Plan, *ir.Store) {
	t.Helper()
	p := k.Build(cfg)
	plan, err := PlanFor(p, v)
	if err != nil {
		t.Fatal(err)
	}
	initV := ir.NewStore(p.Arrays...)
	for i, a := range p.Arrays {
		copy(initV.Data(a), init.Data(base.Arrays[i]))
	}
	return p, plan, initV
}

// execGolden is one path's exact I/O and iteration accounting: read
// calls, write calls, elements read, elements written, statement
// iterations, non-empty tiles.
type execGolden [6]int64

const executorGoldenFile = "testdata/executor_stats.json"

// TestExecutorIOGolden pins every kernel × version × executor path to
// the Disk.Stats and ExecStats recorded before the executor was
// compiled to integer bounds and stepped offsets: a change to the tile
// schedule, the tile boxes or the non-empty test moves a count here
// exactly. exp.TestKernelGateGolden pins the simulated multi-processor
// runs of the same kernels the same way. Real and dry paths must also
// agree with each other.
func TestExecutorIOGolden(t *testing.T) {
	cfg := SmallConfig()
	got := map[string]execGolden{}
	for _, k := range Kernels {
		base := k.Build(cfg)
		init := seed(base, 1234)
		for _, v := range Versions {
			for _, path := range []string{"memory", "engine", "dry", "dry-engine"} {
				p, plan, initV := kernelCase(t, k, v, cfg, init, base)
				d, st, err := runPath(p, plan, v, path, initV)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", k.Name, v, path, err)
				}
				s := d.Stats.Snapshot()
				got[fmt.Sprintf("%s/%s/%s", k.Name, v, path)] = execGolden{
					s.ReadCalls, s.WriteCalls, s.ElemsRead, s.ElemsWritten, st.Iterations, st.Tiles}
			}
			key := func(path string) string { return fmt.Sprintf("%s/%s/%s", k.Name, v, path) }
			if got[key("memory")] != got[key("dry")] {
				t.Errorf("%s/%s: dry run %+v != real run %+v", k.Name, v, got[key("dry")], got[key("memory")])
			}
			if got[key("engine")] != got[key("dry-engine")] {
				t.Errorf("%s/%s: cached dry run %+v != engine run %+v", k.Name, v, got[key("dry-engine")], got[key("engine")])
			}
		}
	}
	raw, err := os.ReadFile(filepath.FromSlash(executorGoldenFile))
	if err != nil {
		t.Fatalf("%v; the current accounting is:\n%s", err, goldenJSON(got))
	}
	var want map[string]execGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d rows, run produced %d", len(want), len(got))
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: missing from the run", key)
		} else if g != w {
			t.Errorf("%s: got %v, golden %v", key, g, w)
		}
	}
	if t.Failed() {
		t.Logf("the current accounting is:\n%s", goldenJSON(got))
	}
}

// goldenJSON renders rows one per line, sorted, in the golden's format.
func goldenJSON(rows map[string]execGolden) string {
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		r, _ := json.Marshal(rows[k])
		fmt.Fprintf(&b, "  %q: %s", k, r)
		if i < len(keys)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	return b.String()
}
