// Command bench is the repository's benchmark: six single-client
// workloads on in-memory backends, every answer checked against a
// client-side model, exact I/O counts, timings reported as medians over
// eight rounds, and a traced mode that replays each workload at
// successive plane depths so adjacent rows subtract into per-layer
// costs. README.md explains the choices; BENCHMARK.json is the contract.
//
//	bench -workload hit_point -seed 1 -seconds 10 -trace 0   one run, result line last
//	bench                                                    all six workloads, one table
//	bench -trace 1                                           ... plus the layer ledger
//	bench -aa 5                                              two interleaved sets of 5, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// envBlock records where a result was measured.
type envBlock struct {
	Go         string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or \"all\" for the whole suite (one child process each)")
		seed     = flag.Int64("seed", 1, "op-stream seed")
		seconds  = flag.Int("seconds", 10, "target length of the timed phase; op counts scale with it")
		trace    = flag.Int("trace", 0, "1 = traced run: replay round 1 at every plane depth and print the per-layer metrics")
		aa       = flag.Int("aa", 0, "run the suite as two interleaved sets of N and compare them against the bounds")
		out      = flag.String("out", filepath.Join("bench", "out"), "directory for results, traces and the env block")
		commit   = flag.String("commit", "unknown", "commit id recorded in the env block")
		spec     = flag.String("benchmark-json", "BENCHMARK.json", "the contract file (-aa reads the bounds from it)")
		list     = flag.Bool("list", false, "list the workloads and why each is in the suite")
	)
	flag.Parse()
	if *list {
		for _, sp := range specs {
			fmt.Printf("%-14s %s\n", sp.name, sp.why)
		}
		return
	}
	if *seconds < 1 || *seconds > 60 {
		fatalf("-seconds %d: want 1..60", *seconds)
	}
	env := envBlock{Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: *commit}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("%v", err)
	}
	switch {
	case *aa > 0:
		os.Exit(runAA(*aa, *seed, *seconds, *out, *spec))
	case *workload == "all":
		os.Exit(runSuite(*seed, *seconds, *trace == 1, *out))
	}

	sp, ok := specByName(*workload)
	if !ok {
		fatalf("-workload %q: want one of %s", *workload, strings.Join(workloadNames(), ", "))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, hooks: noHooks}
	var res *result
	var err error
	defs, kind := endToEnd, "e2e"
	if *trace == 1 {
		defs, kind = perLayer, "layers"
		res, err = runTraced(sp, cfg, *out)
	} else {
		res, err = runE2E(sp, cfg)
	}
	if err != nil {
		fatalf("%s: %v", sp.name, err)
	}
	line := resultLine{Correct: res.correct(), Attempted: res.attempted, Failed: res.failed, Metrics: collect(defs, res.values)}
	printMetrics(os.Stdout, sp.name, defs, res)
	saveJSON(filepath.Join(*out, fmt.Sprintf("%s.seed%d.%s.json", sp.name, *seed, kind)),
		map[string]any{"workload": sp.name, "seed": *seed, "seconds": *seconds, "env": env, "notes": res.notes, "result": line})
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

func workloadNames() []string {
	var names []string
	for _, sp := range specs {
		names = append(names, sp.name)
	}
	return names
}

// printMetrics writes one "workload metric value unit" row per metric.
func printMetrics(w *os.File, name string, defs []metricDef, res *result) {
	for _, d := range defs {
		fmt.Fprintf(w, "%-14s %-34s %16.6f %s\n", name, d.name, res.values[d.name], d.unit)
	}
	for _, n := range res.notes {
		fmt.Fprintf(w, "%-14s note: %s\n", name, n)
	}
	if res.err != nil {
		fmt.Fprintf(w, "%-14s FAILED: %v\n", name, res.err)
	}
}

func saveJSON(path string, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: saving %s: %v\n", path, err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
