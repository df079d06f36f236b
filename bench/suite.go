package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Every workload run is its own process: ru_maxrss is a process-wide
// high-water mark, and a fresh heap per run is what the contract's
// one-workload-per-invocation protocol measures anyway. Suite and A/A
// mode therefore re-execute this binary once per (workload, trace).

func runChild(workload string, seed int64, seconds int, trace bool, out string) (resultLine, string, error) {
	self, err := os.Executable()
	if err != nil {
		return resultLine{}, "", err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", t, "-out", out)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return resultLine{}, stdout.String(), fmt.Errorf("%s: %w", workload, err)
	}
	text := strings.TrimRight(stdout.String(), "\n")
	last := text[strings.LastIndexByte(text, '\n')+1:]
	var line resultLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return resultLine{}, text, fmt.Errorf("%s: result line: %w", workload, err)
	}
	return line, text[:len(text)-len(last)], nil
}

// runSuite runs all six workloads and prints every metric by name and
// unit; the exit code is non-zero if any answer was wrong.
func runSuite(seed int64, seconds int, trace bool, out string) int {
	code := 0
	for _, sp := range specs {
		for _, tr := range []bool{false, true} {
			if tr && !trace {
				continue
			}
			line, text, err := runChild(sp.name, seed, seconds, tr, out)
			fmt.Print(text)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				code = 1
				continue
			}
			if !line.Correct {
				code = 1
			}
			fmt.Printf("%-14s correct=%v attempted=%d failed=%d\n", sp.name, line.Correct, line.Attempted, line.Failed)
		}
	}
	return code
}

// contract is the part of BENCHMARK.json the A/A check needs.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartileSpread is (Q3-Q1)/median with the quartiles taken the way
// Python's statistics.quantiles(values, n=4) takes them (exclusive
// method), which is what the driver computes.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// runAA runs the suite as two interleaved sets of n (A1 B1 A2 B2 ...,
// run i of either set on seed+i) and compares, per workload and
// end-to-end metric, the two medians against the metric's bound. Two
// sets of the same code must agree; where they do not, the metric is
// too noisy to gate on.
func runAA(n int, seed int64, seconds int, out, contractPath string) int {
	raw, err := os.ReadFile(contractPath)
	if err != nil {
		fatalf("-aa needs the bounds: %v", err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		fatalf("%s: %v", contractPath, err)
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, sp := range specs {
				line, text, err := runChild(sp.name, seed+int64(i), seconds, false, out)
				if err != nil || !line.Correct {
					fmt.Print(text)
					fatalf("A/A run %d%c of %s failed: %v", i+1, 'A'+set, sp.name, err)
				}
				for name, mv := range line.Metrics {
					k := key{sp.name, name}
					sets[set][k] = append(sets[set][k], mv.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "bench: A/A set %c run %d/%d done\n", 'A'+set, i+1, n)
		}
	}
	code := 0
	var report strings.Builder
	fmt.Fprintf(&report, "%-14s %-26s %14s %14s %9s %9s %9s %7s  %s\n",
		"workload", "metric", "median A", "median B", "disagree", "spread A", "spread B", "bound", "verdict")
	for _, sp := range specs {
		for _, m := range c.EndToEnd {
			k := key{sp.name, m.Name}
			a, b := median(sets[0][k]), median(sets[1][k])
			// B worse than A by this share of A (negative: B better).
			worse := (b - a) / math.Abs(a)
			if m.Better == "higher" {
				worse = -worse
			}
			disagree := math.Abs(worse)
			verdict := "ok"
			switch {
			case disagree > m.Bound:
				verdict = "EXCEEDS BOUND"
				code = 1
			case disagree > m.Bound/2:
				verdict = "over half the bound"
			}
			fmt.Fprintf(&report, "%-14s %-26s %14.6g %14.6g %8.2f%% %8.2f%% %8.2f%% %6.2f%%  %s\n",
				sp.name, m.Name, a, b, 100*disagree,
				100*quartileSpread(sets[0][k]), 100*quartileSpread(sets[1][k]), 100*m.Bound, verdict)
		}
	}
	fmt.Print(report.String())
	path := filepath.Join(out, "aa.txt")
	if err := os.WriteFile(path, []byte(report.String()), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: saving %s: %v\n", path, err)
	}
	return code
}
