package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// TestReproducerRoundTrips: the reproducer occhaos prints for a failing
// episode, parsed by a fresh flag set, gives back every value the
// original command line set — booleans included, and whatever follows
// them.
func TestReproducerRoundTrips(t *testing.T) {
	args := []string{"-episodes", "1", "-v", "-wal", "-ops", "40", "-kind", "operators",
		"-put-frac", "0.7", "-sync-drop", "1", "-hint-dir", "/tmp/h", "-random=false"}
	orig := flag.NewFlagSet("orig", flag.ContinueOnError)
	register(orig)
	if err := orig.Parse(args); err != nil {
		t.Fatal(err)
	}
	rendered := setFlags(orig)

	again := flag.NewFlagSet("again", flag.ContinueOnError)
	again.SetOutput(io.Discard)
	register(again)
	if err := again.Parse(strings.Fields(rendered)); err != nil {
		t.Fatalf("reproducer %q does not parse: %v", rendered, err)
	}
	if rest := again.Args(); len(rest) > 0 {
		t.Fatalf("reproducer %q left %q unparsed", rendered, rest)
	}
	orig.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed", "episodes", "random", "v":
			return
		}
		if got := again.Lookup(f.Name).Value.String(); got != f.Value.String() {
			t.Errorf("-%s: reproducer %q parses to %q, want %q", f.Name, rendered, got, f.Value)
		}
	})
}

// TestSweepCountsClusterFaults: the sweep's closing line counts the
// node kills, partitions and power cuts a cluster-kind episode injects,
// not only storage-injector faults, so an admission sweep never reports
// "0 faults injected".
func TestSweepCountsClusterFaults(t *testing.T) {
	fs := flag.NewFlagSet("occhaos", flag.ContinueOnError)
	o := register(fs)
	if err := fs.Parse([]string{"-kind", "admission", "-episodes", "1"}); err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	code := o.run(fs)
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if code != 0 {
		t.Fatalf("admission sweep exited %d: %s", code, out)
	}
	var episodes, faults, failed int
	var secs float64
	if _, err := fmt.Sscanf(string(out), "occhaos: %d admission episodes, %d faults injected, %d failed in %fs",
		&episodes, &faults, &failed, &secs); err != nil {
		t.Fatalf("summary %q: %v", out, err)
	}
	if faults == 0 {
		t.Errorf("admission sweep reports 0 faults injected: %q", out)
	}
}
