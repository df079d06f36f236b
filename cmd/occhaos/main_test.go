package main

import (
	"flag"
	"io"
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
