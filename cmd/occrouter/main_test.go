package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain doubles as the occrouter binary: with OCCROUTER_ARGS set,
// the test binary runs main on those arguments, so a test can check
// the exit status and output of a real command line.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("OCCROUTER_ARGS"); ok {
		os.Args = append([]string{"occrouter"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestProbeIntervalMustBePositive: a non-positive -probe-interval is a
// usage error (exit 2, naming the flag), not a panic in the probe
// loop's ticker after the listener is up.
func TestProbeIntervalMustBePositive(t *testing.T) {
	for _, v := range []string{"0", "-1s"} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(),
			"OCCROUTER_ARGS=-addr 127.0.0.1:0 -peers n0=http://127.0.0.1:1 -probe-interval "+v)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), "-probe-interval") ||
			strings.Contains(stderr.String(), "panic") {
			t.Errorf("-probe-interval %s: %v, stderr %q; want exit 2 naming the flag", v, err, stderr.String())
		}
	}
}
