package main

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

// TestGolden drives real command lines through run and compares their
// output byte for byte. The -show goldens were recorded from the
// stand-alone plan, trace and viz tools these views replace, at those
// tools' defaults, which the command lines here spell out. The other
// three pin the modes that share the views' dry-count path to the
// committed results/ artifacts.
func TestGolden(t *testing.T) {
	for _, c := range []struct{ args, golden string }{
		{"-show plan -demo -n2 64", "testdata/plan_demo.txt"},
		{"-show plan -kernel mxm -version c-opt -n2 64 -n3 16 -n4 6", "testdata/plan_mxm.txt"},
		{"-show trace -kernel trans -version c-opt -head 10 -n3 16 -n4 6", "testdata/trace_trans.txt"},
		{"-show viz -kernel mat -version col -procs 16", "testdata/viz_mat_col.txt"},
		{"-figure 3", "../../results/figure3.txt"},
		{"-ablation tiling -n2 128 -n3 24 -n4 8", "../../results/ablation_tiling.txt"},
		{"-ablation order -kernel gfunp", "testdata/order_gfunp.txt"},
	} {
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := run(strings.Fields(c.args), &got); err != nil {
			t.Fatalf("occbench %s: %v", c.args, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("occbench %s differs from %s:\n%s", c.args, c.golden, got.String())
		}
	}
}

// TestRejectsOutOfRange: every numeric knob outside its range is a
// usage error (exit 2) naming the flag and the valid range, before any
// mode runs — never a panic, never a silent default.
func TestRejectsOutOfRange(t *testing.T) {
	for _, c := range []struct{ args, want string }{
		{"-table 2 -kernels mat -n2 0", "-n2: 0 out of range (valid: >= 1)"},
		{"-table 2 -kernels mat -n2 -5", "-n2: -5 out of range (valid: >= 1)"},
		{"-table 2 -kernels mat -n3 0", "-n3: 0 out of range (valid: >= 1)"},
		{"-table 2 -kernels mat -n4 0", "-n4: 0 out of range (valid: >= 1)"},
		{"-table 2 -kernels mat -procs 0", "-procs: 0 out of range (valid: >= 1)"},
		{"-table 2 -kernels mat -ionodes 0", "-ionodes: 0 out of range (valid: >= 1)"},
		{"-table 2 -kernels mat -memfrac 0", "-memfrac: 0 out of range (valid: >= 1)"},
		{"-show viz -kernel mat -procs 0", "-procs: 0 out of range (valid: >= 1)"},
		{"-show trace -kernel trans -memfrac 0", "-memfrac: 0 out of range (valid: >= 1)"},
		{"-show trace -kernel trans -head -1", "-head: -1 out of range (valid: >= 0)"},
		{"-show trace -kernel trans -maxcall -1", "-maxcall: -1 out of range (valid: >= 0)"},
		{"-show nope", `-show: unknown view "nope"`},
	} {
		var out bytes.Buffer
		err := run(strings.Fields(c.args), &out)
		if !errors.As(err, new(usageError)) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("occbench %s: err = %v, want a usage error containing %q", c.args, err, c.want)
		}
		if out.Len() > 0 {
			t.Errorf("occbench %s printed %q before rejecting", c.args, out.String())
		}
	}
}
