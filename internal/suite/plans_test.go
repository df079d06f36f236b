package suite

import (
	"testing"

	"outcore/internal/core"
)

// TestCOptPlanSnapshots pins the combined optimizer's decisions for the
// structurally interesting kernels, as regression nets: a change that
// silently flips a layout or drops a transformation should fail here,
// not in a benchmark shape three layers up.
func TestCOptPlanSnapshots(t *testing.T) {
	cfg := SmallConfig()

	t.Run("mat", func(t *testing.T) {
		k, _ := ByName("mat")
		prog := k.Build(cfg)
		plan, _ := PlanFor(prog, COpt)
		got := layoutsByName(plan)
		// C(i,j) = A(i,j) + B(j,i): A,C row-major, B column-major.
		want := map[string]string{"A": "row-major", "B": "col-major", "C": "row-major"}
		for name, l := range want {
			if got[name] != l {
				t.Errorf("%s layout = %s, want %s", name, got[name], l)
			}
		}
	})

	t.Run("trans", func(t *testing.T) {
		k, _ := ByName("trans")
		prog := k.Build(cfg)
		plan, _ := PlanFor(prog, COpt)
		got := layoutsByName(plan)
		// B(i,j) = A(j,i): B row-major, A column-major.
		if got["B"] != "row-major" || got["A"] != "col-major" {
			t.Errorf("layouts = %v", got)
		}
	})

	t.Run("mxm", func(t *testing.T) {
		k, _ := ByName("mxm")
		prog := k.Build(cfg)
		plan, _ := PlanFor(prog, COpt)
		got := layoutsByName(plan)
		// C += A(i,k)*B(k,j) with k innermost: A rows contiguous along k
		// (row-major), B columns contiguous along k (col-major).
		if got["A"] != "row-major" || got["B"] != "col-major" {
			t.Errorf("layouts = %v", got)
		}
		// C is temporal in k: any layout serves; the plan must still have one.
		if got["C"] == "" {
			t.Error("C has no layout")
		}
	})

	t.Run("gfunp-chain", func(t *testing.T) {
		k, _ := ByName("gfunp")
		prog := k.Build(cfg)
		plan, _ := PlanFor(prog, COpt)
		// Every reference optimized (9/9), confirmed optimal by the exact
		// search (see core's optimal tests); here we pin that the greedy
		// run still achieves it.
		bad := 0
		for _, rep := range plan.Report(prog, nil) {
			if rep.Locality == core.NoLocality {
				bad++
			}
		}
		if bad != 0 {
			t.Errorf("%d references without locality", bad)
		}
	})

	t.Run("htribk-sharedW", func(t *testing.T) {
		k, _ := ByName("htribk")
		prog := k.Build(cfg)
		plan, _ := PlanFor(prog, COpt)
		// W is read identically in both nests: exactly one layout, and
		// both nests' references to it must have locality.
		got := layoutsByName(plan)
		if got["W"] == "" {
			t.Fatal("W unplanned")
		}
		for _, rep := range plan.Report(prog, nil) {
			if rep.Ref.Array.Name == "W" && rep.Locality == core.NoLocality {
				t.Errorf("W reference without locality in nest %d", rep.Nest.ID)
			}
		}
	})
}

func layoutsByName(plan *core.Plan) map[string]string {
	out := map[string]string{}
	for a, l := range plan.Layouts {
		out[a.Name] = l.Name()
	}
	return out
}

// TestPlanNotesPresent pins that the optimizer explains itself.
func TestPlanNotesPresent(t *testing.T) {
	k, _ := ByName("gfunp")
	prog := k.Build(SmallConfig())
	plan, _ := PlanFor(prog, COpt)
	if len(plan.Notes) == 0 {
		t.Fatal("no derivation notes")
	}
}
