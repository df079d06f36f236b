package suite

import (
	"math/rand"
	"testing"

	"outcore/internal/codegen"
	"outcore/internal/ir"
)

// TestTable1Inventory checks every kernel against the paper's Table 1:
// number of arrays per dimensionality and the timing-loop count.
func TestTable1Inventory(t *testing.T) {
	want := map[string]map[int]int{ // name -> rank -> count
		"mat":    {2: 3},
		"mxm":    {2: 3},
		"adi":    {1: 3, 3: 3},
		"vpenta": {2: 7, 3: 2},
		"btrix":  {1: 25, 4: 4},
		"emit":   {1: 10, 3: 3},
		"syr2k":  {2: 3},
		"htribk": {2: 5},
		"gfunp":  {1: 1, 2: 5},
		"trans":  {2: 2},
	}
	wantIter := map[string]int{
		"mat": 2, "mxm": 3, "adi": 5, "vpenta": 3, "btrix": 2,
		"emit": 2, "syr2k": 2, "htribk": 3, "gfunp": 3, "trans": 3,
	}
	if len(Kernels) != 10 {
		t.Fatalf("%d kernels, want 10", len(Kernels))
	}
	for _, k := range Kernels {
		p := k.Build(SmallConfig())
		got := map[int]int{}
		for _, a := range p.Arrays {
			got[a.Rank()]++
		}
		for rank, count := range want[k.Name] {
			if got[rank] != count {
				t.Errorf("%s: %d arrays of rank %d, want %d", k.Name, got[rank], rank, count)
			}
		}
		for rank := range got {
			if want[k.Name][rank] == 0 {
				t.Errorf("%s: unexpected rank-%d arrays", k.Name, rank)
			}
		}
		if k.Iter != wantIter[k.Name] {
			t.Errorf("%s: iter %d, want %d", k.Name, k.Iter, wantIter[k.Name])
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", k.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	if k, ok := ByName("mxm"); !ok || k.Name != "mxm" {
		t.Error("ByName(mxm) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
}

func seed(p *ir.Program, s int64) *ir.Store {
	st := ir.NewStore(p.Arrays...)
	rng := rand.New(rand.NewSource(s))
	for _, a := range p.Arrays {
		d := st.Data(a)
		for i := range d {
			d[i] = rng.Float64()
		}
	}
	return st
}

// TestAllKernelsAllVersionsPreserveSemantics is the suite's central
// correctness gate: every kernel, under every version's plan and
// tiling strategy, must produce bit-identical results to the in-core
// reference execution — against the memory budget and through the
// tile engine.
func TestAllKernelsAllVersionsPreserveSemantics(t *testing.T) {
	cfg := SmallConfig()
	for _, k := range Kernels {
		base := k.Build(cfg)
		init := seed(base, 1234)
		for _, v := range Versions {
			for _, path := range []string{"memory", "engine"} {
				p, plan, initV := kernelCase(t, k, v, cfg, init, base)
				ref := initV.Clone()
				p.Execute(ref)
				d, _, err := runPath(p, plan, v, path, initV)
				if err != nil {
					t.Errorf("%s/%s/%s: %v", k.Name, v, path, err)
					continue
				}
				got := codegen.DiskToStore(p, d)
				for _, a := range p.Arrays {
					if diff := ir.MaxAbsDiff(ref, got, a); diff != 0 {
						t.Errorf("%s/%s/%s: array %s differs from reference by %g", k.Name, v, path, a.Name, diff)
					}
				}
			}
		}
	}
}

func TestMemBudget(t *testing.T) {
	p := buildMat(SmallConfig())
	if MemBudget(p, 128) != TotalElems(p)/128 {
		t.Error("MemBudget arithmetic")
	}
	if MemBudget(p, 0) != 0 {
		t.Error("MemBudget(0) should be unlimited marker")
	}
	if TotalElems(p) != 3*24*24 {
		t.Errorf("TotalElems = %d", TotalElems(p))
	}
}

func TestPlanForUnknownVersion(t *testing.T) {
	p := buildMat(SmallConfig())
	if _, err := PlanFor(p, Version("bogus")); err == nil {
		t.Error("unknown version accepted")
	}
}

func TestStrategyFor(t *testing.T) {
	for _, v := range Versions {
		if s := StrategyFor(v); s.String() != "out-of-core" {
			t.Errorf("strategy for %s = %s; all versions share the OOC discipline", v, s)
		}
	}
}
