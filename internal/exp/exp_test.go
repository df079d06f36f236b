package exp

import (
	"strings"
	"testing"

	"outcore/internal/pfs"
	"outcore/internal/suite"
)

// testOptions keeps harness tests fast: tiny arrays, small PFS.
func testOptions(kernels ...string) Options {
	return Options{
		Cfg:     suite.SmallConfig(),
		Kernels: kernels,
		MemFrac: 16,
		Procs:   4,
		PFS: pfs.Config{
			IONodes:       8,
			StripeElems:   64,
			NodeOverhead:  0.005,
			NodeBandwidth: 100_000,
		},
		IterPerSec: 1e7,
	}
}

func TestTable2SubsetShape(t *testing.T) {
	res, err := Table2(testOptions("mat", "trans"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ColSeconds <= 0 {
			t.Errorf("%s: col seconds %g", row.Kernel, row.ColSeconds)
		}
		if row.Percent[suite.Col] < 99.999 || row.Percent[suite.Col] > 100.001 {
			t.Errorf("%s: col percent %g", row.Kernel, row.Percent[suite.Col])
		}
		// c-opt must not lose to the col baseline.
		if row.Percent[suite.COpt] > 100.0001 {
			t.Errorf("%s: c-opt at %.1f%% of col", row.Kernel, row.Percent[suite.COpt])
		}
		// h-opt must not lose to c-opt.
		if row.Percent[suite.HOpt] > row.Percent[suite.COpt]+0.01 {
			t.Errorf("%s: h-opt %.1f%% > c-opt %.1f%%", row.Kernel, row.Percent[suite.HOpt], row.Percent[suite.COpt])
		}
	}
	out := res.Render()
	for _, want := range []string{"program", "mat", "trans", "average:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable3SubsetShape(t *testing.T) {
	res, err := Table3(testOptions("trans"), []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(suite.Versions) {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		for _, p := range []int{2, 4} {
			if row.Speedup[p] <= 0 {
				t.Errorf("%s/%s speedup(%d) = %g", row.Kernel, row.Version, p, row.Speedup[p])
			}
		}
	}
	if !strings.Contains(res.Render(), "version") {
		t.Error("render header missing")
	}
}

func TestFigure1(t *testing.T) {
	out, err := Figure1()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"2 connected components", "U", "X"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 1 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure2(t *testing.T) {
	out := Figure2()
	for _, want := range []string{"col-major  g = (0,1)", "row-major  g = (1,0)", "diagonal", "blocked"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure 2 missing %q:\n%s", want, out)
		}
	}
}

func TestFigure3MatchesPaper(t *testing.T) {
	res, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's exact illustration numbers.
	if res.TraditionalTileCalls != 4 {
		t.Errorf("traditional tile calls = %d, want 4", res.TraditionalTileCalls)
	}
	if res.OOCTileCalls != 2 {
		t.Errorf("OOC tile calls = %d, want 2", res.OOCTileCalls)
	}
	if res.ProgramOOC >= res.ProgramTraditional {
		t.Errorf("program-level OOC %d >= traditional %d", res.ProgramOOC, res.ProgramTraditional)
	}
	if !strings.Contains(res.Render(), "Figure 3") {
		t.Error("render missing header")
	}
}

func TestTilingAblation(t *testing.T) {
	rows, err := TilingAblation(testOptions("mat", "trans"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.OutOfCore > r.Traditional {
			t.Errorf("%s: OOC %d calls > traditional %d", r.Kernel, r.OutOfCore, r.Traditional)
		}
	}
}

func TestMemorySweep(t *testing.T) {
	rows, err := MemorySweep(testOptions(), "mat", []int64{4, 8, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Less memory -> never fewer calls.
	for i := 1; i < len(rows); i++ {
		if rows[i].Calls < rows[i-1].Calls {
			t.Errorf("calls decreased with smaller memory: %v", rows)
		}
	}
}

func TestOrderAblation(t *testing.T) {
	res, err := OrderAblation(testOptions(), "gfunp")
	if err != nil {
		t.Fatal(err)
	}
	if res.CostOrderCalls <= 0 || res.ReverseOrderCalls <= 0 {
		t.Errorf("ablation = %+v", res)
	}
}

func TestStorageDemo(t *testing.T) {
	out := StorageDemo()
	if !strings.Contains(out, "shear") {
		t.Errorf("storage demo missing shear:\n%s", out)
	}
}

func TestUnknownKernelRejected(t *testing.T) {
	if _, err := Table2(testOptions("nope")); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := MemorySweep(testOptions(), "nope", nil); err == nil {
		t.Error("unknown kernel accepted in sweep")
	}
	if _, err := OrderAblation(testOptions(), "nope"); err == nil {
		t.Error("unknown kernel accepted in order ablation")
	}
}

func TestOptimalAblation(t *testing.T) {
	// Every kernel: the exact optimum can never serve fewer references,
	// or a lower cost-weighted score, than the greedy propagation.
	rows, err := OptimalAblation(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(suite.Kernels) {
		t.Fatalf("rows = %d, want %d", len(rows), len(suite.Kernels))
	}
	for _, r := range rows {
		if r.OptimalGood < r.CombinedGood {
			t.Errorf("%s: optimum serves %d refs, greedy %d", r.Kernel, r.OptimalGood, r.CombinedGood)
		}
		if r.OptimalScore+1e-9 < r.CombinedScore {
			t.Errorf("%s: optimum score %.3f < greedy %.3f", r.Kernel, r.OptimalScore, r.CombinedScore)
		}
		if r.TotalRefs <= 0 {
			t.Errorf("%s: no references", r.Kernel)
		}
	}
}

func TestSizeHistogram(t *testing.T) {
	h := &SizeHistogram{}
	for _, s := range []int64{1, 1, 2, 3, 4, 8, 1024, 0, -5} {
		h.Add(s)
	}
	if h.Total != 7 {
		t.Errorf("total = %d", h.Total)
	}
	if h.Buckets[0] != 2 { // sizes 1
		t.Errorf("bucket[0] = %d", h.Buckets[0])
	}
	if h.Buckets[1] != 2 { // sizes 2..3
		t.Errorf("bucket[1] = %d", h.Buckets[1])
	}
	if h.Buckets[10] != 1 { // 1024
		t.Errorf("bucket[10] = %d", h.Buckets[10])
	}
	if h.Mean() < 148 || h.Mean() > 149 {
		t.Errorf("mean = %g", h.Mean())
	}
	if !strings.Contains(h.Render(), "requests") {
		t.Error("render missing summary")
	}
	empty := &SizeHistogram{}
	if empty.Mean() != 0 {
		t.Error("empty mean")
	}
}

func TestTraceHistogramOrdering(t *testing.T) {
	// The optimized version's mean request size must exceed col's:
	// Figure 3's effect expressed as a distribution.
	o := testOptions()
	hc, err := TraceHistogram(o, "trans", suite.Col)
	if err != nil {
		t.Fatal(err)
	}
	ho, err := TraceHistogram(o, "trans", suite.COpt)
	if err != nil {
		t.Fatal(err)
	}
	if ho.Mean() <= hc.Mean() {
		t.Errorf("c-opt mean %.1f <= col mean %.1f", ho.Mean(), hc.Mean())
	}
	if _, err := TraceHistogram(o, "nope", suite.Col); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestBlockedAblation(t *testing.T) {
	rows, err := BlockedAblation(64, []int64{8, 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// An aligned b x b tile of a blocked(b) layout is one run; the
		// canonical layouts need b runs each.
		wantBlocked := (64 / r.Tile) * (64 / r.Tile)
		if r.BlockedCalls != wantBlocked {
			t.Errorf("tile %d: blocked calls = %d, want %d", r.Tile, r.BlockedCalls, wantBlocked)
		}
		if r.RowCalls != wantBlocked*r.Tile || r.ColCalls != wantBlocked*r.Tile {
			t.Errorf("tile %d: row/col calls = %d/%d, want %d", r.Tile, r.RowCalls, r.ColCalls, wantBlocked*r.Tile)
		}
	}
	if _, err := BlockedAblation(64, []int64{7}); err == nil {
		t.Error("non-dividing tile accepted")
	}
}

func TestBlockedPlanDemo(t *testing.T) {
	out, err := BlockedPlanDemo(16)
	if err != nil {
		t.Fatal(err)
	}
	// A is forced blocked -> its reference loses hyperplane locality; B
	// keeps its optimized layout.
	if !strings.Contains(out, "none locality under blocked") {
		t.Errorf("demo output:\n%s", out)
	}
	if !strings.Contains(out, "spatial") {
		t.Errorf("B lost its locality:\n%s", out)
	}
}
