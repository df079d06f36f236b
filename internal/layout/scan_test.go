package layout

import (
	"testing"
)

// paint marks every element of each chunk in a box-local bitmap and
// fails on overlap; afterwards the caller checks full coverage.
func paintPlan(t *testing.T, box Box, plan []Box) {
	t.Helper()
	rank := box.Rank()
	dims := make([]int64, rank)
	total := int64(1)
	for d := 0; d < rank; d++ {
		dims[d] = box.Hi[d] - box.Lo[d]
		total *= dims[d]
	}
	seen := make([]bool, total)
	lin := func(c []int64) int64 {
		off := int64(0)
		for d := 0; d < rank; d++ {
			off = off*dims[d] + (c[d] - box.Lo[d])
		}
		return off
	}
	var covered int64
	for ci, ch := range plan {
		if ch.Empty() {
			t.Fatalf("chunk %d is empty: %v", ci, ch)
		}
		cur := make([]int64, rank)
		copy(cur, ch.Lo)
		for {
			o := lin(cur)
			if seen[o] {
				t.Fatalf("chunk %d revisits element %v", ci, cur)
			}
			seen[o] = true
			covered++
			k := rank - 1
			for ; k >= 0; k-- {
				cur[k]++
				if cur[k] < ch.Hi[k] {
					break
				}
				cur[k] = ch.Lo[k]
			}
			if k < 0 {
				break
			}
		}
	}
	if covered != total {
		t.Fatalf("plan covers %d of %d elements", covered, total)
	}
}

// TestPlanScanCoverage: every plan partitions its box — each element
// delivered exactly once, chunks within the element budget.
func TestPlanScanCoverage(t *testing.T) {
	cases := []struct {
		name  string
		l     *Layout
		box   Box
		chunk int64
	}{
		{"row-full", RowMajor(64, 64), NewBox([]int64{0, 0}, []int64{64, 64}), 512},
		{"row-partial", RowMajor(64, 64), NewBox([]int64{8, 8}, []int64{56, 56}), 512},
		{"row-tiny-chunk", RowMajor(64, 64), NewBox([]int64{3, 5}, []int64{61, 59}), 7},
		{"col-full", ColMajor(64, 64), NewBox([]int64{0, 0}, []int64{64, 64}), 512},
		{"col-partial", ColMajor(64, 64), NewBox([]int64{1, 2}, []int64{63, 62}), 100},
		{"diag", Diagonal(48, 48), NewBox([]int64{4, 4}, []int64{44, 44}), 256},
		{"antidiag", AntiDiagonal(48, 48), NewBox([]int64{0, 0}, []int64{48, 48}), 333},
		{"blocked", Blocked(64, 64, 8, 8), NewBox([]int64{5, 5}, []int64{59, 59}), 512},
		{"rank3", FastDim([]int64{16, 16, 16}, 1), NewBox([]int64{2, 2, 2}, []int64{14, 14, 14}), 96},
		{"rank1", RowMajor(1000), NewBox([]int64{17}, []int64{911}), 128},
		{"unbounded", RowMajor(32, 32), NewBox([]int64{0, 0}, []int64{32, 32}), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := PlanScan(tc.l, tc.box, tc.chunk)
			if len(plan) == 0 {
				t.Fatal("empty plan for non-empty box")
			}
			paintPlan(t, tc.box, plan)
			if len(plan) != cap(plan) {
				t.Fatalf("plan counted %d chunks, emitted %d", cap(plan), len(plan))
			}
			if tc.chunk > 0 {
				for i, ch := range plan {
					if ch.Size() > tc.chunk {
						t.Fatalf("chunk %d has %d elems > budget %d", i, ch.Size(), tc.chunk)
					}
				}
			}
		})
	}
	if got := PlanScan(RowMajor(8, 8), NewBox([]int64{4, 4}, []int64{4, 8}), 16); got != nil {
		t.Fatalf("empty box produced a plan: %v", got)
	}
}

// TestPlanScanAllocs: a plan costs the same four allocations (scan
// order, chunk list, corners, odometer) whatever its chunk count — the
// corners of every chunk come from one backing slice.
func TestPlanScanAllocs(t *testing.T) {
	l := RowMajor(32, 1024)
	box := NewBox([]int64{0, 0}, []int64{32, 1024})
	for _, chunk := range []int64{32 * 1024, 4096, 1024, 100} {
		if n := testing.AllocsPerRun(100, func() { PlanScan(l, box, chunk) }); n != 4 {
			t.Errorf("PlanScan of %d chunks makes %.0f allocations, want 4", len(PlanScan(l, box, chunk)), n)
		}
	}
}

// TestPlanScanSeeks is the paper's Claim 1 as an executable test: a
// plan matched to the layout's hyperplane reads maximal contiguous
// runs (full-width slabs merge into a single run each), while the
// transposed plan pays a seek per row. Backend seeks are counted with
// PlanSeeks over the layout's own Runs enumeration.
func TestPlanScanSeeks(t *testing.T) {
	const edge, chunk = 64, 512 // 8 full rows per chunk
	full := NewBox([]int64{0, 0}, []int64{edge, edge})

	cases := []struct {
		name         string
		l, transpose *Layout
		box          Box
		wantMatched  int64
	}{
		// Full-width row-major scan: every slab is file-adjacent to the
		// previous one — the whole scan is one seek.
		{"row-major-full", RowMajor(edge, edge), ColMajor(edge, edge), full, 1},
		{"col-major-full", ColMajor(edge, edge), RowMajor(edge, edge), full, 1},
		// Partial-width box: the best any rectangular plan can do is one
		// run per row (48 rows), and the matched plan achieves it.
		{"row-major-partial", RowMajor(edge, edge), ColMajor(edge, edge),
			NewBox([]int64{8, 8}, []int64{56, 56}), 48},
		{"col-major-partial", ColMajor(edge, edge), RowMajor(edge, edge),
			NewBox([]int64{8, 8}, []int64{56, 56}), 48},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			matched := PlanSeeks(tc.l, PlanScan(tc.l, tc.box, chunk))
			transposed := PlanSeeks(tc.l, PlanScan(tc.transpose, tc.box, chunk))
			if matched != tc.wantMatched {
				t.Errorf("matched plan seeks = %d, want %d", matched, tc.wantMatched)
			}
			if transposed < 4*matched {
				t.Errorf("transposed plan seeks = %d, want >= 4x matched (%d)", transposed, matched)
			}
			// Per-stripe maximality: no chunk of the matched plan may read
			// more runs than it has rows of the fast dimension — each slab
			// row coalesces into exactly one run.
			fast, ok := tc.l.FastDimension()
			if !ok {
				t.Fatal("permutation layout lost its fast dimension")
			}
			for i, ch := range PlanScan(tc.l, tc.box, chunk) {
				rows := ch.Size() / (ch.Hi[fast] - ch.Lo[fast])
				if rc := tc.l.RunCount(ch); rc > rows {
					t.Errorf("chunk %d: %d runs > %d rows (non-maximal stripes)", i, rc, rows)
				}
			}
		})
	}

	// Diagonal layouts have no rectangular stripe direction: the planner
	// falls back to row-major slabs, and what helps is chunk size — the
	// whole-box chunk is a single contiguous read under any bijective
	// layout of the full array.
	d := Diagonal(edge, edge)
	if got := PlanSeeks(d, PlanScan(d, full, 0)); got != 1 {
		t.Errorf("diagonal whole-box scan seeks = %d, want 1", got)
	}
	chunked := PlanSeeks(d, PlanScan(d, full, chunk))
	if whole := PlanSeeks(d, PlanScan(d, full, 0)); chunked < whole {
		t.Errorf("chunked diagonal scan (%d seeks) beat whole-box (%d)", chunked, whole)
	}
}
