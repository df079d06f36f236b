package codegen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"outcore/internal/core"
	"outcore/internal/ir"
	"outcore/internal/matrix"
	"outcore/internal/ooc"
	"outcore/internal/tiling"
)

// refSpec is a generated reference before its array's extents are
// known: subscript rows over the nest's loops and raw offsets.
type refSpec struct {
	arr  int
	rows [][]int64
	off  []int64
}

// genProgram draws a random valid program from a seed: one to three
// nests of depth 2-4 (trips 2-6) over one to three arrays of rank 1-4,
// so arrays chain layout decisions from nest to nest. A subscript row
// is a loop index (a permutation), the sum or difference of two (a
// skew), a doubled index or a constant, plus an offset. In most nests
// every reference to a written array shares the write's rows, the
// uniformly generated pairs real kernels have. One statement in four carries a
// GuardEq. Offsets are shifted per array so every subscript is in
// bounds, and the extents fit them exactly.
func genProgram(seed int64) *ir.Program {
	rng := rand.New(rand.NewSource(seed))
	ranks := make([]int, 1+rng.Intn(3))
	for i := range ranks {
		ranks[i] = 1 + rng.Intn(4)
	}
	type stmtSpec struct {
		out   refSpec
		in    []refSpec
		guard []ir.GuardEq
		coef  []float64
	}
	type nestSpec struct {
		trips []int64
		body  []stmtSpec
	}
	row := func(k int) []int64 {
		r := make([]int64, k)
		a, b := rng.Intn(k), rng.Intn(k)
		switch rng.Intn(6) {
		case 0, 1, 2:
			r[a] = 1
		case 3:
			r[a], r[b] = 1, 1
			if a == b {
				r[a] = 2
			}
		case 4:
			r[a] = 1
			if a != b {
				r[b] = -1
			}
		}
		return r
	}
	ref := func(arr, k int) refSpec {
		s := refSpec{arr: arr, off: make([]int64, ranks[arr])}
		for d := range s.off {
			s.rows = append(s.rows, row(k))
			s.off[d] = int64(rng.Intn(5) - 2)
		}
		return s
	}
	nests := make([]nestSpec, 1+rng.Intn(3))
	for ni := range nests {
		k := 2 + rng.Intn(3)
		ns := &nests[ni]
		for l := 0; l < k; l++ {
			ns.trips = append(ns.trips, 2+int64(rng.Intn(5)))
		}
		for si := 0; si < 1+rng.Intn(2); si++ {
			st := stmtSpec{out: ref(rng.Intn(len(ranks)), k)}
			for r := 0; r < 1+rng.Intn(3); r++ {
				st.in = append(st.in, ref(rng.Intn(len(ranks)), k))
				st.coef = append(st.coef, []float64{0.5, 0.25, -0.5}[rng.Intn(3)])
			}
			if rng.Intn(4) == 0 {
				l := rng.Intn(k)
				st.guard = []ir.GuardEq{{Level: l, Value: int64(rng.Intn(int(ns.trips[l])))}}
			}
			ns.body = append(ns.body, st)
		}
		// Build refuses a written array reached through two access
		// matrices in one nest; in seven nests of eight every reference
		// to a written array takes its first write's rows.
		if rng.Intn(8) == 0 {
			continue
		}
		rows := map[int][][]int64{}
		for _, st := range ns.body {
			if rows[st.out.arr] == nil {
				rows[st.out.arr] = st.out.rows
			}
		}
		for si := range ns.body {
			st := &ns.body[si]
			st.out.rows = rows[st.out.arr]
			for ri, r := range st.in {
				if w := rows[r.arr]; w != nil {
					st.in[ri].rows = w
				}
			}
		}
	}
	// Per array and dimension, the subscript range over every reference.
	lo := make([][]int64, len(ranks))
	hi := make([][]int64, len(ranks))
	for a, r := range ranks {
		lo[a], hi[a] = make([]int64, r), make([]int64, r)
		for d := range lo[a] {
			lo[a][d], hi[a][d] = math.MaxInt64, math.MinInt64
		}
	}
	span := func(s refSpec, trips []int64) {
		for d, r := range s.rows {
			mn, mx := s.off[d], s.off[d]
			for j, c := range r {
				if c > 0 {
					mx += c * (trips[j] - 1)
				} else {
					mn += c * (trips[j] - 1)
				}
			}
			lo[s.arr][d], hi[s.arr][d] = min(lo[s.arr][d], mn), max(hi[s.arr][d], mx)
		}
	}
	for _, ns := range nests {
		for _, st := range ns.body {
			span(st.out, ns.trips)
			for _, in := range st.in {
				span(in, ns.trips)
			}
		}
	}
	p := &ir.Program{Name: fmt.Sprintf("fuzz%d", seed)}
	for a := range ranks {
		dims := make([]int64, ranks[a])
		for d := range dims {
			if lo[a][d] > hi[a][d] { // array unused
				lo[a][d], hi[a][d] = 0, 0
			}
			dims[d] = hi[a][d] - lo[a][d] + 1
		}
		p.Arrays = append(p.Arrays, ir.NewArray(fmt.Sprintf("A%d", a), dims...))
	}
	mk := func(s refSpec) ir.Ref {
		off := make([]int64, len(s.off))
		for d := range off {
			off[d] = s.off[d] - lo[s.arr][d]
		}
		return ir.RefAffine(p.Arrays[s.arr], s.rows, off)
	}
	for ni, ns := range nests {
		n := &ir.Nest{ID: ni, Loops: ir.Rect(ns.trips...)}
		for _, st := range ns.body {
			var in []ir.Ref
			for _, r := range st.in {
				in = append(in, mk(r))
			}
			coef := st.coef
			s := ir.Assign(mk(st.out), in, "f", func(in []float64, iv []int64) float64 {
				v := float64(iv[0]) - 0.5*float64(iv[len(iv)-1])
				for i, x := range in {
					v += coef[i] * x
				}
				return v
			})
			s.Guard = st.guard
			n.Body = append(n.Body, s)
		}
		p.Nests = append(p.Nests, n)
	}
	return p
}

// fuzzPlans is every optimizer's plan for the program.
func fuzzPlans(p *ir.Program) map[string]*core.Plan {
	plans := allPlans(p)
	var o core.Optimizer
	plans["optimal"] = o.OptimizeOptimal(p)
	return plans
}

// conflictDiffs enumerates every pair of conflicting instances of the
// nest (two references to one array, one of them a write, touching one
// element at iterations I before I′) and returns each distinct
// difference I′ − I once.
func conflictDiffs(n *ir.Nest) [][]int64 {
	var iters [][]int64
	iv := make([]int64, n.Depth())
	var walk func(l int)
	walk = func(l int) {
		if l == n.Depth() {
			iters = append(iters, slices.Clone(iv))
			return
		}
		for v := n.Loops[l].Lo; v <= n.Loops[l].Hi; v++ {
			iv[l] = v
			walk(l + 1)
		}
	}
	walk(0)
	type access struct {
		iter  int
		write bool
	}
	// Generated subscripts stay below 256 and differences within ±6:
	// pack elements and differences into one word each to key the maps.
	at := map[int64][]access{}
	for i, I := range iters {
		for _, s := range n.Body {
			for ri, r := range s.Refs() {
				var key int64
				for _, x := range r.Element(I) {
					key = key<<8 | x
				}
				key |= int64(slices.Index(n.Arrays(), r.Array)) << 40
				at[key] = append(at[key], access{i, ri == 0})
			}
		}
	}
	seen := map[int64]bool{}
	var out [][]int64
	d := make([]int64, n.Depth())
	for _, as := range at {
		for _, a := range as {
			for _, b := range as {
				if a.iter >= b.iter || !a.write && !b.write {
					continue // iterations run in index order: a before b
				}
				var key int64
				for l := range d {
					d[l] = iters[b.iter][l] - iters[a.iter][l]
					key = key<<4 | (d[l] + 8)
				}
				if !seen[key] {
					seen[key] = true
					out = append(out, slices.Clone(d))
				}
			}
		}
	}
	return out
}

// legalFor checks T against enumerated instance differences: T·d must
// stay lexicographically positive.
func legalFor(t *matrix.Int, diffs [][]int64) error {
	for _, d := range diffs {
		e := t.MulVec(d)
		if first := slices.IndexFunc(e, func(x int64) bool { return x != 0 }); first < 0 || e[first] < 0 {
			return fmt.Errorf("difference %v becomes %v", d, e)
		}
	}
	return nil
}

// checkCompile runs one generated program through every plan. Each
// emitted T must be unimodular and legal against the enumerated
// instance pairs. Where Build accepts the plan (at the strategy and
// budget the seed picks), the real execution must equal the in-core
// one bit for bit, a dry run must count exactly the real run's I/O and
// iterations, and the outermost tile loop partitioned into P ∈ {1, 3}
// slices, run in order, must equal the serial run. It returns how many
// plans Build accepted and refused.
func checkCompile(t *testing.T, seed int64) (accepted, refused int) {
	p := genProgram(seed)
	if err := p.Validate(); err != nil {
		t.Fatalf("seed %d: generated program invalid: %v", seed, err)
	}
	rng := rand.New(rand.NewSource(seed))
	strat := []tiling.Strategy{tiling.Traditional, tiling.OutOfCore}[rng.Intn(2)]
	budget := max(totalElems(p)/[]int64{2, 4, 16}[rng.Intn(3)], 1)
	opts := Options{Strategy: strat, MemBudget: budget}
	init := seedStore(p, seed)
	ref := init.Clone()
	p.Execute(ref)
	diffs := map[*ir.Nest][][]int64{}
	for _, n := range p.Nests {
		diffs[n] = conflictDiffs(n)
	}
plans:
	for name, plan := range fuzzPlans(p) {
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("seed %d, %s, %s, budget %d: %s\n%s", seed, name, strat, budget, fmt.Sprintf(format, args...), p)
		}
		for _, n := range p.Nests {
			tm := plan.Nests[n].T
			if !tm.IsUnimodular() {
				fail("nest %d: T = %v is not unimodular", n.ID, tm)
			}
			if err := legalFor(tm, diffs[n]); err != nil {
				fail("nest %d: T = %v is illegal: %v", n.ID, tm, err)
			}
		}
		for _, n := range p.Nests {
			if _, err := Build(n, plan.Nests[n], opts); err != nil {
				refused++
				continue plans
			}
		}
		accepted++
		d, err := SetupDisk(p, plan, 8, init)
		if err != nil {
			fail("setup: %v", err)
		}
		st, err := RunProgram(p, plan, d, ooc.NewMemory(budget), opts)
		if err != nil {
			fail("run: %v", err)
		}
		got := DiskToStore(p, d)
		if a, i, ok := firstDiff(p, ref, got); !ok {
			fail("array %s element %d: real %v, in-core %v", a.Name, i, got.Data(a)[i], ref.Data(a)[i])
		}
		dry := opts
		dry.DryRun = true
		dd, err := SetupDiskOn(ooc.NewDisk(8).NoBacking(), p, plan, nil)
		if err != nil {
			fail("dry setup: %v", err)
		}
		dst, err := RunProgram(p, plan, dd, ooc.NewMemory(budget), dry)
		if err != nil {
			fail("dry run refused what the real run accepted: %v", err)
		}
		if dd.Stats != d.Stats || dst != st {
			fail("dry run counts %+v %+v, real %+v %+v", dd.Stats, dst, d.Stats, st)
		}
		for _, parts := range []int{1, 3} {
			pd, err := SetupDisk(p, plan, 8, init)
			if err != nil {
				fail("setup: %v", err)
			}
			for _, n := range p.Nests {
				s, err := Build(n, plan.Nests[n], opts)
				if err != nil {
					fail("nest %d: %v", n.ID, err)
				}
				for part := 0; part < parts; part++ {
					if _, err := s.ExecuteSlice(pd, ooc.NewMemory(budget), part, parts); err != nil {
						fail("nest %d part %d/%d: %v", n.ID, part, parts, err)
					}
				}
			}
			if a, i, ok := firstDiff(p, got, DiskToStore(p, pd)); !ok {
				fail("P=%d: array %s element %d differs from the serial run", parts, a.Name, i)
			}
		}
	}
	return accepted, refused
}

// totalElems sums the program's array sizes.
func totalElems(p *ir.Program) int64 {
	var n int64
	for _, a := range p.Arrays {
		n += a.Len()
	}
	return n
}

// firstDiff compares two stores bit for bit.
func firstDiff(p *ir.Program, want, got *ir.Store) (*ir.Array, int, bool) {
	for _, a := range p.Arrays {
		w, g := want.Data(a), got.Data(a)
		for i := range w {
			if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
				return a, i, false
			}
		}
	}
	return nil, 0, true
}

// FuzzCompile is the differential compiler fuzzer: a seed names a
// generated program, checked by checkCompile. The corpus in
// testdata/fuzz/FuzzCompile holds seeds whose programs an analysis
// that dropped lex-negative cells and self output dependences
// compiled to an illegal T.
func FuzzCompile(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64) { checkCompile(t, seed) })
}

// TestFuzzCompileSeeds runs FuzzCompile's checks on a fixed slice of
// seeds and reports the share of plans Build accepts.
func TestFuzzCompileSeeds(t *testing.T) {
	const seeds = 500
	var accepted, refused int
	for seed := int64(0); seed < seeds; seed++ {
		a, r := checkCompile(t, seed)
		accepted, refused = accepted+a, refused+r
	}
	t.Logf("%d seeds: Build accepted %d of %d plans (%.1f%%)", seeds, accepted, accepted+refused, 100*float64(accepted)/float64(accepted+refused))
}
