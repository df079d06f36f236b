package deps

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"outcore/internal/ir"
	"outcore/internal/matrix"
)

// stencilNest builds A(i,j) = A(i-1,j) + A(i,j-1): flow deps (1,0), (0,1).
func stencilNest(n int64) (*ir.Nest, *ir.Array) {
	a := ir.NewArray("A", n+1, n+1)
	out := ir.RefAffine(a, [][]int64{{1, 0}, {0, 1}}, []int64{1, 1})
	in1 := ir.RefAffine(a, [][]int64{{1, 0}, {0, 1}}, []int64{0, 1})
	in2 := ir.RefAffine(a, [][]int64{{1, 0}, {0, 1}}, []int64{1, 0})
	nest := &ir.Nest{
		Loops: ir.Rect(n, n),
		Body:  []*ir.Stmt{ir.Assign(out, []ir.Ref{in1, in2}, "", ir.Sum())},
	}
	return nest, a
}

func TestAnalyzeStencilDistances(t *testing.T) {
	nest, _ := stencilNest(8)
	ds := Analyze(nest)
	want := map[string]bool{}
	for _, d := range ds {
		if !d.Uniform {
			t.Fatalf("non-uniform dependence for uniformly generated refs: %v", d)
		}
		want[d.String()] = true
	}
	// Both (1,0) and (0,1) flow/anti dependences must be present.
	found10, found01 := false, false
	for _, d := range ds {
		if d.Distance[0] == 1 && d.Distance[1] == 0 {
			found10 = true
		}
		if d.Distance[0] == 0 && d.Distance[1] == 1 {
			found01 = true
		}
	}
	if !found10 || !found01 {
		t.Errorf("missing stencil dependences: %v", ds)
	}
}

func TestAnalyzeTransposeNoDeps(t *testing.T) {
	// U(i,j) = V(j,i): different arrays, no dependence.
	u, v := ir.NewArray("U", 8, 8), ir.NewArray("V", 8, 8)
	nest := &ir.Nest{
		Loops: ir.Rect(8, 8),
		Body:  []*ir.Stmt{ir.Assign(ir.RefIdx(u, 2, 0, 1), []ir.Ref{ir.RefIdx(v, 2, 1, 0)}, "", ir.AddConst(1))},
	}
	if ds := Analyze(nest); len(ds) != 0 {
		t.Errorf("unexpected dependences: %v", ds)
	}
}

func TestAnalyzeSelfTransposeConservative(t *testing.T) {
	// A(i,j) = A(j,i): differently generated same-array refs; the GCD
	// test cannot disprove, so a conservative dependence must appear.
	a := ir.NewArray("A", 8, 8)
	nest := &ir.Nest{
		Loops: ir.Rect(8, 8),
		Body:  []*ir.Stmt{ir.Assign(ir.RefIdx(a, 2, 0, 1), []ir.Ref{ir.RefIdx(a, 2, 1, 0)}, "", ir.AddConst(0))},
	}
	ds := Analyze(nest)
	if len(ds) == 0 {
		t.Fatal("self-transpose dependence missed")
	}
	for _, d := range ds {
		if d.Uniform {
			t.Errorf("expected conservative dependence, got %v", d)
		}
	}
}

func TestAnalyzeOutOfRangeDistanceDropped(t *testing.T) {
	// A(i+100) = A(i) in a trip-8 loop: distance 100 exceeds the
	// iteration space, no dependence.
	a := ir.NewArray("A", 200)
	out := ir.RefAffine(a, [][]int64{{1}}, []int64{100})
	in := ir.RefAffine(a, [][]int64{{1}}, []int64{0})
	nest := &ir.Nest{Loops: ir.Rect(8), Body: []*ir.Stmt{ir.Assign(out, []ir.Ref{in}, "", ir.AddConst(0))}}
	if ds := Analyze(nest); len(ds) != 0 {
		t.Errorf("unexpected dependences: %v", ds)
	}
}

func TestAnalyzeGCDDisproves(t *testing.T) {
	// A(2i) = A(2i+1): parities never meet.
	a := ir.NewArray("A", 64)
	out := ir.RefAffine(a, [][]int64{{2}}, []int64{0})
	in := ir.RefAffine(a, [][]int64{{2}}, []int64{1})
	nest := &ir.Nest{Loops: ir.Rect(16), Body: []*ir.Stmt{ir.Assign(out, []ir.Ref{in}, "", ir.AddConst(0))}}
	if ds := Analyze(nest); len(ds) != 0 {
		t.Errorf("GCD test failed to disprove: %v", ds)
	}
}

func TestLegalTransformInterchange(t *testing.T) {
	interchange := matrix.FromRows([][]int64{{0, 1}, {1, 0}})
	// Stencil with deps (1,0) and (0,1): interchange maps them to (0,1)
	// and (1,0): both still lexpos -> legal.
	nest, _ := stencilNest(8)
	ds := Analyze(nest)
	if !LegalTransform(interchange, ds) {
		t.Error("interchange should be legal for the 5-point stencil")
	}
	// Reversal of the outer loop is illegal.
	reversal := matrix.FromRows([][]int64{{-1, 0}, {0, 1}})
	if LegalTransform(reversal, ds) {
		t.Error("outer reversal accepted")
	}
}

func TestLegalTransformSkewing(t *testing.T) {
	// Dependence (1,-1): interchange alone is illegal; skewing
	// [[1,0],[1,1]] makes it (1,0): legal.
	a := ir.NewArray("A", 20, 20)
	out := ir.RefAffine(a, [][]int64{{1, 0}, {0, 1}}, []int64{1, 0})
	in := ir.RefAffine(a, [][]int64{{1, 0}, {0, 1}}, []int64{0, 1})
	nest := &ir.Nest{Loops: ir.Rect(8, 8), Body: []*ir.Stmt{ir.Assign(out, []ir.Ref{in}, "", ir.AddConst(0))}}
	ds := Analyze(nest)
	if len(ds) == 0 {
		t.Fatal("missing dependence")
	}
	interchange := matrix.FromRows([][]int64{{0, 1}, {1, 0}})
	if LegalTransform(interchange, ds) {
		t.Error("interchange accepted for (1,-1) dependence")
	}
	skew := matrix.FromRows([][]int64{{1, 0}, {1, 1}})
	if !LegalTransform(skew, ds) {
		t.Error("skewing rejected for (1,-1) dependence")
	}
}

func TestLegalTransformIdentityAlwaysLegal(t *testing.T) {
	// Identity must be legal for every analyzed nest, here the
	// self-transpose A(i,j) = A(j,i), whose only cell is (<,>).
	a := ir.NewArray("A", 4, 4)
	nest := &ir.Nest{Loops: ir.Rect(4, 4), Body: []*ir.Stmt{ir.Assign(ir.RefIdx(a, 2, 0, 1), []ir.Ref{ir.RefIdx(a, 2, 1, 0)}, "", ir.AddConst(0))}}
	ds := Analyze(nest)
	if !LegalTransform(matrix.Identity(2), ds) {
		t.Errorf("identity rejected under %v", ds)
	}
	// Interchange maps (<,>) to (>,<): illegal.
	if LegalTransform(matrix.FromRows([][]int64{{0, 1}, {1, 0}}), ds) {
		t.Errorf("interchange accepted under %v", ds)
	}
}

// TestAnalyzeLexNegativeCell: in A(i+1,i+1) = A(i+2,i+2) over (i,j)
// the write at I and the read at I′ meet when i′ = i − 1, whatever j
// and j′ are. The difference I′ − I is lex-negative, so the cells are
// reported reversed, as anti dependences (<,*) from the read to the
// write: (<,<), (<,>) and the distance (1,0).
func TestAnalyzeLexNegativeCell(t *testing.T) {
	a := ir.NewArray("A", 8, 8)
	w := ir.RefAffine(a, [][]int64{{1, 0}, {1, 0}}, []int64{1, 1})
	r := ir.RefAffine(a, [][]int64{{1, 0}, {1, 0}}, []int64{2, 2})
	nest := &ir.Nest{Loops: ir.Rect(6, 6), Body: []*ir.Stmt{ir.Assign(w, []ir.Ref{r}, "", ir.AddConst(0))}}
	got := map[string]bool{}
	for _, d := range Analyze(nest) {
		got[d.String()] = true
	}
	for _, want := range []string{"anti A (<,<)", "anti A (1,0)", "anti A (<,>)", "output A (=,<)"} {
		if !got[want] {
			t.Errorf("missing %q in %v", want, got)
		}
	}
	if len(got) != 4 {
		t.Errorf("cells = %v, want exactly 4", got)
	}
	if LegalTransform(matrix.FromRows([][]int64{{-1, 0}, {0, 1}}), Analyze(nest)) {
		t.Error("reversing i accepted")
	}
}

func TestFullyPermutable(t *testing.T) {
	arr := ir.NewArray("A", 4, 4)
	mk := func(dist ...int64) Dependence {
		d := Dependence{Array: arr, Kind: "flow", Distance: dist, Uniform: true}
		for _, x := range dist {
			d.Dirs = append(d.Dirs, dirOf(x))
		}
		return d
	}
	// Non-negative everywhere: permutable.
	if !FullyPermutable([]Dependence{mk(1, 0), mk(0, 1), mk(1, 1)}, 0, 2) {
		t.Error("non-negative band rejected")
	}
	// (1,-1): not permutable as a whole band...
	if FullyPermutable([]Dependence{mk(1, -1)}, 0, 2) {
		t.Error("(1,-1) band accepted")
	}
	// ...but the inner loop alone is tilable once level 0 satisfies it.
	if !FullyPermutable([]Dependence{mk(1, -1)}, 1, 2) {
		t.Error("inner band after satisfaction rejected")
	}
	// Cells: (=,<) keeps the band permutable, (<,>) does not.
	if !FullyPermutable([]Dependence{{Array: arr, Kind: "flow", Dirs: []Dir{Zero, Pos}}}, 0, 2) {
		t.Error("(=,<) band rejected")
	}
	if FullyPermutable([]Dependence{{Array: arr, Kind: "flow", Dirs: []Dir{Pos, Neg}}}, 0, 2) {
		t.Error("(<,>) band accepted")
	}
}

// TestAnalyzeEqualitiesExact: the equalities are solved over the
// integers, so a unique solution pins the distance, a rank-deficient
// system leaves free levels (a cell that zeroes one pins the rest), and
// an inconsistent or fractional-only one has no dependence.
func TestAnalyzeEqualitiesExact(t *testing.T) {
	a := ir.NewArray("A", 40, 40)
	for _, c := range []struct {
		name string
		w, r ir.Ref
		want []string
	}{
		{"unique", ir.RefAffine(a, [][]int64{{1, 0}, {0, 1}}, []int64{3, 0}), ir.RefAffine(a, [][]int64{{1, 0}, {0, 1}}, []int64{0, 2}), []string{"flow A (3,-2)"}},
		{"under-determined", ir.RefAffine(a, [][]int64{{1, 1}, {2, 2}}, []int64{1, 2}), ir.RefAffine(a, [][]int64{{1, 1}, {2, 2}}, []int64{0, 0}),
			[]string{"anti A (<,>)", "flow A (0,1)", "flow A (1,0)", "flow A (<,>)", "output A (<,>)"}},
		{"inconsistent", ir.RefAffine(a, [][]int64{{1, 1}, {2, 2}}, []int64{1, 3}), ir.RefAffine(a, [][]int64{{1, 1}, {2, 2}}, []int64{0, 0}), []string{"output A (<,>)"}},
		{"fractional", ir.RefAffine(a, [][]int64{{2, 0}, {0, 1}}, []int64{1, 0}), ir.RefAffine(a, [][]int64{{2, 0}, {0, 1}}, []int64{0, 0}), nil},
	} {
		n := &ir.Nest{Loops: ir.Rect(8, 8), Body: []*ir.Stmt{ir.Assign(c.w, []ir.Ref{c.r}, "", ir.AddConst(0))}}
		if got := depStrings(Analyze(n)); !slices.Equal(got, c.want) {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
}

func TestPropertyUniformDistanceCorrect(t *testing.T) {
	// For A(I + c) = A(I) nests, the dependence distance must be
	// lex-normalized c.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c0, c1 := int64(rng.Intn(5)-2), int64(rng.Intn(5)-2)
		if c0 == 0 && c1 == 0 {
			return true
		}
		a := ir.NewArray("A", 32, 32)
		out := ir.RefAffine(a, [][]int64{{1, 0}, {0, 1}}, []int64{c0 + 8, c1 + 8})
		in := ir.RefAffine(a, [][]int64{{1, 0}, {0, 1}}, []int64{8, 8})
		nest := &ir.Nest{Loops: ir.Rect(10, 10), Body: []*ir.Stmt{ir.Assign(out, []ir.Ref{in}, "", ir.AddConst(0))}}
		ds := Analyze(nest)
		if len(ds) == 0 {
			return false
		}
		for _, d := range ds {
			if !d.Uniform {
				return false
			}
			want := []int64{c0, c1}
			if c0 < 0 || c0 == 0 && c1 < 0 {
				want = []int64{-c0, -c1}
			}
			if d.Distance[0] != want[0] || d.Distance[1] != want[1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyLegalityConsistentWithExecution(t *testing.T) {
	// Sound legality: if LegalTransform accepts T for the stencil, then
	// T·d is lexpos for both distances; cross-check directly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tm := matrix.NewInt(2, 2)
		for {
			for i := 0; i < 2; i++ {
				for j := 0; j < 2; j++ {
					tm.Set(i, j, int64(rng.Intn(5)-2))
				}
			}
			if tm.IsNonSingular() {
				break
			}
		}
		nest, _ := stencilNest(6)
		ds := Analyze(nest)
		legal := LegalTransform(tm, ds)
		manual := lexPositive(tm.MulVec([]int64{1, 0})) && lexPositive(tm.MulVec([]int64{0, 1}))
		return legal == manual
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDependenceString(t *testing.T) {
	arr := ir.NewArray("A", 4, 4)
	d := Dependence{Array: arr, Kind: "flow", Distance: []int64{1, 0}, Uniform: true, Dirs: []Dir{Pos, Zero}}
	if d.String() != "flow A (1,0)" {
		t.Errorf("String = %q", d.String())
	}
	d2 := Dependence{Array: arr, Kind: "anti", Dirs: []Dir{Pos, Zero}}
	if d2.String() != "anti A (<,=)" {
		t.Errorf("String = %q", d2.String())
	}
}

func TestBanerjeeDisprovesDisjointRegions(t *testing.T) {
	// A(i) writes rows 0..7; A(j+8) reads rows 8..15: the GCD test
	// cannot separate them (gcd 1 divides everything) but the Banerjee
	// bounds can.
	a := ir.NewArray("A", 16)
	w := ir.RefAffine(a, [][]int64{{1, 0}}, []int64{0})
	r := ir.RefAffine(a, [][]int64{{0, 1}}, []int64{8})
	nest := &ir.Nest{Loops: ir.Rect(8, 8), Body: []*ir.Stmt{ir.Assign(w, []ir.Ref{r}, "", ir.AddConst(0))}}
	if ds := writeReadCells(nest); len(ds) != 0 {
		t.Errorf("disjoint regions reported dependent: %v", ds)
	}
}

// writeReadCells drops the output cells of Analyze: a write A(i) over
// (i,j) stores to one element from every j, a real (=,<) output
// dependence beside the write-read pairs these tests are about.
func writeReadCells(n *ir.Nest) []Dependence {
	return slices.DeleteFunc(Analyze(n), func(d Dependence) bool { return d.Kind == "output" })
}

func TestBanerjeeKeepsOverlap(t *testing.T) {
	// A(i) vs A(j+4) with i,j in 0..7: rows 4..7 overlap, so a
	// conservative dependence must remain.
	a := ir.NewArray("A", 16)
	w := ir.RefAffine(a, [][]int64{{1, 0}}, []int64{0})
	r := ir.RefAffine(a, [][]int64{{0, 1}}, []int64{4})
	nest := &ir.Nest{Loops: ir.Rect(8, 8), Body: []*ir.Stmt{ir.Assign(w, []ir.Ref{r}, "", ir.AddConst(0))}}
	if ds := Analyze(nest); len(ds) == 0 {
		t.Error("overlapping regions reported independent")
	}
}

func TestBanerjeeScaledCoefficients(t *testing.T) {
	// A(4i) hits rows {0,4,...}, A(4j+2) hits {2,6,...}: GCD disproves;
	// A(4i) vs A(2j+32): Banerjee disproves (ranges [0,28] vs [32,46]).
	a := ir.NewArray("A", 64)
	w := ir.RefAffine(a, [][]int64{{4, 0}}, []int64{0})
	r1 := ir.RefAffine(a, [][]int64{{0, 4}}, []int64{2})
	r2 := ir.RefAffine(a, [][]int64{{0, 2}}, []int64{32})
	nest1 := &ir.Nest{Loops: ir.Rect(8, 8), Body: []*ir.Stmt{ir.Assign(w, []ir.Ref{r1}, "", ir.AddConst(0))}}
	if ds := writeReadCells(nest1); len(ds) != 0 {
		t.Errorf("GCD-separable refs dependent: %v", ds)
	}
	nest2 := &ir.Nest{Loops: ir.Rect(8, 8), Body: []*ir.Stmt{ir.Assign(w, []ir.Ref{r2}, "", ir.AddConst(0))}}
	if ds := writeReadCells(nest2); len(ds) != 0 {
		t.Errorf("Banerjee-separable refs dependent: %v", ds)
	}
}

// TestTransformedCells: the cells of T·(I′ − I), oriented in the
// transformed order. The stencil's (1,0) and (0,1) swap under
// interchange; under the skew [[1,1],[0,1]] the cell (<,>) of
// A(i,j) = A(j,i) spreads over every sign of i′+j′ − (i+j)... which is
// always 0: i′+j′ = j+i, so the skewed cell is (=,<) after orientation.
func TestTransformedCells(t *testing.T) {
	nest, _ := stencilNest(8)
	got := depStrings(Transformed(nest, matrix.FromRows([][]int64{{0, 1}, {1, 0}})))
	if want := []string{"flow A (0,1)", "flow A (1,0)"}; !slices.Equal(got, want) {
		t.Errorf("interchanged stencil = %v, want %v", got, want)
	}
	a := ir.NewArray("A", 8, 8)
	tr := &ir.Nest{Loops: ir.Rect(8, 8), Body: []*ir.Stmt{ir.Assign(ir.RefIdx(a, 2, 0, 1), []ir.Ref{ir.RefIdx(a, 2, 1, 0)}, "", ir.AddConst(0))}}
	got = depStrings(Transformed(tr, matrix.FromRows([][]int64{{1, 1}, {0, 1}})))
	if want := []string{"anti A (=,<)", "flow A (=,<)"}; !slices.Equal(got, want) {
		t.Errorf("skewed transpose = %v, want %v", got, want)
	}
}

// TestAnalyzeSelfOutput: a write that folds or omits loops depends on
// itself, and an injective one does not.
func TestAnalyzeSelfOutput(t *testing.T) {
	a := ir.NewArray("A", 40, 40)
	for _, c := range []struct {
		name string
		out  ir.Ref
		want []string
	}{
		{"injective", ir.RefIdx(a, 2, 1, 0), nil},
		{"omits k", ir.RefIdx(a, 3, 0, 1), []string{"output A (=,=,<)"}},
		{"omits i", ir.RefIdx(a, 3, 2, 1), []string{"output A (<,=,=)"}},
		{"scaled, omits i", ir.RefAffine(a, [][]int64{{0, 2, 0}, {0, 0, 1}}, []int64{0, 0}), []string{"output A (<,=,=)"}},
		{"folds i+k", ir.RefAffine(a, [][]int64{{0, 1, 0}, {1, 0, 1}}, []int64{0, 0}), []string{"output A (<,=,>)"}},
	} {
		n := &ir.Nest{Loops: ir.Rect(8, 8, 8)[:c.out.Depth()], Body: []*ir.Stmt{
			ir.Assign(c.out, nil, "", ir.AddConst(0)),
		}}
		if got := depStrings(Analyze(n)); !slices.Equal(got, c.want) {
			t.Errorf("%s: Analyze = %q, want %q", c.name, got, c.want)
		}
	}
}

// depStrings renders dependences, sorted.
func depStrings(ds []Dependence) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.String())
	}
	slices.Sort(out)
	return out
}
