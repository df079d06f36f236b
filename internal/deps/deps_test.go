package deps

import (
	"math/rand"
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
	// Identity must be legal even for all-star conservative deps.
	ds := []Dependence{{Array: ir.NewArray("A", 4, 4), Kind: "flow", Dirs: []Dir{Star, Star}}}
	if !LegalTransform(matrix.Identity(2), ds) {
		t.Error("identity rejected under conservative dependences")
	}
	// Interchange is NOT provably legal under (*,*).
	if LegalTransform(matrix.FromRows([][]int64{{0, 1}, {1, 0}}), ds) {
		t.Error("interchange accepted under (*,*)")
	}
}

func TestLexposRefinements(t *testing.T) {
	refs := lexposRefinements([]Dir{Star, Star})
	// (+,*) x3 + (0,+) = 4 refinements.
	if len(refs) != 4 {
		t.Errorf("refinements = %v", refs)
	}
	for _, r := range refs {
		// First non-zero must be Pos.
		for _, d := range r {
			if d == Zero {
				continue
			}
			if d != Pos {
				t.Errorf("refinement %v not lexpos", r)
			}
			break
		}
	}
	// A leading Neg direction has no lexpos refinement.
	if got := lexposRefinements([]Dir{Neg, Pos}); len(got) != 0 {
		t.Errorf("leading-Neg refinements = %v", got)
	}
}

func TestFullyPermutable(t *testing.T) {
	arr := ir.NewArray("A", 4, 4)
	mk := func(dist ...int64) Dependence {
		return Dependence{Array: arr, Kind: "flow", Distance: dist, Uniform: true, Dirs: dirsOf(dist)}
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
	// A leading-zero star refines to (=,+) only: the band is permutable.
	star := Dependence{Array: arr, Kind: "flow", Dirs: []Dir{Zero, Star}}
	if !FullyPermutable([]Dependence{star}, 0, 2) {
		t.Error("(=,*) band rejected; its only lexpos refinement is (=,+)")
	}
	// A star after a positive component can be negative: not permutable.
	star2 := Dependence{Array: arr, Kind: "flow", Dirs: []Dir{Pos, Star}}
	if FullyPermutable([]Dependence{star2}, 0, 2) {
		t.Error("(<,*) band accepted")
	}
}

func TestSolveIntLinear(t *testing.T) {
	l := matrix.FromRows([][]int64{{1, 0}, {0, 1}})
	d, unique, consistent := solveIntLinear(l, []int64{3, -2})
	if !consistent || !unique || d[0] != 3 || d[1] != -2 {
		t.Errorf("solve = %v %v %v", d, unique, consistent)
	}
	// Singular consistent: under-determined.
	l2 := matrix.FromRows([][]int64{{1, 1}, {2, 2}})
	_, unique, consistent = solveIntLinear(l2, []int64{1, 2})
	if !consistent || unique {
		t.Error("under-determined case mishandled")
	}
	// Inconsistent.
	_, _, consistent = solveIntLinear(l2, []int64{1, 3})
	if consistent {
		t.Error("inconsistent case accepted")
	}
	// Rational-only solution: no integer dependence.
	l3 := matrix.FromRows([][]int64{{2, 0}, {0, 1}})
	_, _, consistent = solveIntLinear(l3, []int64{1, 0})
	if consistent {
		t.Error("fractional solution accepted")
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
			want := lexNormalize([]int64{c0, c1})
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
	d := Dependence{Array: arr, Kind: "flow", Distance: []int64{1, 0}, Uniform: true, Dirs: dirsOf([]int64{1, 0})}
	if d.String() != "flow A (1,0)" {
		t.Errorf("String = %q", d.String())
	}
	d2 := Dependence{Array: arr, Kind: "anti", Dirs: []Dir{Star, Zero}}
	if d2.String() != "anti A (*,=)" {
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
	if ds := Analyze(nest); len(ds) != 0 {
		t.Errorf("disjoint regions reported dependent: %v", ds)
	}
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
	if ds := Analyze(nest1); len(ds) != 0 {
		t.Errorf("GCD-separable refs dependent: %v", ds)
	}
	nest2 := &ir.Nest{Loops: ir.Rect(8, 8), Body: []*ir.Stmt{ir.Assign(w, []ir.Ref{r2}, "", ir.AddConst(0))}}
	if ds := Analyze(nest2); len(ds) != 0 {
		t.Errorf("Banerjee-separable refs dependent: %v", ds)
	}
}

func TestTransformDirs(t *testing.T) {
	interchange := matrix.FromRows([][]int64{{0, 1}, {1, 0}})
	got := TransformDirs(interchange, []Dir{Zero, Pos})
	if got[0] != Pos || got[1] != Zero {
		t.Errorf("interchange of (=,<) = %v", got)
	}
	// Skew [[1,1],[0,1]] of (+,-): first component + + - = ambiguous.
	skew := matrix.FromRows([][]int64{{1, 1}, {0, 1}})
	got = TransformDirs(skew, []Dir{Pos, Neg})
	if got[0] != Star || got[1] != Neg {
		t.Errorf("skew of (<,>) = %v", got)
	}
	// Stars stay stars where touched, zeros where annihilated.
	got = TransformDirs(matrix.FromRows([][]int64{{1, 0}, {0, 0}}), []Dir{Star, Pos})
	if got[0] != Star || got[1] != Zero {
		t.Errorf("projection of (*,<) = %v", got)
	}
}

// TestSelfOutput: a write that folds or omits loops depends on itself,
// and an injective one does not.
func TestSelfOutput(t *testing.T) {
	a := ir.NewArray("A", 40, 40)
	for _, c := range []struct {
		name string
		out  ir.Ref
		want string // "" = no self dependence
	}{
		{"injective", ir.RefIdx(a, 2, 1, 0), ""},
		{"omits k", ir.RefIdx(a, 3, 0, 1), "output A (=,=,*)"},
		{"scaled, omits i", ir.RefAffine(a, [][]int64{{0, 2, 0}, {0, 0, 1}}, []int64{0, 0}), "output A (*,=,=)"},
		{"folds i+k", ir.RefAffine(a, [][]int64{{0, 1, 0}, {1, 0, 1}}, []int64{0, 0}), "output A (*,=,*)"},
	} {
		n := &ir.Nest{Loops: ir.Rect(8, 8, 8)[:c.out.Depth()], Body: []*ir.Stmt{
			ir.Assign(c.out, nil, "", ir.AddConst(0)),
		}}
		var got string
		if ds := SelfOutput(n); len(ds) > 1 {
			t.Fatalf("%s: %v, want at most one dependence", c.name, ds)
		} else if len(ds) == 1 {
			got = ds[0].String()
		}
		if got != c.want {
			t.Errorf("%s: SelfOutput = %q, want %q", c.name, got, c.want)
		}
	}
}
