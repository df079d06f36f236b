// Package deps implements data-dependence analysis for affine loop
// nests and legality checking of linear loop transformations.
//
// The optimizer only ever applies a transformation T when T·d remains
// lexicographically positive for every dependence distance/direction
// vector d in the nest (the classical legality condition the paper
// inherits from Wolf & Lam). Distances are computed exactly for
// uniformly generated references; everything else degrades soundly to
// direction vectors with unknown (*) components.
package deps

import (
	"fmt"
	"slices"
	"strings"

	"outcore/internal/ir"
	"outcore/internal/matrix"
	"outcore/internal/rational"
)

// Dir is the sign of one dependence-vector component.
type Dir int8

// Direction constants: Pos means the component is >= 1, Neg <= -1.
const (
	Zero Dir = iota
	Pos
	Neg
	Star // unknown sign
)

func (d Dir) String() string {
	switch d {
	case Zero:
		return "="
	case Pos:
		return "<"
	case Neg:
		return ">"
	default:
		return "*"
	}
}

// Dependence records a (possibly conservative) dependence between two
// references to the same array within one nest.
type Dependence struct {
	Array    *ir.Array
	Kind     string  // "flow", "anti", "output", or "input" (input deps kept for reuse analysis)
	Distance []int64 // exact distance vector when Uniform
	Uniform  bool
	Dirs     []Dir // always populated; derived from Distance when Uniform
}

func (d Dependence) String() string {
	parts := make([]string, len(d.Dirs))
	if d.Uniform {
		for i, x := range d.Distance {
			parts[i] = fmt.Sprintf("%d", x)
		}
	} else {
		for i, x := range d.Dirs {
			parts[i] = x.String()
		}
	}
	return fmt.Sprintf("%s %s (%s)", d.Kind, d.Array.Name, strings.Join(parts, ","))
}

// Analyze returns the loop-carried dependences of a nest. Loop-
// independent dependences (zero distance) are dropped: they constrain
// statement order inside an iteration, which linear loop
// transformations preserve. Input (read-read) dependences are not
// reported.
func Analyze(n *ir.Nest) []Dependence {
	var out []Dependence
	type occ struct {
		ref   ir.Ref
		write bool
	}
	var occs []occ
	for _, s := range n.Body {
		occs = append(occs, occ{s.Out, true})
		for _, r := range s.In {
			occs = append(occs, occ{r, false})
		}
	}
	for a := range occs {
		for b := range occs {
			if a == b {
				continue
			}
			oa, ob := occs[a], occs[b]
			if oa.ref.Array != ob.ref.Array {
				continue
			}
			if !oa.write && !ob.write {
				continue
			}
			// Consider each unordered pair once (a < b); pairDependence
			// itself normalizes the distance to be lexicographically
			// positive.
			if a > b {
				continue
			}
			if d, ok := pairDependence(n, oa.ref, ob.ref, oa.write, ob.write); ok {
				out = append(out, d)
			}
		}
	}
	return dedup(out)
}

// SelfOutput returns the output dependences of each statement's write
// with itself: a write whose subscript omits or folds loops (A(j,i+k)
// in a nest over i, j, k) stores to one element from many iterations,
// and their order decides the final value. Analyze does not report
// these pairs; tiling legality must see them, since a tiled band that
// reverses two such writes keeps the wrong last value.
func SelfOutput(n *ir.Nest) []Dependence {
	var out []Dependence
	for _, s := range n.Body {
		d, ok := pairDependence(n, s.Out, s.Out, true, true)
		if ok && (len(out) == 0 || !slices.ContainsFunc(out, func(o Dependence) bool { return o.String() == d.String() })) {
			out = append(out, d)
		}
	}
	return out
}

// pairDependence tests two same-array references for a loop-carried
// dependence.
func pairDependence(n *ir.Nest, r1, r2 ir.Ref, w1, w2 bool) (Dependence, bool) {
	kind := "flow"
	switch {
	case w1 && w2:
		kind = "output"
	case !w1 && w2:
		kind = "anti"
	}
	k := n.Depth()
	if sameMatrix(r1.L, r2.L) {
		// Uniformly generated: L·d == o1 - o2 with d = I2 - I1.
		rhs := make([]int64, r1.Array.Rank())
		for i := range rhs {
			rhs[i] = r1.Off[i] - r2.Off[i]
		}
		d, unique, consistent := solveIntLinear(r1.L, rhs)
		if !consistent {
			return Dependence{}, false
		}
		if unique {
			if matrix.IsZeroVec(d) {
				return Dependence{}, false // loop-independent
			}
			if !withinTripBounds(n, d) {
				return Dependence{}, false
			}
			d = lexNormalize(d)
			return Dependence{Array: r1.Array, Kind: kind, Distance: d, Uniform: true, Dirs: dirsOf(d)}, true
		}
		// Under-determined: the solution space is particular + kernel.
		// Components untouched by the kernel are pinned to the particular
		// solution; the rest are unknown. This keeps reduction-style
		// dependences like (=,=,*) instead of collapsing to all-stars.
		if dirs, ok := underdeterminedDirs(r1.L, rhs, k); ok {
			return Dependence{Array: r1.Array, Kind: kind, Dirs: dirs}, true
		}
		return Dependence{}, false
	}
	// Differently generated references: per-dimension GCD and Banerjee
	// tests can disprove; otherwise conservative all-star.
	for row := 0; row < r1.Array.Rank(); row++ {
		coefs := append(append([]int64{}, r1.L.Row(row)...), negate(r2.L.Row(row))...)
		g := rational.GCDAll(coefs...)
		diff := r2.Off[row] - r1.Off[row]
		if g == 0 {
			if diff != 0 {
				return Dependence{}, false
			}
			continue
		}
		if diff%g != 0 {
			return Dependence{}, false
		}
	}
	if banerjeeDisproves(n, r1, r2) {
		return Dependence{}, false
	}
	return Dependence{Array: r1.Array, Kind: kind, Dirs: allStar(k)}, true
}

// banerjeeDisproves applies the Banerjee bounds test: the equation
// r1.L·I1 + o1 = r2.L·I2 + o2 has a solution inside the rectangular
// iteration space only if, per array dimension, zero lies within the
// interval of (r1 row)·I1 - (r2 row)·I2 + (o1 - o2) over the bounds.
func banerjeeDisproves(n *ir.Nest, r1, r2 ir.Ref) bool {
	for row := 0; row < r1.Array.Rank(); row++ {
		lo := r1.Off[row] - r2.Off[row]
		hi := lo
		for j, loop := range n.Loops {
			addIntervalTerm(&lo, &hi, r1.L.At(row, j), loop.Lo, loop.Hi)
			addIntervalTerm(&lo, &hi, -r2.L.At(row, j), loop.Lo, loop.Hi)
		}
		if lo > 0 || hi < 0 {
			return true
		}
	}
	return false
}

// addIntervalTerm widens [lo, hi] by c·x with x in [xlo, xhi].
func addIntervalTerm(lo, hi *int64, c, xlo, xhi int64) {
	if c >= 0 {
		*lo += c * xlo
		*hi += c * xhi
	} else {
		*lo += c * xhi
		*hi += c * xlo
	}
}

// solveIntLinear solves L·d = rhs over the integers. It returns the
// solution when unique, unique=false when the system is consistent but
// under-determined, and consistent=false when no integer solution
// exists.
func solveIntLinear(l *matrix.Int, rhs []int64) (d []int64, unique, consistent bool) {
	rows, cols := l.Rows(), l.Cols()
	// Rational Gaussian elimination on the augmented matrix.
	aug := matrix.NewRat(rows, cols+1)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			aug.Set(i, j, rational.FromInt(l.At(i, j)))
		}
		aug.Set(i, cols, rational.FromInt(rhs[i]))
	}
	pivotCols := make([]int, 0, rows)
	r := 0
	for c := 0; c < cols && r < rows; c++ {
		p := -1
		for i := r; i < rows; i++ {
			if !aug.At(i, c).IsZero() {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		swapRatRows(aug, r, p)
		scaleRatRow(aug, r, aug.At(r, c).Inv())
		for i := 0; i < rows; i++ {
			if i == r || aug.At(i, c).IsZero() {
				continue
			}
			addRatRow(aug, i, r, aug.At(i, c).Neg())
		}
		pivotCols = append(pivotCols, c)
		r++
	}
	// Inconsistency: zero row with nonzero rhs.
	for i := r; i < rows; i++ {
		if !aug.At(i, cols).IsZero() {
			return nil, false, false
		}
	}
	if len(pivotCols) < cols {
		return nil, false, true // under-determined
	}
	d = make([]int64, cols)
	for idx, c := range pivotCols {
		v := aug.At(idx, cols)
		if !v.IsInt() {
			return nil, false, false // rational-only solution: no integer dependence
		}
		d[c] = v.Int()
	}
	return d, true, true
}

func swapRatRows(m *matrix.Rat, i, j int) {
	if i == j {
		return
	}
	for k := 0; k < m.Cols(); k++ {
		vi, vj := m.At(i, k), m.At(j, k)
		m.Set(i, k, vj)
		m.Set(j, k, vi)
	}
}

func scaleRatRow(m *matrix.Rat, i int, f rational.Rat) {
	for k := 0; k < m.Cols(); k++ {
		m.Set(i, k, m.At(i, k).Mul(f))
	}
}

func addRatRow(m *matrix.Rat, dst, src int, f rational.Rat) {
	for k := 0; k < m.Cols(); k++ {
		m.Set(dst, k, m.At(dst, k).Add(f.Mul(m.At(src, k))))
	}
}

// underdeterminedDirs derives per-level direction info for L·d = rhs
// with multiple solutions: levels with kernel freedom are Star; pinned
// levels take the sign of the particular solution. ok is false when a
// pinned level is fractional (no integer solution) or every level is
// pinned to zero (loop-independent only).
func underdeterminedDirs(l *matrix.Int, rhs []int64, k int) ([]Dir, bool) {
	sol, ok := solveAffineSpace(l, rhs)
	if !ok {
		return nil, false
	}
	dirs := make([]Dir, k)
	anyNonzero := false
	for lvl := 0; lvl < k; lvl++ {
		free := false
		for _, kv := range sol.kernel {
			if kv[lvl] != 0 {
				free = true
				break
			}
		}
		if free {
			dirs[lvl] = Star
			anyNonzero = true
			continue
		}
		c := sol.particular[lvl]
		if !c.IsInt() {
			return nil, false // pinned to a fractional value: no integer solution
		}
		switch c.Sign() {
		case 1:
			dirs[lvl] = Pos
			anyNonzero = true
		case -1:
			dirs[lvl] = Neg
			anyNonzero = true
		default:
			dirs[lvl] = Zero
		}
	}
	if !anyNonzero {
		return nil, false // only the zero solution: loop-independent
	}
	return dirs, true
}

func sameMatrix(a, b *matrix.Int) bool { return a.Equal(b) }

func withinTripBounds(n *ir.Nest, d []int64) bool {
	for lvl, x := range d {
		t := n.Loops[lvl].Trip()
		if x > t-1 || x < -(t-1) {
			return false
		}
	}
	return true
}

// lexNormalize flips d so it is lexicographically positive (the
// dependence then runs from the earlier iteration to the later one).
func lexNormalize(d []int64) []int64 {
	for _, x := range d {
		if x > 0 {
			return d
		}
		if x < 0 {
			out := make([]int64, len(d))
			for i := range d {
				out[i] = -d[i]
			}
			return out
		}
	}
	return d
}

func dirsOf(d []int64) []Dir {
	out := make([]Dir, len(d))
	for i, x := range d {
		switch {
		case x > 0:
			out[i] = Pos
		case x < 0:
			out[i] = Neg
		default:
			out[i] = Zero
		}
	}
	return out
}

func allStar(k int) []Dir {
	out := make([]Dir, k)
	for i := range out {
		out[i] = Star
	}
	return out
}

func negate(v []int64) []int64 {
	out := make([]int64, len(v))
	for i, x := range v {
		out[i] = -x
	}
	return out
}

func dedup(ds []Dependence) []Dependence {
	seen := map[string]bool{}
	var out []Dependence
	for _, d := range ds {
		key := d.String()
		if !seen[key] {
			seen[key] = true
			out = append(out, d)
		}
	}
	return out
}
