// Package deps implements data-dependence analysis for affine loop
// nests and legality checking of linear loop transformations.
//
// The optimizer only ever applies a transformation T when T·d remains
// lexicographically positive for every dependence d in the nest (the
// classical legality condition the paper inherits from Wolf & Lam).
// One routine answers every dependence question. For references r1 at
// iteration I and r2 at I′ it builds the dependence polyhedron
//
//	{(I, I′) : L1·I + o1 = L2·I′ + o2, lo ≤ I, I′ ≤ hi},
//
// solves its equalities exactly over the integers (a Hermite normal
// form, which subsumes every GCD test) and splits the difference
// I′ − I into direction cells level by level, keeping each cell that
// Fourier–Motzkin finds feasible. Every kept cell is reported in its
// lexicographically positive orientation, and a write is paired with
// itself at two different iterations too. A cell whose difference the
// equalities pin to one vector carries it as an exact Distance.
//
// The cell check is rational, tightened by rounding each constraint to
// its integer points, so a kept cell may hold no integer pair. That is
// sound for legality: it can refuse a legal transformation, never
// accept an illegal one.
package deps

import (
	"fmt"
	"slices"
	"strings"

	"outcore/internal/fm"
	"outcore/internal/ir"
	"outcore/internal/matrix"
)

// Dir is the sign of one component of a dependence cell.
type Dir int8

// Direction constants: Pos means the component is >= 1, Neg <= -1.
const (
	Zero Dir = iota
	Pos
	Neg
)

func (d Dir) String() string {
	switch d {
	case Zero:
		return "="
	case Pos:
		return "<"
	default:
		return ">"
	}
}

// Dependence is one direction cell of the dependences between two
// references to the same array within one nest.
type Dependence struct {
	Array    *ir.Array
	Kind     string  // "flow", "anti" or "output": the source's access, then the sink's
	Distance []int64 // the exact difference when Uniform
	Uniform  bool    // every dependent pair of the cell is Distance apart
	Dirs     []Dir   // the cell: the sign of each component
}

func (d Dependence) String() string {
	parts := make([]string, len(d.Dirs))
	for i, x := range d.Dirs {
		if d.Uniform {
			parts[i] = fmt.Sprint(d.Distance[i])
		} else {
			parts[i] = x.String()
		}
	}
	return fmt.Sprintf("%s %s (%s)", d.Kind, d.Array.Name, strings.Join(parts, ","))
}

// Analyze returns the loop-carried dependences of a nest as cells of
// I′ − I. Loop-independent dependences (zero difference) are dropped:
// they constrain statement order inside an iteration, which linear
// loop transformations preserve. Input (read-read) dependences are not
// reported.
func Analyze(n *ir.Nest) []Dependence { return Transformed(n, nil) }

// Transformed returns the dependences of the nest after the loop
// transformation T (new iteration vector = T·old; nil is the
// identity): the cells of T·(I′ − I), each oriented lexicographically
// positive, that is, in the transformed nest's execution order. For a
// T that is legal under Analyze's cells these are the transformed
// nest's dependences, which tiling legality reads.
func Transformed(n *ir.Nest, t *matrix.Int) []Dependence {
	k := n.Depth()
	type occ struct {
		ref   ir.Ref
		write bool
	}
	occs := make([]occ, 0, 8)
	for _, s := range n.Body {
		occs = append(occs, occ{s.Out, true})
		for _, r := range s.In {
			occs = append(occs, occ{r, false})
		}
	}
	if t == nil {
		t = matrix.Identity(k)
	}
	sol := newSolver(2*k, k, n.Loops)
	// Component l of the difference, over x = (I, I′): (T row l)·(I′ − I).
	for l := 0; l < k; l++ {
		f := sol.form(l)
		for j := 0; j < k; j++ {
			f[j], f[k+j] = -t.At(l, j), t.At(l, j)
		}
	}
	var out []Dependence
	for a := range occs {
		for b := a; b < len(occs); b++ {
			oa, ob := occs[a], occs[b]
			if oa.ref.Array != ob.ref.Array || !oa.write && !ob.write {
				continue
			}
			// b == a pairs a write with itself at another iteration.
			sol.cells(oa.ref, ob.ref, func(dirs []Dir, dist []int64) {
				src, sink := oa.write, ob.write
				d := Dependence{Array: oa.ref.Array, Dirs: slices.Clone(dirs), Distance: dist, Uniform: dist != nil}
				if first := slices.IndexFunc(dirs, func(d Dir) bool { return d != Zero }); dirs[first] == Neg {
					// r2's instance runs first
					src, sink = sink, src
					for i, x := range d.Dirs {
						d.Dirs[i] = dirOf(-x.sign())
					}
					for i := range d.Distance {
						d.Distance[i] = -d.Distance[i]
					}
				}
				d.Kind = kind(src, sink)
				if !slices.ContainsFunc(out, d.equal) {
					out = append(out, d)
				}
			})
		}
	}
	return out
}

func kind(srcWrite, sinkWrite bool) string {
	switch {
	case srcWrite && sinkWrite:
		return "output"
	case srcWrite:
		return "flow"
	default:
		return "anti"
	}
}

func (d Dependence) equal(o Dependence) bool {
	return d.Array == o.Array && d.Kind == o.Kind && d.Uniform == o.Uniform &&
		slices.Equal(d.Dirs, o.Dirs) && slices.Equal(d.Distance, o.Distance)
}

// solver holds the dependence polyhedron of one reference pair at a
// time, over x = (I, I′), and the scratch its cell checks reuse.
type solver struct {
	n      int
	loops  []ir.Loop // bounds of each half of x; nil leaves x unbounded
	levels int
	forms  []int64 // n words a level: the difference component as a form over x
	eq     []int64 // n+1 words an equality: coefficients over x, then the right-hand side
	dirs   []Dir
	sys    fm.System
	coefs  []int64 // addLE's scratch
	unit   []int64 // span's scratch
	visit  func(dirs []Dir, dist []int64)
}

// newSolver returns a solver over n variables with levels forms, all
// zero, for the caller to fill in.
func newSolver(n, levels int, loops []ir.Loop) *solver {
	buf := make([]int64, (levels+1)*n)
	return &solver{n: n, loops: loops, levels: levels, forms: buf[:levels*n], unit: buf[levels*n:]}
}

// cells calls visit with every direction cell of the forms that the
// polyhedron of r1 at I and r2 at I′ may hold, level by level in the
// order Pos, Zero, Neg; dist is the cell's exact value when the
// equalities pin every form. The all-Zero cell, the loop-independent
// one, is never visited. visit must not retain dirs.
func (s *solver) cells(r1, r2 ir.Ref, visit func(dirs []Dir, dist []int64)) {
	s.eq = s.eq[:0]
	for d := 0; d < r1.Array.Rank(); d++ {
		for j := 0; j < r1.Depth(); j++ {
			s.eq = append(s.eq, r1.L.At(d, j))
		}
		for j := 0; j < r2.Depth(); j++ {
			s.eq = append(s.eq, -r2.L.At(d, j))
		}
		s.eq = append(s.eq, r2.Off[d]-r1.Off[d])
	}
	s.dirs, s.visit = s.dirs[:0], visit
	if lat, ok := s.solve(); ok {
		s.refine(lat, false)
	}
}

// refine extends s.dirs one level at a time. lat solves s.eq; checked
// says whether lat with s.dirs is known feasible. Where a level's form
// is not constant on lat, its span over the polyhedron decides which
// signs it can take.
func (s *solver) refine(lat lattice, checked bool) {
	l := len(s.dirs)
	if l == s.levels {
		if !slices.ContainsFunc(s.dirs, func(d Dir) bool { return d != Zero }) || !checked && !s.feasible(lat) {
			return
		}
		var dist []int64
		if lat.pinned(s.forms, s.n) {
			dist = make([]int64, s.levels)
			for lvl := range dist {
				dist[lvl], _ = lat.constant(s.form(lvl))
			}
		}
		s.visit(s.dirs, dist)
		return
	}
	f := s.form(l)
	if c, pinned := lat.constant(f); pinned {
		s.dirs = append(s.dirs, dirOf(c))
		s.refine(lat, checked)
		s.dirs = s.dirs[:l]
		return
	}
	lo, hi, ok := s.span(lat, f)
	if !ok {
		return
	}
	if hi >= 1 {
		s.dirs = append(s.dirs, Pos)
		s.refine(lat, true)
		s.dirs = s.dirs[:l]
	}
	// The all-Zero cell is loop-independent and never reported.
	if lo <= 0 && hi >= 0 && (l+1 < s.levels || slices.ContainsFunc(s.dirs, func(d Dir) bool { return d != Zero })) {
		m := len(s.eq)
		s.eq = append(append(s.eq, f...), 0)
		if zl, ok := s.solve(); ok {
			s.dirs = append(s.dirs, Zero)
			s.refine(zl, false)
			s.dirs = s.dirs[:l]
		}
		s.eq = s.eq[:m]
	}
	if lo <= -1 {
		s.dirs = append(s.dirs, Neg)
		s.refine(lat, true)
		s.dirs = s.dirs[:l]
	}
}

func (s *solver) form(l int) []int64 { return s.forms[l*s.n : (l+1)*s.n] }

func (d Dir) sign() int64 {
	switch d {
	case Pos:
		return 1
	case Neg:
		return -1
	}
	return 0
}

func dirOf(c int64) Dir {
	switch {
	case c > 0:
		return Pos
	case c < 0:
		return Neg
	}
	return Zero
}

// feasible checks the polyhedron on lat with the signs s.dirs puts on
// the forms.
func (s *solver) feasible(lat lattice) bool {
	s.constrain(lat)
	return s.sys.Feasible()
}

// span returns the range of form over the polyhedron on lat with the
// signs s.dirs puts on the forms; ok is false when it is empty.
func (s *solver) span(lat lattice, form []int64) (lo, hi int64, ok bool) {
	s.constrain(lat)
	s.addLE(lat, form, 1, 0, -1) // form - z <= 0
	s.addLE(lat, form, -1, 0, 1) // z - form <= 0
	return s.sys.Span(lat.params())
}

// constrain loads s.sys with the polyhedron over lat's parameters t
// and one more variable z, the span's: the loop bounds of both halves
// of x, and Pos: form >= 1 or Neg: form <= -1 for each level of s.dirs
// (Zero levels are equalities, so lat holds them).
func (s *solver) constrain(lat lattice) {
	s.sys.Reset(lat.params() + 1)
	for i := 0; s.loops != nil && i < s.n; i++ {
		s.unit[i] = 1 // x_i as a form
		loop := s.loops[i%len(s.loops)]
		s.addLE(lat, s.unit, 1, loop.Hi, 0)
		s.addLE(lat, s.unit, -1, -loop.Lo, 0)
		s.unit[i] = 0
	}
	for lvl, d := range s.dirs {
		if d != Zero {
			s.addLE(lat, s.form(lvl), -d.sign(), -1, 0)
		}
	}
}

// addLE adds scale·row·x + zc·z <= rhs to s.sys on lat's parameters
// and z.
func (s *solver) addLE(lat lattice, row []int64, scale, rhs, zc int64) {
	p := lat.params()
	s.coefs = slices.Grow(s.coefs[:0], p+1)[:p+1]
	c := lat.restrict(row, s.coefs[:p])
	for j := range s.coefs[:p] {
		s.coefs[j] *= scale
	}
	s.coefs[p] = zc
	s.sys.AddLE(s.coefs, rhs-scale*c)
}

// lattice is the integer solution set x0 + U·(0, t) of a system of
// equalities: t ranges over the integers in U's columns from free on.
type lattice struct {
	x0   []int64
	u    *matrix.Int
	free int
}

// solve returns the integer solutions of the equalities s.eq; ok is
// false when there are none. The column Hermite normal form H = A·U
// turns A·x = b into H·y = b with x = U·y: forward substitution pins
// y's pivot components (a non-integral or inconsistent one means no
// integer solution), and U's remaining columns span the integer kernel.
func (s *solver) solve() (lattice, bool) {
	w := s.n + 1
	rows := len(s.eq) / w
	a := matrix.NewInt(rows, s.n)
	for i := 0; i < rows; i++ {
		for j := 0; j < s.n; j++ {
			a.Set(i, j, s.eq[i*w+j])
		}
	}
	h, u := matrix.HNF(a)
	y := make([]int64, s.n)
	p := 0
	for r := 0; r < rows; r++ {
		v := s.eq[r*w+s.n]
		for c := 0; c < p; c++ {
			v -= h.At(r, c) * y[c]
		}
		if p < s.n && h.At(r, p) != 0 {
			if v%h.At(r, p) != 0 {
				return lattice{}, false
			}
			y[p] = v / h.At(r, p)
			p++
		} else if v != 0 {
			return lattice{}, false
		}
	}
	return lattice{x0: u.MulVec(y), u: u, free: p}, true
}

func (l lattice) params() int { return l.u.Cols() - l.free }

// restrict writes row·U's free columns into coefs and returns row·x0:
// row·x = c + coefs·t.
func (l lattice) restrict(row, coefs []int64) (c int64) {
	for j := range coefs {
		coefs[j] = 0
	}
	for i, r := range row {
		if r == 0 {
			continue
		}
		c += r * l.x0[i]
		for j := range coefs {
			coefs[j] += r * l.u.At(i, l.free+j)
		}
	}
	return c
}

// pinned reports whether every form (n words each) is constant on the
// lattice.
func (l lattice) pinned(forms []int64, n int) bool {
	for f := forms; len(f) > 0; f = f[n:] {
		if _, ok := l.constant(f[:n]); !ok {
			return false
		}
	}
	return true
}

// constant reports whether row·x takes one value c on the lattice.
func (l lattice) constant(row []int64) (c int64, ok bool) {
	for j := l.free; j < l.u.Cols(); j++ {
		var v int64
		for i, r := range row {
			v += r * l.u.At(i, j)
		}
		if v != 0 {
			return 0, false
		}
	}
	return matrix.Dot(row, l.x0), true
}
