// Package ir defines the affine loop-nest intermediate representation
// the optimizer works on: arrays with rectilinear extents, references
// expressed as an access matrix plus offset vector (L·I + o), loops
// with rectangular bounds, statements with executable semantics, and
// programs as sequences of (possibly imperfect) nests.
//
// The representation matches the paper's program model: subscript
// expressions and loop bounds are affine in the enclosing loop indices.
// Statements carry a Go closure so every program in the repository can
// be *executed*, not just analyzed - the test suite runs each kernel
// both in-core and out-of-core and compares results elementwise.
package ir

import (
	"fmt"

	"outcore/internal/matrix"
)

// Array describes a (possibly out-of-core) rectilinear array.
type Array struct {
	Name string
	Dims []int64 // extent of each dimension; indices are 0-based
}

// NewArray returns an array descriptor, panicking on non-positive extents.
func NewArray(name string, dims ...int64) *Array {
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("ir: array %s has non-positive extent %d", name, d))
		}
	}
	ds := make([]int64, len(dims))
	copy(ds, dims)
	return &Array{Name: name, Dims: ds}
}

// Rank returns the number of dimensions.
func (a *Array) Rank() int { return len(a.Dims) }

// Len returns the total number of elements.
func (a *Array) Len() int64 {
	n := int64(1)
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// Ref is an affine array reference L·I + o inside a nest of depth k:
// L is Rank x k, Off has length Rank.
type Ref struct {
	Array *Array
	L     *matrix.Int
	Off   []int64
}

// NewRef builds a reference and validates shapes against the array rank.
func NewRef(a *Array, l *matrix.Int, off []int64) Ref {
	if l.Rows() != a.Rank() {
		panic(fmt.Sprintf("ir: ref to %s: access matrix has %d rows, array rank %d", a.Name, l.Rows(), a.Rank()))
	}
	if len(off) != a.Rank() {
		panic(fmt.Sprintf("ir: ref to %s: offset length %d, array rank %d", a.Name, len(off), a.Rank()))
	}
	o := make([]int64, len(off))
	copy(o, off)
	return Ref{Array: a, L: l, Off: o}
}

// Depth returns the loop-nest depth the reference was built for.
func (r Ref) Depth() int { return r.L.Cols() }

// Element returns the array coordinates touched at iteration vector iv.
func (r Ref) Element(iv []int64) []int64 {
	e := r.L.MulVec(iv)
	for i := range e {
		e[i] += r.Off[i]
	}
	return e
}

// InBounds reports whether coordinates c lie inside the array extents.
func (r Ref) InBounds(c []int64) bool {
	for i, x := range c {
		if x < 0 || x >= r.Array.Dims[i] {
			return false
		}
	}
	return true
}

// String renders the reference as Name(L·I+o) row expressions.
func (r Ref) String() string {
	s := r.Array.Name + "("
	for row := 0; row < r.L.Rows(); row++ {
		if row > 0 {
			s += ","
		}
		s += affineRowString(r.L.Row(row), r.Off[row])
	}
	return s + ")"
}

func affineRowString(coef []int64, off int64) string {
	s := ""
	for j, c := range coef {
		if c == 0 {
			continue
		}
		name := indexName(j)
		switch {
		case c == 1 && s == "":
			s = name
		case c == 1:
			s += "+" + name
		case c == -1:
			s += "-" + name
		case c > 0 && s != "":
			s += fmt.Sprintf("+%d%s", c, name)
		default:
			s += fmt.Sprintf("%d%s", c, name)
		}
	}
	switch {
	case s == "":
		s = fmt.Sprintf("%d", off)
	case off > 0:
		s += fmt.Sprintf("+%d", off)
	case off < 0:
		s += fmt.Sprintf("%d", off)
	}
	return s
}

// indexName names loop levels i, j, k, l, m, n, i6, i7, ...
func indexName(level int) string {
	names := []string{"i", "j", "k", "l", "m", "n"}
	if level < len(names) {
		return names[level]
	}
	return fmt.Sprintf("i%d", level)
}

// IndexName exposes the canonical loop-index naming used by printers.
func IndexName(level int) string { return indexName(level) }

// Loop is one rectangular loop level with inclusive bounds.
type Loop struct {
	Index  string
	Lo, Hi int64
}

// Trip returns the iteration count (0 when empty).
func (l Loop) Trip() int64 {
	if l.Hi < l.Lo {
		return 0
	}
	return l.Hi - l.Lo + 1
}

// StmtFunc computes the value stored by a statement: in holds the
// values of the statement's read references (in order), iv the current
// iteration vector. Executors reuse both slices from one call to the
// next, so a StmtFunc must not retain them.
type StmtFunc func(in []float64, iv []int64) float64

// GuardEq restricts a statement to iterations where a loop index
// equals a fixed value. Guards arise from code sinking: a statement
// that originally sat between loops is sunk into the deeper nest and
// guarded so it still executes exactly once per original instance.
type GuardEq struct {
	Level int
	Value int64
}

// Stmt is a single-assignment statement: Out = F(In..., iv), executed
// only at iterations satisfying every Guard condition.
type Stmt struct {
	Out   Ref
	In    []Ref
	F     StmtFunc
	Name  string // optional label for diagnostics
	Guard []GuardEq
}

// Guarded reports whether the statement runs at iteration vector iv.
func (s *Stmt) Guarded(iv []int64) bool {
	for _, g := range s.Guard {
		if iv[g.Level] != g.Value {
			return false
		}
	}
	return true
}

// Refs returns all references of the statement, the written one first.
func (s *Stmt) Refs() []Ref {
	out := make([]Ref, 0, 1+len(s.In))
	out = append(out, s.Out)
	out = append(out, s.In...)
	return out
}

// Nest is a perfectly nested loop: Loops[0] is outermost; every
// statement executes in the innermost body.
type Nest struct {
	ID    int
	Loops []Loop
	Body  []*Stmt
}

// Depth returns the nest depth.
func (n *Nest) Depth() int { return len(n.Loops) }

// Iterations returns the total iteration count of the nest.
func (n *Nest) Iterations() int64 {
	total := int64(1)
	for _, l := range n.Loops {
		total *= l.Trip()
	}
	return total
}

// Arrays returns the distinct arrays referenced by the nest, in first-
// appearance order.
func (n *Nest) Arrays() []*Array {
	seen := map[*Array]bool{}
	var out []*Array
	for _, s := range n.Body {
		for _, r := range s.Refs() {
			if !seen[r.Array] {
				seen[r.Array] = true
				out = append(out, r.Array)
			}
		}
	}
	return out
}

// Validate checks internal consistency: every reference depth matches
// the nest depth and loop bounds are sane.
func (n *Nest) Validate() error {
	for _, l := range n.Loops {
		if l.Hi < l.Lo-1 {
			return fmt.Errorf("ir: nest %d: loop %s has reversed bounds [%d,%d]", n.ID, l.Index, l.Lo, l.Hi)
		}
	}
	for si, s := range n.Body {
		for _, r := range s.Refs() {
			if r.Depth() != n.Depth() {
				return fmt.Errorf("ir: nest %d stmt %d: ref %s has depth %d, nest depth %d",
					n.ID, si, r.Array.Name, r.Depth(), n.Depth())
			}
		}
		if s.F == nil {
			return fmt.Errorf("ir: nest %d stmt %d: nil statement function", n.ID, si)
		}
	}
	return nil
}

// Program is a sequence of perfect nests over a set of arrays.
type Program struct {
	Name   string
	Arrays []*Array
	Nests  []*Nest
}

// Validate checks the whole program.
func (p *Program) Validate() error {
	known := map[*Array]bool{}
	for _, a := range p.Arrays {
		known[a] = true
	}
	for _, n := range p.Nests {
		if err := n.Validate(); err != nil {
			return err
		}
		for _, a := range n.Arrays() {
			if !known[a] {
				return fmt.Errorf("ir: program %s: nest %d references undeclared array %s", p.Name, n.ID, a.Name)
			}
		}
	}
	return nil
}
