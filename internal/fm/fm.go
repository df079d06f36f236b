// Package fm implements Fourier-Motzkin elimination over exact
// rationals, used to generate loop bounds for linearly transformed
// iteration spaces: given the original rectangular bounds Lo <= I <= Hi
// and I = Q·I', the constraints on I' are 2k affine inequalities, and
// eliminating inner variables yields, level by level, the bounds each
// transformed loop must scan. The elimination is exact; its result is
// compiled once to integers, so Range — evaluated once per loop row by
// generated schedules — runs in overflow-checked int64 arithmetic.
package fm

import (
	"fmt"
	"math"

	"outcore/internal/matrix"
	"outcore/internal/rational"
)

// constraint encodes sum coefs[j]·x_j <= rhs.
type constraint struct {
	coefs []rational.Rat
	rhs   rational.Rat
}

// System is a conjunction of affine inequalities over k variables.
type System struct {
	k    int
	cons []constraint
}

// NewSystem returns an empty system over k variables.
func NewSystem(k int) *System { return &System{k: k} }

// AddLE adds sum coefs[j]·x_j <= rhs.
func (s *System) AddLE(coefs []int64, rhs int64) {
	if len(coefs) != s.k {
		panic("fm: coefficient length mismatch")
	}
	c := constraint{coefs: make([]rational.Rat, s.k), rhs: rational.FromInt(rhs)}
	for j, x := range coefs {
		c.coefs[j] = rational.FromInt(x)
	}
	s.cons = append(s.cons, c)
}

// AddGE adds sum coefs[j]·x_j >= rhs.
func (s *System) AddGE(coefs []int64, rhs int64) {
	neg := make([]int64, len(coefs))
	for j, x := range coefs {
		neg[j] = -x
	}
	s.AddLE(neg, -rhs)
}

// TransformedBounds builds the constraint system for I' where the
// original rectangular space Lo_j <= I_j <= Hi_j is mapped by I = Q·I'
// (Q integer, typically unimodular).
func TransformedBounds(q *matrix.Int, lo, hi []int64) *System {
	k := q.Cols()
	s := NewSystem(k)
	for row := 0; row < q.Rows(); row++ {
		r := q.Row(row)
		s.AddLE(r, hi[row])
		s.AddGE(r, lo[row])
	}
	return s
}

// Bounds is the result of the elimination: for each level l, the
// constraints mentioning x_l with all deeper variables eliminated, so
// the loop bounds at level l are computable from x_0..x_{l-1}.
type Bounds struct {
	k      int
	levels [][]constraint // levels[l]: constraints over x_0..x_l with coefs[l] != 0
	outer  []constraint   // constraints with no variables (feasibility checks)
	// ints[l] is levels[l] compiled to integers, l+2 words per
	// constraint: coefs[0..l] and rhs, scaled by the LCM of their
	// denominators. Range evaluates only these.
	ints [][]int64
}

// Eliminate runs Fourier-Motzkin from the innermost variable outward
// and returns per-level bound constraints.
func (s *System) Eliminate() *Bounds {
	b := &Bounds{k: s.k, levels: make([][]constraint, s.k)}
	cur := append([]constraint(nil), s.cons...)
	for lvl := s.k - 1; lvl >= 0; lvl-- {
		var with, without []constraint
		for _, c := range cur {
			if !c.coefs[lvl].IsZero() {
				with = append(with, c)
			} else {
				without = append(without, c)
			}
		}
		b.levels[lvl] = with
		// Combine each lower bound with each upper bound on x_lvl.
		var lows, ups []constraint
		for _, c := range with {
			if c.coefs[lvl].Sign() > 0 {
				ups = append(ups, c)
			} else {
				lows = append(lows, c)
			}
		}
		cur = without
		for _, lc := range lows {
			for _, uc := range ups {
				// lc: a·x + c_l·x_lvl <= b1 with c_l < 0  => x_lvl >= (...)
				// uc: a'·x + c_u·x_lvl <= b2 with c_u > 0 => x_lvl <= (...)
				// Eliminate: c_u·lc + (-c_l)·uc.
				cu := uc.coefs[lvl]
				cl := lc.coefs[lvl].Neg()
				nc := constraint{coefs: make([]rational.Rat, s.k)}
				for j := 0; j < s.k; j++ {
					nc.coefs[j] = cu.Mul(lc.coefs[j]).Add(cl.Mul(uc.coefs[j]))
				}
				nc.rhs = cu.Mul(lc.rhs).Add(cl.Mul(uc.rhs))
				if !nc.coefs[lvl].IsZero() {
					panic("fm: elimination failed to cancel")
				}
				cur = append(cur, nc)
			}
		}
	}
	b.ints = make([][]int64, s.k)
	for lvl, cs := range b.levels {
		for _, c := range cs {
			scale := c.rhs.Den()
			for _, x := range c.coefs[:lvl+1] {
				scale = rational.LCM(scale, x.Den())
			}
			for _, x := range c.coefs[:lvl+1] {
				b.ints[lvl] = append(b.ints[lvl], mulChecked(x.Num(), scale/x.Den()))
			}
			b.ints[lvl] = append(b.ints[lvl], mulChecked(c.rhs.Num(), scale/c.rhs.Den()))
		}
	}
	b.outer = nil
	for _, c := range cur {
		allZero := true
		for _, x := range c.coefs {
			if !x.IsZero() {
				allZero = false
				break
			}
		}
		if allZero {
			b.outer = append(b.outer, c)
		}
	}
	return b
}

// Feasible reports whether the variable-free residual constraints hold
// (an infeasible system has empty iteration space).
func (b *Bounds) Feasible() bool {
	for _, c := range b.outer {
		if rational.Zero.Cmp(c.rhs) > 0 {
			return false
		}
	}
	return true
}

// Range returns the integer bounds [lo, hi] of variable lvl given the
// values of x_0..x_{lvl-1}. empty is true when no integer value
// satisfies the constraints. It runs in int64 and panics, as rational
// arithmetic does, on an evaluation that overflows.
func (b *Bounds) Range(lvl int, outer []int64) (lo, hi int64, empty bool) {
	if lvl >= b.k || len(outer) < lvl {
		panic(fmt.Sprintf("fm: Range(%d) with %d outer values", lvl, len(outer)))
	}
	haveLo, haveHi := false, false
	for c := b.ints[lvl]; len(c) > 0; c = c[lvl+2:] {
		// sum_{j<lvl} c_j·outer_j + c_lvl·x <= rhs
		acc := c[lvl+1]
		for j, x := range outer[:lvl] {
			acc = subChecked(acc, mulChecked(c[j], x))
		}
		if cl := c[lvl]; cl > 0 { // x <= floor(acc/cl)
			if v := floorDiv(acc, cl); !haveHi || v < hi {
				hi, haveHi = v, true
			}
		} else if v := ceilDiv(acc, cl); !haveLo || v > lo { // x >= ceil(acc/cl)
			lo, haveLo = v, true
		}
	}
	if !haveLo || !haveHi {
		panic("fm: unbounded variable (original space must be bounded)")
	}
	return lo, hi, lo > hi
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func ceilDiv(a, b int64) int64 {
	if a == math.MinInt64 && b == -1 {
		panic("fm: division overflow evaluating bounds")
	}
	q := a / b
	if a%b != 0 && (a < 0) == (b < 0) {
		q++
	}
	return q
}

func mulChecked(a, b int64) int64 {
	p := a * b
	if a != 0 && (p/a != b || (a == -1 && b == math.MinInt64)) {
		panic("fm: multiplication overflow evaluating bounds")
	}
	return p
}

func subChecked(a, b int64) int64 {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		panic("fm: subtraction overflow evaluating bounds")
	}
	return d
}

// Enumerate visits every integer point of the system in lexicographic
// order, passing a reused iteration-vector slice.
func (b *Bounds) Enumerate(visit func(iv []int64)) {
	if !b.Feasible() {
		return
	}
	iv := make([]int64, b.k)
	b.enum(iv, 0, visit)
}

func (b *Bounds) enum(iv []int64, lvl int, visit func(iv []int64)) {
	if lvl == b.k {
		visit(iv)
		return
	}
	lo, hi, empty := b.Range(lvl, iv[:lvl])
	if empty {
		return
	}
	for v := lo; v <= hi; v++ {
		iv[lvl] = v
		b.enum(iv, lvl+1, visit)
	}
}

// Count returns the number of integer points (for tests).
func (b *Bounds) Count() int64 {
	var n int64
	b.Enumerate(func([]int64) { n++ })
	return n
}
