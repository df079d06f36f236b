// Package fm implements Fourier-Motzkin elimination in integers, used
// to generate loop bounds for linearly transformed iteration spaces:
// given the original rectangular bounds Lo <= I <= Hi and I = Q·I', the
// constraints on I' are 2k affine inequalities, and eliminating inner
// variables yields, level by level, the bounds each transformed loop
// must scan. The inputs are integer rows and each elimination combines
// two of them with integer factors, so the elimination is exact in
// overflow-checked int64 arithmetic, as is Range — evaluated once per
// loop row by generated schedules.
package fm

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"outcore/internal/matrix"
)

// System is a conjunction of affine inequalities with integer
// coefficients over k variables.
type System struct {
	k    int
	rows []int64 // k+1 words a constraint: coefs·x <= rhs, rhs last
	// Span's scratch, kept so a caller that refills the system with
	// Reset and AddLE checks it again without allocating.
	cur, next []int64
	seen      []int32
}

// NewSystem returns an empty system over k variables.
func NewSystem(k int) *System { return &System{k: k} }

// AddLE adds sum coefs[j]·x_j <= rhs.
func (s *System) AddLE(coefs []int64, rhs int64) {
	if len(coefs) != s.k {
		panic("fm: coefficient length mismatch")
	}
	s.rows = append(append(s.rows, coefs...), rhs)
}

// AddGE adds sum coefs[j]·x_j >= rhs.
func (s *System) AddGE(coefs []int64, rhs int64) {
	if len(coefs) != s.k {
		panic("fm: coefficient length mismatch")
	}
	for _, x := range coefs {
		s.rows = append(s.rows, -x)
	}
	s.rows = append(s.rows, -rhs)
}

// Reset empties the system and sets its variable count to k, keeping
// its storage, which it sizes for 64 constraints at once rather than
// growing it a constraint at a time.
func (s *System) Reset(k int) {
	s.k, s.rows = k, s.rows[:0]
	if cap(s.rows) < 32*(k+1) {
		s.rows = make([]int64, 0, 64*(k+1))
	}
}

// TransformedBounds builds the constraint system for I' where the
// original rectangular space Lo_j <= I_j <= Hi_j is mapped by I = Q·I'
// (Q integer, typically unimodular).
func TransformedBounds(q *matrix.Int, lo, hi []int64) *System {
	k := q.Cols()
	s := &System{k: k, rows: make([]int64, 0, 2*q.Rows()*(k+1))}
	r := make([]int64, k)
	for row := 0; row < q.Rows(); row++ {
		for j := range r {
			r[j] = q.At(row, j)
		}
		s.AddLE(r, hi[row])
		s.AddGE(r, lo[row])
	}
	return s
}

// Bounds is the result of the elimination: for each level l, the
// constraints mentioning x_l with all deeper variables eliminated, so
// the loop bounds at level l are computable from x_0..x_{l-1}.
type Bounds struct {
	k int
	// ints[l] holds level l's constraints, l+2 words each: coefs[0..l]
	// (coefs[l] != 0) and rhs. Range evaluates these.
	ints  [][]int64
	outer []int64 // right-hand sides of the variable-free residual constraints 0 <= rhs
}

// Eliminate runs Fourier-Motzkin from the innermost variable outward
// and returns per-level bound constraints. At level l every working row
// is l+2 words: coefs[0..l] and rhs, the deeper coefficients being
// zero. Rows are combined as c_u·lower + (−c_l)·upper without dividing
// out a gcd, so each level keeps the rows, in the order, that the exact
// rational elimination derives.
func (s *System) Eliminate() *Bounds {
	b := &Bounds{k: s.k, ints: make([][]int64, s.k)}
	cur, w := s.rows, s.k+1
	for lvl := s.k - 1; lvl >= 0; lvl-- {
		lows, ups := 0, 0
		for r := cur; len(r) > 0; r = r[w:] {
			if r[lvl] < 0 {
				lows++
			} else if r[lvl] > 0 {
				ups++
			}
		}
		with := make([]int64, 0, (lows+ups)*w)
		next := make([]int64, 0, (len(cur)/w-lows-ups+lows*ups)*(w-1))
		for r := cur; len(r) > 0; r = r[w:] {
			if r[lvl] != 0 {
				with = append(with, r[:w]...)
			} else {
				next = append(append(next, r[:lvl]...), r[lvl+1])
			}
		}
		b.ints[lvl] = with
		// Combine each lower bound on x_lvl (coefficient c_l < 0) with
		// each upper bound (c_u > 0).
		for l := with; len(l) > 0; l = l[w:] {
			if l[lvl] > 0 {
				continue
			}
			ncl := mulChecked(-1, l[lvl])
			for u := with; len(u) > 0; u = u[w:] {
				cu := u[lvl]
				if cu < 0 {
					continue
				}
				mulChecked(cu, ncl) // x_lvl's coefficient cancels, but its products must fit
				for j, x := range l[:w] {
					if j != lvl {
						next = append(next, addChecked(mulChecked(cu, x), mulChecked(ncl, u[j])))
					}
				}
			}
		}
		cur, w = next, w-1
	}
	b.outer = cur
	return b
}

// Feasible reports whether the variable-free residual constraints hold
// (an infeasible system has empty iteration space).
func (b *Bounds) Feasible() bool {
	for _, rhs := range b.outer {
		if rhs < 0 {
			return false
		}
	}
	return true
}

// Range returns the integer bounds [lo, hi] of variable lvl given the
// values of x_0..x_{lvl-1}. empty is true when no integer value
// satisfies the constraints. It runs in int64 and panics on an
// evaluation that overflows.
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

// Feasible reports whether the system can hold an integer point: false
// proves that it holds none, true that its tightened rational shadow
// (see Span) is non-empty.
func (s *System) Feasible() bool {
	_, _, ok := s.Span(-1)
	return ok
}

// Span returns the integer range [lo, hi] of variable v over the
// system (lo is math.MinInt64 and hi math.MaxInt64 where unbounded);
// ok false proves that the system holds no integer point. A v outside
// 0..k-1 only checks that.
//
// It runs Fourier-Motzkin on the integer rows, each time eliminating
// the variable other than v with the fewest lower×upper pairs, and
// keeps every row tight: the gcd of its coefficients is divided out and
// its bound rounded down, which changes none of the row's integer
// points, and of rows with equal coefficients only the tightest is
// kept. A combined row built from more than e+1 input rows after e
// eliminations is implied by the others and dropped (Chernikov's
// rule). The range is that of the tightened rational shadow: an
// integer point at each end is likely but not proven (Pugh's Omega
// test is the exact refinement). An elimination that would outgrow
// maxSpanRows answers the unbounded range, which proves nothing.
func (s *System) Span(v int) (lo, hi int64, ok bool) {
	lo, hi = math.MinInt64, math.MaxInt64
	// Working rows carry one more word after the bound: the set of input
	// rows combined into them, as a bit mask (0, never dropped, when
	// there are more than 64 inputs).
	w := s.k + 2
	n := len(s.rows) / (s.k + 1)
	if m := 4 * n * w; cap(s.cur) < m {
		buf := make([]int64, 2*m)
		s.cur, s.next = buf[:0:m], buf[m:m]
	}
	cur, next := s.cur[:0], s.next[:0]
	defer func() { s.cur, s.next = cur, next }()
	for i, r := 0, s.rows; i < n; i, r = i+1, r[s.k+1:] {
		cur = append(cur, r[:s.k+1]...)
		if n <= 64 {
			cur = append(cur, 1<<i)
		} else {
			cur = append(cur, 0)
		}
	}
	for elim := 1; ; elim++ {
		if cur, ok = s.tighten(cur, w); !ok {
			return lo, hi, false
		}
		e, best := -1, 0
		for j := 0; j < s.k; j++ {
			lows, ups := 0, 0
			for r := cur; len(r) > 0; r = r[w:] {
				if r[j] < 0 {
					lows++
				} else if r[j] > 0 {
					ups++
				}
			}
			if j != v && lows+ups > 0 && (e < 0 || lows*ups-lows-ups < best) {
				e, best = j, lows*ups-lows-ups
			}
		}
		if e < 0 {
			break
		}
		if len(cur)/w+best > maxSpanRows { // the rows the elimination leaves
			return lo, hi, true
		}
		next = next[:0]
		for r := cur; len(r) > 0; r = r[w:] {
			if r[e] == 0 {
				next = append(next, r[:w]...)
			}
		}
		for l := cur; len(l) > 0; l = l[w:] {
			if l[e] >= 0 {
				continue
			}
			for u := cur; len(u) > 0; u = u[w:] {
				if u[e] <= 0 {
					continue
				}
				hist := l[w-1] | u[w-1]
				if bits.OnesCount64(uint64(hist)) > elim+1 {
					continue
				}
				g := gcd(l[e], u[e])
				fl, fu := u[e]/g, -l[e]/g
				for j := 0; j < w-1; j++ {
					next = append(next, addChecked(mulChecked(fl, l[j]), mulChecked(fu, u[j])))
				}
				next = append(next, hist)
			}
		}
		cur, next = next, cur
	}
	// Every row left reads ±x_v <= bound: tighten made the coefficient ±1.
	for r := cur; len(r) > 0; r = r[w:] {
		if r[v] > 0 {
			hi = min(hi, r[s.k])
		} else {
			lo = max(lo, -r[s.k])
		}
	}
	return lo, hi, lo <= hi
}

// maxSpanRows bounds the rows Span carries between eliminations.
const maxSpanRows = 4096

// tighten divides each row of rows (w words each: coefficients, the
// bound, a mask) by the gcd of its coefficients, rounding the bound
// down, drops rows without variables (ok is false when one of them
// reads 0 <= negative) and keeps the tightest of rows with equal
// coefficients, found through an open-addressing table in s.seen. It
// works in place and returns the kept prefix.
func (s *System) tighten(rows []int64, w int) ([]int64, bool) {
	k, n := w-2, 0
	size := 16
	for size < 2*len(rows)/w {
		size *= 2
	}
	s.seen = slices.Grow(s.seen[:0], size)[:size]
	clear(s.seen)
next:
	for r := rows; len(r) > 0; r = r[w:] {
		g := int64(0)
		for _, x := range r[:k] {
			if g = gcd(g, x); g == 1 {
				break
			}
		}
		if g == 0 {
			if r[k] < 0 {
				return nil, false
			}
			continue
		}
		h := uint64(14695981039346656037)
		for j := range r[:k] {
			if g > 1 {
				r[j] /= g
			}
			h = (h ^ uint64(r[j])) * 1099511628211
		}
		if g > 1 {
			r[k] = floorDiv(r[k], g)
		}
		for i := int(h) & (size - 1); ; i = (i + 1) & (size - 1) {
			if s.seen[i] == 0 {
				s.seen[i] = int32(n + 1)
				break
			}
			if kept := rows[int(s.seen[i]-1)*w:][:w]; slices.Equal(kept[:k], r[:k]) {
				if r[k] < kept[k] {
					copy(kept[k:], r[k:w])
				}
				continue next
			}
		}
		copy(rows[n*w:], r[:w])
		n++
	}
	return rows[:n*w], true
}

func addChecked(a, b int64) int64 {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		panic("fm: addition overflow")
	}
	return s
}

// gcd returns the non-negative greatest common divisor of a and b, with
// gcd(0, 0) == 0. It panics on math.MinInt64, whose magnitude int64
// cannot hold.
func gcd(a, b int64) int64 {
	if a == math.MinInt64 || b == math.MinInt64 {
		panic("fm: gcd of math.MinInt64")
	}
	a, b = max(a, -a), max(b, -b)
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
