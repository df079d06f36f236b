package fm

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"outcore/internal/matrix"
	"outcore/internal/rational"
)

// ratConstraint encodes sum coefs[j]·x_j <= rhs in exact rationals.
type ratConstraint struct {
	coefs []rational.Rat
	rhs   rational.Rat
}

// ratBounds is the reference elimination's result: per level, the
// constraints over x_0..x_l with coefs[l] != 0; the residual
// variable-free constraints; and both compiled to integers as the
// integer elimination must produce them.
type ratBounds struct {
	levels [][]ratConstraint
	outer  []ratConstraint
	ints   [][]int64
	rhs    []int64
}

// eliminateRational is the reference Fourier-Motzkin elimination over
// exact rationals: each lower bound on x_l is combined with each upper
// bound as c_u·lower + (−c_l)·upper, and the rows of each level are
// compiled to integers by scaling with the LCM of their denominators.
func eliminateRational(s *System) *ratBounds {
	b := &ratBounds{levels: make([][]ratConstraint, s.k), ints: make([][]int64, s.k)}
	var cur []ratConstraint
	for r := s.rows; len(r) > 0; r = r[s.k+1:] {
		c := ratConstraint{coefs: make([]rational.Rat, s.k), rhs: rational.FromInt(r[s.k])}
		for j, x := range r[:s.k] {
			c.coefs[j] = rational.FromInt(x)
		}
		cur = append(cur, c)
	}
	for lvl := s.k - 1; lvl >= 0; lvl-- {
		var with, without, lows, ups []ratConstraint
		for _, c := range cur {
			switch c.coefs[lvl].Sign() {
			case 0:
				without = append(without, c)
			case 1:
				with, ups = append(with, c), append(ups, c)
			default:
				with, lows = append(with, c), append(lows, c)
			}
		}
		b.levels[lvl] = with
		cur = without
		for _, lc := range lows {
			for _, uc := range ups {
				cu, cl := uc.coefs[lvl], lc.coefs[lvl].Neg()
				nc := ratConstraint{coefs: make([]rational.Rat, s.k)}
				for j := range nc.coefs {
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
	for lvl, cs := range b.levels {
		for _, c := range cs {
			scale := c.rhs.Den()
			for _, x := range c.coefs[:lvl+1] {
				scale = rational.LCM(scale, x.Den())
			}
			for _, x := range c.coefs[:lvl+1] {
				b.ints[lvl] = append(b.ints[lvl], x.Num()*(scale/x.Den()))
			}
			b.ints[lvl] = append(b.ints[lvl], c.rhs.Num()*(scale/c.rhs.Den()))
		}
	}
	for _, c := range cur {
		if slices.ContainsFunc(c.coefs, func(x rational.Rat) bool { return !x.IsZero() }) {
			continue
		}
		b.outer = append(b.outer, c)
		b.rhs = append(b.rhs, c.rhs.Int())
	}
	return b
}

// rationalRange is the reference evaluation of Range: the level's
// constraints evaluated in exact rationals, then rounded inward. The
// integer Range must agree with it wherever it does not overflow.
func (b *ratBounds) rationalRange(lvl int, outer []int64) (lo, hi int64, empty bool) {
	haveLo, haveHi := false, false
	var bestLo, bestHi rational.Rat
	for _, c := range b.levels[lvl] {
		acc := c.rhs
		for j := 0; j < lvl; j++ {
			acc = acc.Sub(c.coefs[j].Mul(rational.FromInt(outer[j])))
		}
		cl := c.coefs[lvl]
		bound := acc.Div(cl)
		if cl.Sign() > 0 {
			if !haveHi || bound.Cmp(bestHi) < 0 {
				bestHi, haveHi = bound, true
			}
		} else if !haveLo || bound.Cmp(bestLo) > 0 {
			bestLo, haveLo = bound, true
		}
	}
	if !haveLo || !haveHi {
		panic("fm: unbounded variable (original space must be bounded)")
	}
	l, h := bestLo.Ceil(), bestHi.Floor()
	return l, h, l > h
}

// TestEliminateMatchesRational checks the integer elimination against
// the rational reference word for word: every level's rows, in order,
// and the residual right-hand sides, over random unimodular Q
// (interchanges, reversals, negative skews) and boxes with negative
// bounds, at depths 1 to 4.
func TestEliminateMatchesRational(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 600; trial++ {
		k := 1 + rng.Intn(4)
		q := randomUnimodular(rng, k)
		lo := make([]int64, k)
		hi := make([]int64, k)
		for d := range lo {
			lo[d] = int64(rng.Intn(41) - 30)
			hi[d] = lo[d] + int64(rng.Intn(12)) - 1 // an empty box in one of twelve dimensions
		}
		sys := TransformedBounds(q, lo, hi)
		want, got := eliminateRational(sys), sys.Eliminate()
		for lvl := range k {
			if !slices.Equal(got.ints[lvl], want.ints[lvl]) {
				t.Fatalf("Q=%v box=[%v,%v] level %d: rows %v, rational %v", q, lo, hi, lvl, got.ints[lvl], want.ints[lvl])
			}
		}
		if !slices.Equal(got.outer, want.rhs) {
			t.Fatalf("Q=%v box=[%v,%v] residual rhs %v, rational %v", q, lo, hi, got.outer, want.rhs)
		}
	}
}

// randomUnimodular composes interchanges, reversals and skews (with
// negative factors) into a k×k unimodular matrix.
func randomUnimodular(rng *rand.Rand, k int) *matrix.Int {
	q := matrix.Identity(k)
	for step := 0; step < 6; step++ {
		e := matrix.Identity(k)
		i, j := rng.Intn(k), rng.Intn(k)
		switch rng.Intn(3) {
		case 0: // interchange
			e.Set(i, i, 0)
			e.Set(j, j, 0)
			e.Set(i, j, 1)
			e.Set(j, i, 1)
		case 1: // reversal
			e.Set(i, i, -1)
		default: // skew
			if i != j {
				e.Set(i, j, int64(rng.Intn(5)-2))
			}
		}
		q = q.Mul(e)
	}
	return q
}

// TestPropertyIntegerRangeMatchesRational compares the compiled integer
// Range with the rational oracle at every level, for every outer prefix
// the oracle's own ranges admit plus one step beyond each end, over
// random unimodular Q and boxes with negative bounds.
func TestPropertyIntegerRangeMatchesRational(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		k := 1 + rng.Intn(3)
		q := randomUnimodular(rng, k)
		lo := make([]int64, k)
		hi := make([]int64, k)
		for d := range lo {
			lo[d] = int64(rng.Intn(11) - 7)
			hi[d] = lo[d] + int64(rng.Intn(5))
		}
		sys := TransformedBounds(q, lo, hi)
		b, ref := sys.Eliminate(), eliminateRational(sys)
		iv := make([]int64, k)
		var walk func(lvl int)
		walk = func(lvl int) {
			wl, wh, we := ref.rationalRange(lvl, iv[:lvl])
			gl, gh, ge := b.Range(lvl, iv[:lvl])
			if gl != wl || gh != wh || ge != we {
				t.Fatalf("Q=%v box=[%v,%v] Range(%d, %v) = [%d,%d] %v, rational [%d,%d] %v",
					q, lo, hi, lvl, iv[:lvl], gl, gh, ge, wl, wh, we)
			}
			if lvl == k-1 || we {
				return
			}
			for v := wl - 1; v <= wh+1; v++ {
				iv[lvl] = v
				walk(lvl + 1)
			}
		}
		walk(0)
	}
}

func TestRangeOverflowPanics(t *testing.T) {
	b := TransformedBounds(matrix.FromRows([][]int64{{1, 0}, {-2, 1}}), []int64{0, 0}, []int64{3, 3}).Eliminate()
	defer func() {
		if recover() == nil {
			t.Error("Range wrapped an overflowing evaluation instead of panicking")
		}
	}()
	b.Range(1, []int64{math.MaxInt64 / 2})
}

// exactRange evaluates Range in unbounded integers, replaying the
// integer evaluation's operations to report whether any of them leaves
// int64 (the cases Range must panic on).
func (b *Bounds) exactRange(lvl int, outer []int64) (lo, hi *big.Int, overflows bool) {
	inRange := func(x *big.Int) {
		if !x.IsInt64() {
			overflows = true
		}
	}
	for c := b.ints[lvl]; len(c) > 0; c = c[lvl+2:] {
		acc := big.NewInt(c[lvl+1])
		for j, x := range outer[:lvl] {
			p := new(big.Int).Mul(big.NewInt(c[j]), big.NewInt(x))
			inRange(p)
			acc.Sub(acc, p)
			inRange(acc)
		}
		cl := big.NewInt(c[lvl])
		v := new(big.Int)
		if c[lvl] > 0 {
			v.Div(acc, cl) // Euclidean division by a positive divisor is floor
			if hi == nil || v.Cmp(hi) < 0 {
				hi = v
			}
		} else {
			// ceil(acc/cl) = -floor(acc / -cl)
			v.Neg(v.Div(acc, new(big.Int).Neg(cl)))
			inRange(v)
			if lo == nil || v.Cmp(lo) > 0 {
				lo = v
			}
		}
	}
	return lo, hi, overflows
}

// FuzzRange checks the integer Range of an arbitrary 2-deep system
// against an unbounded-integer evaluation: equal bounds when nothing
// overflows, a panic — never a wrapped value — when something does.
func FuzzRange(f *testing.F) {
	f.Add(int8(1), int8(0), int8(-1), int8(1), int64(0), int64(9), int64(-4), int64(5), int64(3))
	f.Add(int8(0), int8(1), int8(1), int8(0), int64(-7), int64(-1), int64(2), int64(8), int64(-3))
	f.Add(int8(2), int8(1), int8(1), int8(1), int64(-3), int64(3), int64(-3), int64(3), int64(-9))
	f.Add(int8(1), int8(-3), int8(0), int8(-1), int64(1<<40), int64(1<<41), int64(0), int64(5), int64(math.MaxInt64/3))
	f.Fuzz(func(t *testing.T, q00, q01, q10, q11 int8, lo0, hi0, lo1, hi1, x0 int64) {
		q := matrix.FromRows([][]int64{{int64(q00), int64(q01)}, {int64(q10), int64(q11)}})
		if int64(q00)*int64(q11)-int64(q01)*int64(q10) == 0 || lo0 > hi0 || lo1 > hi1 {
			return // singular Q leaves a variable unbounded; reversed boxes are empty by construction
		}
		var b *Bounds
		if !panics(func() { b = TransformedBounds(q, []int64{lo0, lo1}, []int64{hi0, hi1}).Eliminate() }) {
			for lvl, outer := range [][]int64{nil, {x0}} {
				wantLo, wantHi, overflows := b.exactRange(lvl, outer)
				var lo, hi int64
				if p := panics(func() { lo, hi, _ = b.Range(lvl, outer) }); p != overflows {
					t.Fatalf("Q=%v box=[%d,%d]x[%d,%d] Range(%d, %v): panicked=%v, overflows=%v",
						q, lo0, hi0, lo1, hi1, lvl, outer, p, overflows)
				} else if !p && (lo != wantLo.Int64() || hi != wantHi.Int64()) {
					t.Fatalf("Q=%v box=[%d,%d]x[%d,%d] Range(%d, %v) = [%d,%d], exact [%v,%v]",
						q, lo0, hi0, lo1, hi1, lvl, outer, lo, hi, wantLo, wantHi)
				}
			}
		}
	})
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}
