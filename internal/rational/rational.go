// Package rational implements exact rational arithmetic on int64
// numerators and denominators.
//
// The compiler analyses in this repository (kernel computation, matrix
// inversion) require exact arithmetic: floating point would silently
// turn "is this entry zero?" into a tolerance question and corrupt
// layout decisions. Values stay
// tiny in practice (loop transformation matrices have small integer
// entries), so int64 fractions with overflow checks are both faster and
// simpler than math/big.
package rational

import (
	"fmt"
	"math"
)

// Rat is an exact rational number p/q with q > 0 and gcd(|p|, q) == 1.
// The zero value is 0/1, i.e. a valid representation of zero.
type Rat struct {
	p int64 // numerator, carries the sign
	q int64 // denominator, always > 0 for normalized values
}

// Common constants.
var (
	Zero = Rat{0, 1}
	One  = Rat{1, 1}
)

// New returns the normalized rational p/q. It panics if q == 0.
func New(p, q int64) Rat {
	if q == 0 {
		panic("rational: zero denominator")
	}
	if q < 0 {
		p, q = -p, -q
	}
	g := gcd64(abs64(p), q)
	if g > 1 {
		p /= g
		q /= g
	}
	if q == 0 { // q was MinInt64; cannot normalize
		panic("rational: denominator overflow")
	}
	return Rat{p, q}
}

// FromInt returns the rational n/1.
func FromInt(n int64) Rat { return Rat{n, 1} }

// Num returns the numerator (sign-carrying).
func (r Rat) Num() int64 { return r.num() }

// Den returns the positive denominator.
func (r Rat) Den() int64 { return r.den() }

// num and den treat the zero value {0,0} as 0/1.
func (r Rat) num() int64 { return r.p }
func (r Rat) den() int64 {
	if r.q == 0 {
		return 1
	}
	return r.q
}

// IsZero reports whether r == 0.
func (r Rat) IsZero() bool { return r.num() == 0 }

// IsInt reports whether r is an integer.
func (r Rat) IsInt() bool { return r.den() == 1 }

// Int returns the value as an int64, panicking if r is not an integer.
func (r Rat) Int() int64 {
	if !r.IsInt() {
		panic(fmt.Sprintf("rational: %s is not an integer", r))
	}
	return r.num()
}

// Sign returns -1, 0, or +1 according to the sign of r.
func (r Rat) Sign() int {
	switch {
	case r.num() > 0:
		return 1
	case r.num() < 0:
		return -1
	default:
		return 0
	}
}

// Neg returns -r.
func (r Rat) Neg() Rat { return Rat{mulChecked(-1, r.num()), r.den()} }

// Add returns r + s.
func (r Rat) Add(s Rat) Rat {
	// p1/q1 + p2/q2 = (p1*q2 + p2*q1) / (q1*q2), reduced via the gcd of
	// denominators first to keep intermediates small.
	q1, q2 := r.den(), s.den()
	g := gcd64(q1, q2)
	q1g, q2g := q1/g, q2/g
	num := addChecked(mulChecked(r.num(), q2g), mulChecked(s.num(), q1g))
	den := mulChecked(q1, q2g)
	return New(num, den)
}

// Sub returns r - s.
func (r Rat) Sub(s Rat) Rat { return r.Add(s.Neg()) }

// Mul returns r * s.
func (r Rat) Mul(s Rat) Rat {
	// Cross-reduce before multiplying to avoid overflow.
	g1 := gcd64(abs64(r.num()), s.den())
	g2 := gcd64(abs64(s.num()), r.den())
	num := mulChecked(r.num()/g1, s.num()/g2)
	den := mulChecked(r.den()/g2, s.den()/g1)
	return New(num, den)
}

// Div returns r / s, panicking if s == 0.
func (r Rat) Div(s Rat) Rat {
	if s.IsZero() {
		panic("rational: division by zero")
	}
	return r.Mul(Rat{s.den(), abs64(s.num())}.withSign(s.Sign()))
}

// withSign returns r with its sign forced to sign (which must be ±1).
func (r Rat) withSign(sign int) Rat {
	n := abs64(r.num())
	if sign < 0 {
		n = -n
	}
	return Rat{n, r.den()}
}

// Inv returns 1/r, panicking if r == 0.
func (r Rat) Inv() Rat { return One.Div(r) }

// Cmp compares r and s, returning -1, 0, or +1.
func (r Rat) Cmp(s Rat) int { return r.Sub(s).Sign() }

// Equal reports whether r == s.
func (r Rat) Equal(s Rat) bool { return r.num() == s.num() && r.den() == s.den() }

// Abs returns |r|.
func (r Rat) Abs() Rat {
	if r.Sign() < 0 {
		return r.Neg()
	}
	return r
}

// Float returns the nearest float64 (for reporting only; never used in
// analysis decisions).
func (r Rat) Float() float64 { return float64(r.num()) / float64(r.den()) }

// Floor returns the largest integer <= r.
func (r Rat) Floor() int64 {
	p, q := r.num(), r.den()
	d := p / q
	if p%q != 0 && p < 0 {
		d--
	}
	return d
}

// Ceil returns the smallest integer >= r.
func (r Rat) Ceil() int64 {
	p, q := r.num(), r.den()
	d := p / q
	if p%q != 0 && p > 0 {
		d++
	}
	return d
}

// String renders r as "p" or "p/q".
func (r Rat) String() string {
	if r.IsInt() {
		return fmt.Sprintf("%d", r.num())
	}
	return fmt.Sprintf("%d/%d", r.num(), r.den())
}

// GCD returns the non-negative greatest common divisor of a and b,
// with GCD(0, 0) == 0.
func GCD(a, b int64) int64 { return gcd64(abs64(a), abs64(b)) }

// GCDAll returns the gcd of all values (0 for an empty or all-zero list).
func GCDAll(vals ...int64) int64 {
	g := int64(0)
	for _, v := range vals {
		g = gcd64(g, abs64(v))
	}
	return g
}

// LCM returns the least common multiple of a and b (0 if either is 0).
func LCM(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	a, b = abs64(a), abs64(b)
	return mulChecked(a/gcd64(a, b), b)
}

// ExtGCD returns (g, x, y) with a*x + b*y == g == gcd(a, b) >= 0.
func ExtGCD(a, b int64) (g, x, y int64) {
	// Iterative extended Euclid keeps coefficients small.
	oldR, r := a, b
	oldX, xx := int64(1), int64(0)
	oldY, yy := int64(0), int64(1)
	for r != 0 {
		quot := oldR / r
		oldR, r = r, oldR-quot*r
		oldX, xx = xx, oldX-quot*xx
		oldY, yy = yy, oldY-quot*yy
	}
	if oldR < 0 {
		oldR, oldX, oldY = -oldR, -oldX, -oldY
	}
	return oldR, oldX, oldY
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs64(a int64) int64 {
	if a < 0 {
		if a == math.MinInt64 {
			panic("rational: abs overflow")
		}
		return -a
	}
	return a
}

func addChecked(a, b int64) int64 {
	s := a + b
	if (a > 0 && b > 0 && s <= 0) || (a < 0 && b < 0 && s >= 0) {
		panic("rational: addition overflow")
	}
	return s
}

func mulChecked(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a {
		panic("rational: multiplication overflow")
	}
	return p
}
