package fm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"outcore/internal/matrix"
)

func TestRectangularIdentity(t *testing.T) {
	b := TransformedBounds(matrix.Identity(2), []int64{0, 0}, []int64{3, 4}).Eliminate()
	if !b.Feasible() {
		t.Fatal("infeasible")
	}
	if got := b.Count(); got != 4*5 {
		t.Errorf("count = %d", got)
	}
	lo, hi, empty := b.Range(0, nil)
	if empty || lo != 0 || hi != 3 {
		t.Errorf("level 0 range [%d,%d]", lo, hi)
	}
	lo, hi, empty = b.Range(1, []int64{2})
	if empty || lo != 0 || hi != 4 {
		t.Errorf("level 1 range [%d,%d]", lo, hi)
	}
}

func TestInterchangeBounds(t *testing.T) {
	// I = Q·I' with Q = interchange: the transformed space of a 4x6
	// rectangle is the 6x4 rectangle.
	q := matrix.FromRows([][]int64{{0, 1}, {1, 0}})
	b := TransformedBounds(q, []int64{0, 0}, []int64{3, 5}).Eliminate()
	lo, hi, _ := b.Range(0, nil)
	if lo != 0 || hi != 5 {
		t.Errorf("outer range [%d,%d], want [0,5]", lo, hi)
	}
	lo, hi, _ = b.Range(1, []int64{5})
	if lo != 0 || hi != 3 {
		t.Errorf("inner range [%d,%d], want [0,3]", lo, hi)
	}
	if b.Count() != 24 {
		t.Errorf("count = %d", b.Count())
	}
}

func TestSkewedBounds(t *testing.T) {
	// T = [[1,0],[1,1]] (skew), Q = T⁻¹ = [[1,0],[-1,1]].
	// Original 0<=i,j<=2: transformed points (i, i+j): inner range shifts
	// with the outer value.
	q := matrix.FromRows([][]int64{{1, 0}, {-1, 1}})
	b := TransformedBounds(q, []int64{0, 0}, []int64{2, 2}).Eliminate()
	if b.Count() != 9 {
		t.Errorf("count = %d, want 9", b.Count())
	}
	lo, hi, _ := b.Range(1, []int64{0})
	if lo != 0 || hi != 2 {
		t.Errorf("inner range at outer=0: [%d,%d]", lo, hi)
	}
	lo, hi, _ = b.Range(1, []int64{2})
	if lo != 2 || hi != 4 {
		t.Errorf("inner range at outer=2: [%d,%d]", lo, hi)
	}
}

func TestEnumerateLexOrderAndBijection(t *testing.T) {
	q := matrix.FromRows([][]int64{{0, 1}, {1, 0}})
	b := TransformedBounds(q, []int64{0, 0}, []int64{2, 3}).Eliminate()
	seen := map[[2]int64]bool{}
	var prev *[2]int64
	b.Enumerate(func(iv []int64) {
		cur := [2]int64{iv[0], iv[1]}
		if prev != nil {
			if !(prev[0] < cur[0] || (prev[0] == cur[0] && prev[1] < cur[1])) {
				t.Fatalf("not lexicographic: %v then %v", *prev, cur)
			}
		}
		p := cur
		prev = &p
		// Mapped-back original point must be in range.
		orig := q.MulVec(iv)
		if orig[0] < 0 || orig[0] > 2 || orig[1] < 0 || orig[1] > 3 {
			t.Fatalf("point %v maps outside: %v", iv, orig)
		}
		if seen[cur] {
			t.Fatalf("duplicate point %v", cur)
		}
		seen[cur] = true
	})
	if len(seen) != 12 {
		t.Errorf("enumerated %d points, want 12", len(seen))
	}
}

func TestInfeasibleSystem(t *testing.T) {
	s := NewSystem(1)
	s.AddLE([]int64{1}, 0) // x <= 0
	s.AddGE([]int64{1}, 5) // x >= 5
	b := s.Eliminate()
	if b.Feasible() {
		t.Error("infeasible system reported feasible")
	}
	if b.Count() != 0 {
		t.Error("infeasible system has points")
	}
}

func TestEmptyInnerRange(t *testing.T) {
	// x0 in [0,4]; x1 in [x0, 4-x0]: empty when x0 > 2.
	s := NewSystem(2)
	s.AddGE([]int64{1, 0}, 0)
	s.AddLE([]int64{1, 0}, 4)
	s.AddGE([]int64{-1, 1}, 0) // x1 >= x0
	s.AddLE([]int64{1, 1}, 4)  // x0 + x1 <= 4
	b := s.Eliminate()
	if _, _, empty := b.Range(1, []int64{3}); !empty {
		t.Error("expected empty inner range at x0=3")
	}
	// Triangle count: x0=0:5, 1:3+... x1 from x0 to 4-x0: sizes 5,3,1 -> 9.
	if got := b.Count(); got != 9 {
		t.Errorf("count = %d, want 9", got)
	}
}

func TestPropertyUnimodularTransformPreservesCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(2)
		// Random unimodular Q from elementary ops.
		q := matrix.Identity(k)
		for step := 0; step < 4; step++ {
			i, j := rng.Intn(k), rng.Intn(k)
			if i == j {
				continue
			}
			e := matrix.Identity(k)
			e.Set(i, j, int64(rng.Intn(3)-1))
			q = q.Mul(e)
		}
		lo := make([]int64, k)
		hi := make([]int64, k)
		want := int64(1)
		for d := 0; d < k; d++ {
			lo[d] = int64(rng.Intn(3))
			hi[d] = lo[d] + int64(rng.Intn(4))
			want *= hi[d] - lo[d] + 1
		}
		b := TransformedBounds(q, lo, hi).Eliminate()
		return b.Count() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEnumeratedPointsSatisfyOriginalBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := matrix.FromRows([][]int64{
			{1, int64(rng.Intn(3) - 1)},
			{0, 1},
		})
		lo := []int64{0, 0}
		hi := []int64{int64(1 + rng.Intn(4)), int64(1 + rng.Intn(4))}
		b := TransformedBounds(q, lo, hi).Eliminate()
		ok := true
		b.Enumerate(func(iv []int64) {
			orig := q.MulVec(iv)
			for d := range orig {
				if orig[d] < lo[d] || orig[d] > hi[d] {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAddLEValidation(t *testing.T) {
	s := NewSystem(2)
	defer func() {
		if recover() == nil {
			t.Error("length mismatch accepted")
		}
	}()
	s.AddLE([]int64{1}, 0)
}

// TestFeasibleTightens: 1 <= 2x <= 1 holds at x = 1/2 only, so the
// rational system is feasible and the integer one is not; rounding each
// row to its integer points proves that. 1 <= 2x <= 2 holds at x = 1.
func TestFeasibleTightens(t *testing.T) {
	for _, c := range []struct {
		hi   int64
		want bool
	}{{1, false}, {2, true}} {
		s := NewSystem(1)
		s.AddGE([]int64{2}, 1)
		s.AddLE([]int64{2}, c.hi)
		if got := s.Feasible(); got != c.want {
			t.Errorf("1 <= 2x <= %d: Feasible = %v, want %v", c.hi, got, c.want)
		}
	}
}

// TestSpanContainsEveryPoint checks Feasible and Span against
// enumeration on random bounded systems: every integer point's value of
// the spanned variable lies in the span, an infeasible answer means no
// point, and an unconstrained side reads unbounded.
func TestSpanContainsEveryPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for it := 0; it < 500; it++ {
		k := 1 + rng.Intn(3)
		s := NewSystem(k)
		box := NewSystem(k)
		for j := 0; j < k; j++ {
			e := make([]int64, k)
			e[j] = 1
			box.AddGE(e, -3)
			box.AddLE(e, 3)
		}
		s.rows = append(s.rows, box.rows...)
		for c := 0; c < 1+rng.Intn(4); c++ {
			coefs := make([]int64, k)
			for j := range coefs {
				coefs[j] = int64(rng.Intn(7) - 3)
			}
			s.AddLE(coefs, int64(rng.Intn(9)-4))
		}
		v := rng.Intn(k)
		lo, hi, ok := s.Span(v)
		var points int
		box.Eliminate().Enumerate(func(x []int64) {
			for r := s.rows; len(r) > 0; r = r[k+1:] {
				var sum int64
				for j, c := range r[:k] {
					sum += c * x[j]
				}
				if sum > r[k] {
					return
				}
			}
			points++
			if !ok || x[v] < lo || x[v] > hi {
				t.Fatalf("system %v: point %v outside span [%d,%d] of x%d (ok %v)", s.rows, x, lo, hi, v, ok)
			}
		})
		if points > 0 && !s.Feasible() {
			t.Fatalf("system %v: %d points, Feasible false", s.rows, points)
		}
	}
	s := NewSystem(2)
	s.AddLE([]int64{1, 1}, 4)
	if lo, hi, ok := s.Span(0); !ok || lo != math.MinInt64 || hi != math.MaxInt64 {
		t.Errorf("x0 + x1 <= 4: span of x0 = [%d,%d] ok %v, want unbounded", lo, hi, ok)
	}
}
