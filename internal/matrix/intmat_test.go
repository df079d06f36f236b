package matrix

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromRowsAndAccessors(t *testing.T) {
	m := FromRows([][]int64{{1, 2, 3}, {4, 5, 6}})
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape %dx%d", m.Rows(), m.Cols())
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %d", m.At(1, 2))
	}
	m.Set(1, 2, 9)
	if m.At(1, 2) != 9 {
		t.Errorf("Set failed")
	}
	if got := m.Row(0); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Row(0) = %v", got)
	}
	if got := m.Col(1); got[0] != 2 || got[1] != 5 {
		t.Errorf("Col(1) = %v", got)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged rows did not panic")
		}
	}()
	FromRows([][]int64{{1, 2}, {3}})
}

func TestIdentityAndEqual(t *testing.T) {
	i3 := Identity(3)
	if !i3.Equal(FromRows([][]int64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})) {
		t.Error("Identity(3) wrong")
	}
	if i3.Equal(Identity(2)) {
		t.Error("shape mismatch reported equal")
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]int64{{1, 2}, {3, 4}})
	b := FromRows([][]int64{{5, 6}, {7, 8}})
	want := FromRows([][]int64{{19, 22}, {43, 50}})
	if got := a.Mul(b); !got.Equal(want) {
		t.Errorf("a*b =\n%s", got)
	}
	if got := a.Mul(Identity(2)); !got.Equal(a) {
		t.Error("a*I != a")
	}
}

// TestMulTo reuses one destination across products of different
// shapes: each result equals Mul's, and the storage is kept whenever it
// has room.
func TestMulTo(t *testing.T) {
	a := FromRows([][]int64{{1, 2}, {3, 4}})
	b := FromRows([][]int64{{5, 6, -1}, {7, 8, 2}})
	row := FromRows([][]int64{{2, -3}})
	var dst *Int
	for _, c := range []struct{ m, n *Int }{{a, b}, {row, a}, {a, a}, {row, b}} {
		prev := dst
		dst = c.m.MulTo(dst, c.n)
		if want := c.m.Mul(c.n); !dst.Equal(want) {
			t.Errorf("MulTo =\n%s want\n%s", dst, want)
		}
		if prev != nil && cap(prev.a) >= len(dst.a) && dst != prev {
			t.Errorf("MulTo reallocated a %dx%d result into room for %d", dst.rows, dst.cols, cap(prev.a))
		}
	}
}

func TestMulVecAndVecMul(t *testing.T) {
	a := FromRows([][]int64{{1, 2, 3}, {4, 5, 6}})
	if got := a.MulVec([]int64{1, 0, -1}); got[0] != -2 || got[1] != -2 {
		t.Errorf("MulVec = %v", got)
	}
	if got := a.VecMul([]int64{1, -1}); got[0] != -3 || got[1] != -3 || got[2] != -3 {
		t.Errorf("VecMul = %v", got)
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]int64{{1, 2, 3}, {4, 5, 6}})
	want := FromRows([][]int64{{1, 4}, {2, 5}, {3, 6}})
	if !a.Transpose().Equal(want) {
		t.Error("transpose wrong")
	}
	if !a.Transpose().Transpose().Equal(a) {
		t.Error("double transpose not identity")
	}
}

func TestDet(t *testing.T) {
	cases := []struct {
		m    *Int
		want int64
	}{
		{Identity(3), 1},
		{FromRows([][]int64{{0, 1}, {1, 0}}), -1},
		{FromRows([][]int64{{2, 0}, {0, 3}}), 6},
		{FromRows([][]int64{{1, 2}, {2, 4}}), 0},
		{FromRows([][]int64{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}}), -3},
		{FromRows([][]int64{{0, 0, 1}, {0, 1, 0}, {1, 0, 0}}), -1},
		{NewInt(0, 0), 1},
	}
	for i, c := range cases {
		if got := c.m.Det(); got != c.want {
			t.Errorf("case %d: det = %d, want %d", i, got, c.want)
		}
	}
}

func TestDetNeedsPivotSwap(t *testing.T) {
	// Leading zero forces the row-swap path.
	m := FromRows([][]int64{{0, 2, 1}, {3, 0, 0}, {1, 1, 1}})
	if got := m.Det(); got != -3 {
		t.Errorf("det = %d, want -3", got)
	}
}

func TestUnimodularAndNonSingular(t *testing.T) {
	if !Identity(4).IsUnimodular() {
		t.Error("I not unimodular")
	}
	if !FromRows([][]int64{{0, 1}, {1, 0}}).IsUnimodular() {
		t.Error("interchange not unimodular")
	}
	if FromRows([][]int64{{2, 0}, {0, 1}}).IsUnimodular() {
		t.Error("det-2 reported unimodular")
	}
	if !FromRows([][]int64{{2, 0}, {0, 1}}).IsNonSingular() {
		t.Error("det-2 reported singular")
	}
	if FromRows([][]int64{{1, 1}, {1, 1}}).IsNonSingular() {
		t.Error("singular reported non-singular")
	}
}

func TestInverse(t *testing.T) {
	a := FromRows([][]int64{{2, 1}, {1, 1}})
	inv, ok := a.Inverse()
	if !ok {
		t.Fatal("invertible matrix reported singular")
	}
	prod := a.ToRat().Mul(inv)
	if !prod.Equal(RatIdentity(2)) {
		t.Errorf("a*a⁻¹ =\n%s", prod)
	}
	if _, ok := FromRows([][]int64{{1, 2}, {2, 4}}).Inverse(); ok {
		t.Error("singular matrix inverted")
	}
	if _, ok := FromRows([][]int64{{1, 2, 3}}).Inverse(); ok {
		t.Error("non-square matrix inverted")
	}
}

func randUnimodular(rng *rand.Rand, n int) *Int {
	// Product of random elementary matrices: guaranteed det ±1.
	m := Identity(n)
	for step := 0; step < 3*n; step++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		f := int64(rng.Intn(5) - 2)
		e := Identity(n)
		e.Set(i, j, f)
		m = m.Mul(e)
		if rng.Intn(4) == 0 {
			m.swapRows(rng.Intn(n), rng.Intn(n))
		}
	}
	return m
}

func TestPropertyUnimodularDet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		return randUnimodular(rng, n).IsUnimodular()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyInverseRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		m := randUnimodular(rng, n)
		inv, ok := m.Inverse()
		if !ok {
			return false
		}
		return m.ToRat().Mul(inv).Equal(RatIdentity(n)) && inv.Mul(m.ToRat()).Equal(RatIdentity(n))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDetMultiplicative(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(2)
		a, b := NewInt(n, n), NewInt(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, int64(rng.Intn(7)-3))
				b.Set(i, j, int64(rng.Intn(7)-3))
			}
		}
		return a.Mul(b).Det() == a.Det()*b.Det()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDetTransposeInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		a := NewInt(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, int64(rng.Intn(9)-4))
			}
		}
		return a.Det() == a.Transpose().Det()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
