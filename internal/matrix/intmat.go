// Package matrix provides exact integer and rational dense matrices
// sized for compiler analysis: access matrices, loop transformation
// matrices, and their kernels, inverses and completions.
//
// Everything is exact. Determinants use fraction-free (Bareiss)
// elimination; inverses and kernels use rational Gauss-Jordan; the
// Bik-Wijshoff style completion extends a primitive integer vector to a
// unimodular matrix. Matrices here are tiny (loop depth x loop depth),
// so clarity wins over blocking or SIMD concerns.
package matrix

import (
	"fmt"
	"strings"

	"outcore/internal/rational"
)

// Int is a dense integer matrix with row-major storage.
type Int struct {
	rows, cols int
	a          []int64
}

// NewInt returns a zero rows x cols integer matrix.
func NewInt(rows, cols int) *Int {
	if rows < 0 || cols < 0 {
		panic("matrix: negative dimension")
	}
	return &Int{rows: rows, cols: cols, a: make([]int64, rows*cols)}
}

// FromRows builds a matrix from row slices; all rows must share a length.
func FromRows(rows [][]int64) *Int {
	if len(rows) == 0 {
		return NewInt(0, 0)
	}
	m := NewInt(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("matrix: ragged rows")
		}
		copy(m.a[i*m.cols:], r)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Int {
	m := NewInt(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Int) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Int) Cols() int { return m.cols }

// At returns element (i, j).
func (m *Int) At(i, j int) int64 { return m.a[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Int) Set(i, j int, v int64) { m.a[i*m.cols+j] = v }

// Clone returns a deep copy of m.
func (m *Int) Clone() *Int {
	c := NewInt(m.rows, m.cols)
	copy(c.a, m.a)
	return c
}

// Equal reports whether m and n have identical shape and entries.
func (m *Int) Equal(n *Int) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i, v := range m.a {
		if n.a[i] != v {
			return false
		}
	}
	return true
}

// Row returns a copy of row i.
func (m *Int) Row(i int) []int64 {
	r := make([]int64, m.cols)
	copy(r, m.a[i*m.cols:(i+1)*m.cols])
	return r
}

// Col returns a copy of column j.
func (m *Int) Col(j int) []int64 {
	c := make([]int64, m.rows)
	for i := range c {
		c[i] = m.At(i, j)
	}
	return c
}

// Transpose returns mᵀ.
func (m *Int) Transpose() *Int {
	t := NewInt(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns m * n, panicking on a shape mismatch.
func (m *Int) Mul(n *Int) *Int { return m.MulTo(nil, n) }

// MulTo stores m * n in dst, reusing dst's storage when it has room
// (dst may be nil, but neither m nor n), and returns it. It panics on
// a shape mismatch.
func (m *Int) MulTo(dst, n *Int) *Int {
	if m.cols != n.rows {
		panic(fmt.Sprintf("matrix: mul shape mismatch %dx%d * %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	p := dst
	if p == nil || cap(p.a) < m.rows*n.cols {
		p = NewInt(m.rows, n.cols)
	} else {
		p.rows, p.cols, p.a = m.rows, n.cols, p.a[:m.rows*n.cols]
		clear(p.a)
	}
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			mik := m.At(i, k)
			if mik == 0 {
				continue
			}
			for j := 0; j < n.cols; j++ {
				p.Set(i, j, p.At(i, j)+mik*n.At(k, j))
			}
		}
	}
	return p
}

// MulVec returns m * v for a column vector v.
func (m *Int) MulVec(v []int64) []int64 {
	if m.cols != len(v) {
		panic("matrix: mulvec shape mismatch")
	}
	out := make([]int64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s int64
		for j := 0; j < m.cols; j++ {
			s += m.At(i, j) * v[j]
		}
		out[i] = s
	}
	return out
}

// VecMul returns vᵀ * m for a row vector v, as a row vector.
func (m *Int) VecMul(v []int64) []int64 {
	if m.rows != len(v) {
		panic("matrix: vecmul shape mismatch")
	}
	out := make([]int64, m.cols)
	for j := 0; j < m.cols; j++ {
		var s int64
		for i := 0; i < m.rows; i++ {
			s += v[i] * m.At(i, j)
		}
		out[j] = s
	}
	return out
}

// IsSquare reports whether m is square.
func (m *Int) IsSquare() bool { return m.rows == m.cols }

// Det returns the determinant via fraction-free Bareiss elimination.
func (m *Int) Det() int64 {
	if !m.IsSquare() {
		panic("matrix: determinant of non-square matrix")
	}
	n := m.rows
	if n == 0 {
		return 1
	}
	w := m.Clone()
	sign := int64(1)
	prev := int64(1)
	for k := 0; k < n-1; k++ {
		if w.At(k, k) == 0 {
			// Find a pivot row below and swap.
			p := -1
			for i := k + 1; i < n; i++ {
				if w.At(i, k) != 0 {
					p = i
					break
				}
			}
			if p < 0 {
				return 0
			}
			w.swapRows(k, p)
			sign = -sign
		}
		for i := k + 1; i < n; i++ {
			for j := k + 1; j < n; j++ {
				num := w.At(i, j)*w.At(k, k) - w.At(i, k)*w.At(k, j)
				w.Set(i, j, num/prev) // exact by Bareiss invariant
			}
			w.Set(i, k, 0)
		}
		prev = w.At(k, k)
	}
	return sign * w.At(n-1, n-1)
}

// IsUnimodular reports whether m is square with determinant ±1.
func (m *Int) IsUnimodular() bool {
	if !m.IsSquare() {
		return false
	}
	d := m.Det()
	return d == 1 || d == -1
}

// IsNonSingular reports whether m is square with nonzero determinant.
func (m *Int) IsNonSingular() bool { return m.IsSquare() && m.Det() != 0 }

func (m *Int) swapRows(i, j int) {
	if i == j {
		return
	}
	ri := m.a[i*m.cols : (i+1)*m.cols]
	rj := m.a[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// ToRat converts m to a rational matrix.
func (m *Int) ToRat() *Rat {
	r := NewRat(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			r.Set(i, j, rational.FromInt(m.At(i, j)))
		}
	}
	return r
}

// String renders the matrix with aligned columns.
func (m *Int) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteByte('[')
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// Inverse returns m⁻¹ as a rational matrix; ok is false when m is
// singular or non-square.
func (m *Int) Inverse() (inv *Rat, ok bool) {
	if !m.IsSquare() {
		return nil, false
	}
	return m.ToRat().Inverse()
}
