// Package layout implements hyperplane-based file layouts for
// out-of-core arrays (Section 3.2.1 of the paper).
//
// A layout is a bijection from m-dimensional array coordinates to a
// linear file offset (in elements). The paper characterizes layouts by
// a hyperplane family g = (g1, ..., gm): elements on the same
// hyperplane {a : g·a = c} are stored consecutively, so a reference has
// spatial locality in the innermost loop exactly when its per-iteration
// movement vector lies in the hyperplane (g · L · q_last = 0, Claim 1).
//
// Canonical 2-D layouts get closed-form offset and run enumeration;
// arbitrary 2-D hyperplanes fall back to a precomputed permutation
// table; higher-rank arrays use dimension-permutation layouts (the
// "dimension re-ordering" class of data transformations).
package layout

import (
	"fmt"
	"sort"
	"sync"
)

// Kind enumerates layout families.
type Kind int

const (
	// Permutation stores elements lexicographically by a permutation of
	// the dimensions; identity permutation is row-major, reversed is
	// column-major (for rank 2).
	Permutation Kind = iota
	// Diagonal2D stores 2-D diagonals (i - j = c) consecutively:
	// hyperplane vector (1, -1).
	Diagonal2D
	// AntiDiagonal2D stores 2-D anti-diagonals (i + j = c)
	// consecutively: hyperplane vector (1, 1).
	AntiDiagonal2D
	// General2D stores elements ordered by an arbitrary hyperplane
	// vector g: primary key g·a, secondary key the row coordinate.
	General2D
	// Blocked2D stores b1 x b2 blocks; blocks ordered row-major, and
	// row-major inside each block (Figure 2, last layout).
	Blocked2D
)

// Layout is a concrete file layout bound to fixed array extents.
type Layout struct {
	kind  Kind
	dims  []int64
	perm  []int   // Permutation: dims[perm[0]] slowest ... dims[perm[last]] fastest
	g     []int64 // General2D hyperplane vector
	block []int64 // Blocked2D block extents

	// Diagonal/AntiDiagonal: start offset per normalized diagonal, plus
	// the total size; Blocked2D: start offset per block, row-major over
	// blocks. Built by the constructor, read-only afterwards.
	starts []int64

	// General2D: coordinate-linearization -> offset and its inverse.
	// O(N·M), so built on first use — behind tableOnce, because that
	// first use may be several concurrent tile reads.
	tableOnce       sync.Once
	table, tableInv []int64
}

// RowMajor returns the row-major layout (last dimension fastest).
func RowMajor(dims ...int64) *Layout {
	perm := make([]int, len(dims))
	for i := range perm {
		perm[i] = i
	}
	return NewPermutation(dims, perm)
}

// ColMajor returns the column-major layout (first dimension fastest).
func ColMajor(dims ...int64) *Layout {
	perm := make([]int, len(dims))
	for i := range perm {
		perm[i] = len(dims) - 1 - i
	}
	return NewPermutation(dims, perm)
}

// NewPermutation returns a dimension-reordering layout; perm lists
// dimensions from slowest to fastest varying.
func NewPermutation(dims []int64, perm []int) *Layout {
	if len(perm) != len(dims) {
		panic("layout: permutation length mismatch")
	}
	seen := make([]bool, len(dims))
	for _, p := range perm {
		if p < 0 || p >= len(dims) || seen[p] {
			panic("layout: invalid permutation")
		}
		seen[p] = true
	}
	return &Layout{kind: Permutation, dims: cloneI64(dims), perm: append([]int(nil), perm...)}
}

// Diagonal returns the 2-D diagonal layout (hyperplane (1,-1)).
func Diagonal(n, m int64) *Layout {
	return &Layout{kind: Diagonal2D, dims: []int64{n, m}, starts: diagStarts(n, m)}
}

// AntiDiagonal returns the 2-D anti-diagonal layout (hyperplane (1,1)).
func AntiDiagonal(n, m int64) *Layout {
	return &Layout{kind: AntiDiagonal2D, dims: []int64{n, m}, starts: diagStarts(n, m)}
}

// Blocked returns the 2-D blocked layout with b1 x b2 blocks.
func Blocked(n, m, b1, b2 int64) *Layout {
	if b1 <= 0 || b2 <= 0 {
		panic("layout: non-positive block extents")
	}
	return &Layout{kind: Blocked2D, dims: []int64{n, m}, block: []int64{b1, b2}, starts: blockStarts(n, m, b1, b2)}
}

// General returns the layout for an arbitrary 2-D hyperplane vector g
// (not both components zero). Canonical vectors are recognized and get
// their closed-form implementations.
func General(n, m int64, g []int64) *Layout {
	if len(g) != 2 || (g[0] == 0 && g[1] == 0) {
		panic("layout: invalid hyperplane vector")
	}
	switch {
	case g[0] != 0 && g[1] == 0: // rows are hyperplanes: row-major
		return RowMajor(n, m)
	case g[0] == 0 && g[1] != 0: // columns are hyperplanes: column-major
		return ColMajor(n, m)
	case g[0] == g[1] || g[0] == -g[1]:
		if sameSign(g[0], g[1]) {
			return AntiDiagonal(n, m)
		}
		return Diagonal(n, m)
	}
	return &Layout{kind: General2D, dims: []int64{n, m}, g: cloneI64(g)}
}

// ForHyperplane builds a layout from a hyperplane vector for rank-2
// arrays, or from a "fast dimension" basis vector for higher ranks
// (where v is the contiguity DIRECTION, i.e. v = L·q_last; the layout
// keeps dimension d fastest when v is parallel to e_d).
func ForHyperplane(dims []int64, g []int64) *Layout {
	if len(dims) == 2 {
		return General(dims[0], dims[1], g)
	}
	panic("layout: ForHyperplane supports rank-2 arrays; use FastDim for higher ranks")
}

// FastDim returns the permutation layout that makes dimension d the
// fastest-varying one, keeping the remaining dimensions in their
// original relative order.
func FastDim(dims []int64, d int) *Layout {
	if d < 0 || d >= len(dims) {
		panic("layout: fast dimension out of range")
	}
	perm := make([]int, 0, len(dims))
	for i := range dims {
		if i != d {
			perm = append(perm, i)
		}
	}
	perm = append(perm, d)
	return NewPermutation(dims, perm)
}

// Kind returns the layout family.
func (l *Layout) Kind() Kind { return l.kind }

// Dims returns the array extents the layout is bound to.
func (l *Layout) Dims() []int64 { return cloneI64(l.dims) }

// Rank returns the array rank.
func (l *Layout) Rank() int { return len(l.dims) }

// Size returns the total number of elements.
func (l *Layout) Size() int64 {
	n := int64(1)
	for _, d := range l.dims {
		n *= d
	}
	return n
}

// FastDimension returns the dimension along which consecutive file
// elements move, and ok=false for layouts without a single such
// dimension (diagonal/general/blocked).
func (l *Layout) FastDimension() (int, bool) {
	if l.kind == Permutation {
		return l.perm[len(l.perm)-1], true
	}
	return -1, false
}

// Hyperplane returns the hyperplane vector characterizing the layout
// for rank-2 layouts (nil for blocked layouts, which the paper's model
// treats separately).
func (l *Layout) Hyperplane() []int64 {
	switch l.kind {
	case Permutation:
		if len(l.dims) != 2 {
			return nil
		}
		if l.perm[1] == 1 { // row-major: rows contiguous
			return []int64{1, 0}
		}
		return []int64{0, 1}
	case Diagonal2D:
		return []int64{1, -1}
	case AntiDiagonal2D:
		return []int64{1, 1}
	case General2D:
		return cloneI64(l.g)
	default:
		return nil
	}
}

// Name returns a short human-readable description.
func (l *Layout) Name() string {
	switch l.kind {
	case Permutation:
		if len(l.dims) == 2 {
			if l.perm[1] == 1 {
				return "row-major"
			}
			return "col-major"
		}
		return fmt.Sprintf("perm%v", l.perm)
	case Diagonal2D:
		return "diagonal"
	case AntiDiagonal2D:
		return "anti-diagonal"
	case General2D:
		return fmt.Sprintf("hyperplane(%d,%d)", l.g[0], l.g[1])
	case Blocked2D:
		return fmt.Sprintf("blocked(%dx%d)", l.block[0], l.block[1])
	default:
		return "unknown"
	}
}

func (l *Layout) String() string { return l.Name() }

// Equal reports whether two layouts produce identical element orders.
func (l *Layout) Equal(o *Layout) bool {
	if l.kind != o.kind || len(l.dims) != len(o.dims) {
		return false
	}
	for i := range l.dims {
		if l.dims[i] != o.dims[i] {
			return false
		}
	}
	switch l.kind {
	case Permutation:
		for i := range l.perm {
			if l.perm[i] != o.perm[i] {
				return false
			}
		}
	case General2D:
		if l.g[0]*o.g[1] != l.g[1]*o.g[0] { // same direction up to scale
			return false
		}
	case Blocked2D:
		if l.block[0] != o.block[0] || l.block[1] != o.block[1] {
			return false
		}
	}
	return true
}

func cloneI64(v []int64) []int64 {
	out := make([]int64, len(v))
	copy(out, v)
	return out
}

func sameSign(a, b int64) bool { return (a > 0) == (b > 0) }

// tables returns the General2D permutation and its inverse, building
// them on first use.
func (l *Layout) tables() (table, inv []int64) {
	l.tableOnce.Do(l.buildTable)
	return l.table, l.tableInv
}

// buildTable materializes the General2D permutation: elements sorted by
// (g·a, a0).
func (l *Layout) buildTable() {
	n, m := l.dims[0], l.dims[1]
	type ent struct {
		key, row, lin int64
	}
	ents := make([]ent, 0, n*m)
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < m; j++ {
			ents = append(ents, ent{key: l.g[0]*i + l.g[1]*j, row: i, lin: i*m + j})
		}
	}
	sort.Slice(ents, func(a, b int) bool {
		if ents[a].key != ents[b].key {
			return ents[a].key < ents[b].key
		}
		return ents[a].row < ents[b].row
	})
	l.table = make([]int64, n*m)
	l.tableInv = make([]int64, n*m)
	for off, e := range ents {
		l.table[e.lin] = int64(off)
		l.tableInv[off] = e.lin
	}
}
