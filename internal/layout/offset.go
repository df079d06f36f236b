package layout

import (
	"fmt"
	"sort"
)

// Offset maps array coordinates c to the linear file offset (in
// elements) under the layout. It is a bijection from the array box to
// [0, Size()).
func (l *Layout) Offset(c []int64) int64 {
	if len(c) != len(l.dims) {
		panic("layout: coordinate rank mismatch")
	}
	for d, x := range c {
		if x < 0 || x >= l.dims[d] {
			panic(fmt.Sprintf("layout: coordinate %v out of bounds %v", c, l.dims))
		}
	}
	switch l.kind {
	case Permutation:
		var off int64
		for _, d := range l.perm {
			off = off*l.dims[d] + c[d]
		}
		return off
	case Diagonal2D:
		// Diagonal d = i - j, ordered d ascending from -(m-1); within a
		// diagonal, ascending i.
		return l.diagOffset(c[0]-c[1]+l.dims[1]-1, c[0])
	case AntiDiagonal2D:
		// Anti-diagonal s = i + j, ascending; within, ascending i.
		return l.diagOffset(c[0]+c[1], c[0])
	case General2D:
		table, _ := l.tables()
		return table[c[0]*l.dims[1]+c[1]]
	case Blocked2D:
		b1, b2 := l.block[0], l.block[1]
		bi, bj := c[0]/b1, c[1]/b2
		ri, rj := c[0]%b1, c[1]%b2
		// Within-block row-major over the (possibly clipped) block.
		bw := minI64(b2, l.dims[1]-bj*b2)
		return l.starts[bi*ceilDiv(l.dims[1], b2)+bj] + ri*bw + rj
	default:
		panic("layout: unknown kind")
	}
}

// Coord maps a file offset back to array coordinates (inverse of
// Offset).
func (l *Layout) Coord(off int64) []int64 { return l.AppendCoord(nil, off) }

// AppendCoord appends the coordinates of file offset off to dst and
// returns the extended slice: Coord without the allocation, for loops
// that visit many offsets with one scratch slice.
func (l *Layout) AppendCoord(dst []int64, off int64) []int64 {
	if off < 0 || off >= l.Size() {
		panic("layout: offset out of range")
	}
	switch l.kind {
	case Permutation:
		base := len(dst)
		dst = append(dst, l.dims...)
		c := dst[base:]
		for k := len(l.perm) - 1; k >= 0; k-- {
			d := l.perm[k]
			c[d] = off % l.dims[d]
			off /= l.dims[d]
		}
		return dst
	case Diagonal2D, AntiDiagonal2D:
		k := lastLE(l.starts, off) // never the final (total size) entry: off < Size()
		i := l.diagFirstRow(k) + off - l.starts[k]
		if l.kind == Diagonal2D {
			return append(dst, i, i-(k-(l.dims[1]-1)))
		}
		return append(dst, i, k-i)
	case General2D:
		_, inv := l.tables()
		return append(dst, inv[off]/l.dims[1], inv[off]%l.dims[1])
	case Blocked2D:
		b := lastLE(l.starts, off)
		nb2 := ceilDiv(l.dims[1], l.block[1])
		bi, bj := b/nb2, b%nb2
		rem := off - l.starts[b]
		bw := minI64(l.block[1], l.dims[1]-bj*l.block[1])
		return append(dst, bi*l.block[0]+rem/bw, bj*l.block[1]+rem%bw)
	default:
		panic("layout: unknown kind")
	}
}

// diagFirstRow returns the smallest row on normalized diagonal k. For
// AntiDiagonal2D k = i+j; for Diagonal2D k = (i-j) + (m-1). Both
// parameterizations give the same row range and length profile.
func (l *Layout) diagFirstRow(k int64) int64 { return maxI64(0, k-(l.dims[1]-1)) }

// diagOffset returns the file offset of the element in row i of
// normalized diagonal k.
func (l *Layout) diagOffset(k, i int64) int64 { return l.starts[k] + i - l.diagFirstRow(k) }

// diagStarts returns the prefix sums of the diagonal lengths of an
// n x m array: entry k is where normalized diagonal k begins, the last
// entry the total size.
func diagStarts(n, m int64) []int64 {
	starts := make([]int64, n+m)
	for k := int64(0); k < n+m-1; k++ {
		starts[k+1] = starts[k] + minI64(k, n-1) - maxI64(0, k-(m-1)) + 1
	}
	return starts
}

// blockStarts returns per-block start offsets, row-major over blocks.
func blockStarts(n, m, b1, b2 int64) []int64 {
	nb1, nb2 := ceilDiv(n, b1), ceilDiv(m, b2)
	starts := make([]int64, 0, nb1*nb2)
	var acc int64
	for bi := int64(0); bi < nb1; bi++ {
		bh := minI64(b1, n-bi*b1)
		for bj := int64(0); bj < nb2; bj++ {
			starts = append(starts, acc)
			acc += bh * minI64(b2, m-bj*b2)
		}
	}
	return starts
}

// lastLE returns the largest k with starts[k] <= off, for ascending
// starts with starts[0] <= off.
func lastLE(starts []int64, off int64) int64 {
	return int64(sort.Search(len(starts), func(k int) bool { return starts[k] > off })) - 1
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }
