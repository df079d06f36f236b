package layout

import (
	"fmt"
	"slices"
)

// Box is a half-open rectangular region [Lo[d], Hi[d]) of array
// coordinates — the shape of a data tile.
type Box struct {
	Lo, Hi []int64
}

// NewBox validates and returns a box.
func NewBox(lo, hi []int64) Box {
	if len(lo) != len(hi) {
		panic("layout: box rank mismatch")
	}
	for d := range lo {
		if hi[d] < lo[d] {
			panic(fmt.Sprintf("layout: box dimension %d reversed: [%d,%d)", d, lo[d], hi[d]))
		}
	}
	return Box{Lo: cloneI64(lo), Hi: cloneI64(hi)}
}

// Rank returns the box rank.
func (b Box) Rank() int { return len(b.Lo) }

// Size returns the number of elements in the box.
func (b Box) Size() int64 {
	n := int64(1)
	for d := range b.Lo {
		n *= b.Hi[d] - b.Lo[d]
	}
	return n
}

// Empty reports whether the box contains no elements.
func (b Box) Empty() bool { return b.Size() == 0 }

// Clip intersects the box with the array extents. A box already inside
// the extents is returned as-is (no copy): the tile engine's cached-GET
// path clips every request, and the common case — a well-formed tile —
// must not allocate. Callers treat boxes as immutable either way.
func (b Box) Clip(dims []int64) Box {
	inside := true
	for d := range b.Lo {
		if b.Lo[d] < 0 || b.Hi[d] > dims[d] || b.Hi[d] < b.Lo[d] {
			inside = false
			break
		}
	}
	if inside {
		return b
	}
	lo := make([]int64, len(b.Lo))
	hi := make([]int64, len(b.Hi))
	for d := range lo {
		lo[d] = maxI64(b.Lo[d], 0)
		hi[d] = minI64(b.Hi[d], dims[d])
		if hi[d] < lo[d] {
			hi[d] = lo[d]
		}
	}
	return Box{Lo: lo, Hi: hi}
}

// Overlaps reports whether the boxes share at least one element.
// Boxes of different rank never overlap; empty boxes overlap nothing.
func (b Box) Overlaps(o Box) bool {
	if b.Rank() != o.Rank() || b.Empty() || o.Empty() {
		return false
	}
	for d := range b.Lo {
		if b.Lo[d] >= o.Hi[d] || o.Lo[d] >= b.Hi[d] {
			return false
		}
	}
	return true
}

// Contains reports whether coordinates c lie inside the box.
func (b Box) Contains(c []int64) bool {
	for d := range c {
		if c[d] < b.Lo[d] || c[d] >= b.Hi[d] {
			return false
		}
	}
	return true
}

func (b Box) String() string { return fmt.Sprintf("[%v,%v)", b.Lo, b.Hi) }

// Run is a maximal contiguous file segment, in elements.
type Run struct {
	Off, Len int64
}

// Seg is one constant-stride piece of a box under a layout: Len
// consecutive file elements starting at offset Off, which sit at
// positions Idx, Idx+Stride, Idx+2·Stride, ... of the box's own
// row-major linearization. It tells a tile mover where a file run's
// elements go without mapping each one through Coord.
type Seg struct {
	Off, Len    int64
	Idx, Stride int64
}

// AppendSegments appends the (clipped) box's constant-stride segments
// to dst, sorted by file offset: together they cover every element of
// the box exactly once. It is the single per-kind walk of the package —
// Runs is its merge — so I/O accounting and element placement cannot
// disagree. A tile mover hands back the same dst on every call, so a
// steady stream of tile moves allocates no segment storage.
func (l *Layout) AppendSegments(dst []Seg, box Box) []Seg {
	box = box.Clip(l.dims)
	if box.Empty() {
		return dst
	}
	switch l.kind {
	case Permutation:
		return l.permSegments(dst, box)
	case Diagonal2D, AntiDiagonal2D:
		return l.diagSegments(dst, box)
	case Blocked2D:
		return l.blockSegments(dst, box)
	case General2D:
		return l.tableSegments(dst, box)
	default:
		panic("layout: unknown kind")
	}
}

// Runs enumerates the maximal contiguous file segments that together
// cover exactly the elements of box under the layout, sorted by file
// offset. The number of runs is the paper's central I/O metric: one
// I/O request per run (possibly split further by the per-call byte cap
// and by striping, which the ooc and pfs packages model).
func (l *Layout) Runs(box Box) []Run { return AppendRuns(nil, l.AppendSegments(nil, box)) }

// AppendRuns coalesces file-adjacent segments (sorted by offset, as
// AppendSegments returns them) into maximal runs appended to dst.
func AppendRuns(dst []Run, segs []Seg) []Run {
	base := len(dst)
	dst = slices.Grow(dst, len(segs)) // never more runs than segments
	for _, s := range segs {
		if n := len(dst); n > base && dst[n-1].Off+dst[n-1].Len == s.Off {
			dst[n-1].Len += s.Len
		} else {
			dst = append(dst, Run{Off: s.Off, Len: s.Len})
		}
	}
	return dst
}

// RunCount returns len(Runs(box)) without retaining the slice.
func (l *Layout) RunCount(box Box) int64 { return int64(len(l.Runs(box))) }

// permSegments yields one segment per "row" of the box along the
// fastest dimension of the permutation order. The slow dimensions
// advance odometer-style in permutation order, so segments come out
// sorted by offset, and each step moves the file offset and the box
// index by that dimension's stride instead of recomputing them.
func (l *Layout) permSegments(segs []Seg, box Box) []Seg {
	rank := len(l.dims)
	var stack [16]int64 // rank <= 4 walks without allocating
	scratch := stack[:]
	if 4*rank > len(stack) {
		scratch = make([]int64, 4*rank)
	}
	ext, fstr, tstr, pos := scratch[:rank], scratch[rank:2*rank], scratch[2*rank:3*rank], scratch[3*rank:]
	t := int64(1)
	for d := rank - 1; d >= 0; d-- {
		ext[d] = box.Hi[d] - box.Lo[d]
		tstr[d] = t // box-local row-major stride
		t *= ext[d]
	}
	f, off := int64(1), int64(0)
	for k := rank - 1; k >= 0; k-- {
		d := l.perm[k]
		fstr[d] = f // file stride under the permutation
		f *= l.dims[d]
		off += box.Lo[d] * fstr[d]
	}
	fast, slow := l.perm[rank-1], l.perm[:rank-1]
	segs = slices.Grow(segs, int(t/ext[fast]))
	var idx int64
	for {
		segs = append(segs, Seg{Off: off, Len: ext[fast], Idx: idx, Stride: tstr[fast]})
		k := len(slow) - 1
		for ; k >= 0; k-- {
			d := slow[k]
			pos[d]++
			off += fstr[d]
			idx += tstr[d]
			if pos[d] < ext[d] {
				break
			}
			off -= pos[d] * fstr[d]
			idx -= pos[d] * tstr[d]
			pos[d] = 0
		}
		if k < 0 {
			return segs
		}
	}
}

// diagSegments yields one segment per (anti-)diagonal intersecting the
// box, in ascending normalized-diagonal order, which is offset order.
// Along a diagonal i-j=d both coordinates rise together (index step
// cols+1); along an anti-diagonal i+j=s the column falls (cols-1).
func (l *Layout) diagSegments(segs []Seg, box Box) []Seg {
	r0, r1 := box.Lo[0], box.Hi[0]
	c0, c1 := box.Lo[1], box.Hi[1]
	cols, m := c1-c0, l.dims[1]
	diag := l.kind == Diagonal2D
	kLo, kHi, stride := r0+c0, (r1-1)+(c1-1), cols-1
	if diag {
		kLo, kHi, stride = r0-(c1-1)+(m-1), (r1-1)-c0+(m-1), cols+1
	}
	segs = slices.Grow(segs, int(kHi-kLo+1))
	for k := kLo; k <= kHi; k++ {
		var iLo, iHi, j int64
		if diag {
			d := k - (m - 1)
			iLo, iHi = maxI64(r0, d+c0), minI64(r1-1, d+c1-1)
			j = iLo - d
		} else {
			iLo, iHi = maxI64(r0, k-(c1-1)), minI64(r1-1, k-c0)
			j = k - iLo
		}
		segs = append(segs, Seg{Off: l.diagOffset(k, iLo), Len: iHi - iLo + 1, Idx: (iLo-r0)*cols + j - c0, Stride: stride})
	}
	return segs
}

// blockSegments yields row segments within each block the box overlaps.
// Blocks are stored row-major and rows ascend within a block, so the
// walk is already in offset order.
func (l *Layout) blockSegments(segs []Seg, box Box) []Seg {
	b1, b2 := l.block[0], l.block[1]
	nb2 := ceilDiv(l.dims[1], b2)
	cols := box.Hi[1] - box.Lo[1]
	segs = slices.Grow(segs, int((box.Hi[0]-box.Lo[0])*((box.Hi[1]-1)/b2-box.Lo[1]/b2+1)))
	for bi := box.Lo[0] / b1; bi*b1 < box.Hi[0]; bi++ {
		rLo := maxI64(box.Lo[0], bi*b1)
		rHi := minI64(box.Hi[0], (bi+1)*b1)
		for bj := box.Lo[1] / b2; bj*b2 < box.Hi[1]; bj++ {
			cLo := maxI64(box.Lo[1], bj*b2)
			cHi := minI64(box.Hi[1], (bj+1)*b2)
			bw := minI64(b2, l.dims[1]-bj*b2) // clipped block width
			for i := rLo; i < rHi; i++ {
				segs = append(segs, Seg{
					Off: l.starts[bi*nb2+bj] + (i-bi*b1)*bw + cLo - bj*b2, Len: cHi - cLo,
					Idx: (i-box.Lo[0])*cols + cLo - box.Lo[1], Stride: 1,
				})
			}
		}
	}
	return segs
}

// tableSegments enumerates every element (table-backed layouts only)
// and merges neighbours that are consecutive both in the file and in
// the box.
func (l *Layout) tableSegments(segs []Seg, box Box) []Seg {
	table, inv := l.tables()
	m, cols := l.dims[1], box.Hi[1]-box.Lo[1]
	offs := make([]int64, 0, box.Size())
	for i := box.Lo[0]; i < box.Hi[0]; i++ {
		for j := box.Lo[1]; j < box.Hi[1]; j++ {
			offs = append(offs, table[i*m+j])
		}
	}
	slices.Sort(offs)
	base := len(segs)
	for _, o := range offs {
		idx := (inv[o]/m-box.Lo[0])*cols + inv[o]%m - box.Lo[1]
		if n := len(segs); n > base && segs[n-1].Off+segs[n-1].Len == o && segs[n-1].Idx+segs[n-1].Len == idx {
			segs[n-1].Len++
		} else {
			segs = append(segs, Seg{Off: o, Len: 1, Idx: idx, Stride: 1})
		}
	}
	return segs
}
