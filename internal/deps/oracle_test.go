package deps

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"outcore/internal/ir"
	"outcore/internal/matrix"
)

// randomNest draws a small nest for the brute-force oracle: depth 2-4,
// trips 1-6, one or two statements over one or two arrays of rank 1-3,
// subscripts with coefficients in {-2..2} and offsets in {-2..2}. Array
// extents are irrelevant to the analysis and left at 1.
func randomNest(rng *rand.Rand) *ir.Nest {
	k := 2 + rng.Intn(3)
	trips := make([]int64, k)
	for i := range trips {
		trips[i] = 1 + int64(rng.Intn(6))
	}
	var arrays []*ir.Array
	for a := 0; a < 1+rng.Intn(2); a++ {
		dims := make([]int64, 1+rng.Intn(3))
		for i := range dims {
			dims[i] = 1
		}
		arrays = append(arrays, ir.NewArray(fmt.Sprintf("A%d", a), dims...))
	}
	ref := func() ir.Ref {
		a := arrays[rng.Intn(len(arrays))]
		rows := make([][]int64, a.Rank())
		off := make([]int64, a.Rank())
		for d := range rows {
			rows[d] = make([]int64, k)
			for j := range rows[d] {
				rows[d][j] = int64(rng.Intn(5) - 2)
			}
			off[d] = int64(rng.Intn(5) - 2)
		}
		return ir.RefAffine(a, rows, off)
	}
	n := &ir.Nest{Loops: ir.Rect(trips...)}
	for s := 0; s < 1+rng.Intn(2); s++ {
		var in []ir.Ref
		for r := 0; r < 1+rng.Intn(2); r++ {
			in = append(in, ref())
		}
		n.Body = append(n.Body, ir.Assign(ref(), in, "", ir.Sum()))
	}
	return n
}

// realDiffs returns every difference I′ − I ≠ 0 of iterations at which
// r1 at I and r2 at I′ touch one element, each once.
func realDiffs(n *ir.Nest, r1, r2 ir.Ref) [][]int64 {
	var iters [][]int64
	iv := make([]int64, n.Depth())
	var walk func(l int)
	walk = func(l int) {
		if l == n.Depth() {
			iters = append(iters, slices.Clone(iv))
			return
		}
		for v := n.Loops[l].Lo; v <= n.Loops[l].Hi; v++ {
			iv[l] = v
			walk(l + 1)
		}
	}
	walk(0)
	// Subscripts and differences stay within ±64 here: pack them in
	// base 256 to key the maps.
	pack := func(v []int64) int64 {
		var key int64
		for _, x := range v {
			key = key<<8 | (x + 128)
		}
		return key
	}
	at := map[int64][]int{}
	for i, I := range iters {
		key := pack(r2.Element(I))
		at[key] = append(at[key], i)
	}
	seen := map[int64]bool{}
	var out [][]int64
	d := make([]int64, n.Depth())
	for i, I := range iters {
		for _, j := range at[pack(r1.Element(I))] {
			for l := range d {
				d[l] = iters[j][l] - I[l]
			}
			if key := pack(d); i != j && !seen[key] {
				seen[key] = true
				out = append(out, slices.Clone(d))
			}
		}
	}
	return out
}

func cellKey(dirs []Dir) string { return fmt.Sprint(dirs) }

func dirsOfDiff(d []int64) []Dir {
	out := make([]Dir, len(d))
	for i, x := range d {
		out[i] = dirOf(x)
	}
	return out
}

// TestBruteForceOracle checks the dependence cells against every
// iteration pair of random small nests. Per reference pair, every real
// cell of I′ − I must be reported (soundness), a pinned distance must be
// the only real difference in its cell, and for uniformly generated
// pairs (L1 = L2) the reported cells must be exactly the real ones. The
// cells the rational check keeps without an integer pair are counted and
// logged. Analyze and Transformed, under a random unimodular T, must
// then cover every real pair in its oriented form.
func TestBruteForceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pairs, uniformPairs, realCells, extra, extraUniform int
	for it := 0; it < 200; it++ {
		n := randomNest(rng)
		k := n.Depth()
		var refs []ir.Ref
		var writes []bool
		for _, s := range n.Body {
			refs, writes = append(refs, s.Out), append(writes, true)
			for _, r := range s.In {
				refs, writes = append(refs, r), append(writes, false)
			}
		}
		tm := randomUnimodular(rng, k)
		analyzed, transformed := indexDeps(Analyze(n)), indexDeps(Transformed(n, tm))
		for a := range refs {
			for b := a; b < len(refs); b++ {
				r1, r2 := refs[a], refs[b]
				if r1.Array != r2.Array || !writes[a] && !writes[b] {
					continue
				}
				pairs++
				uniform := r1.L.Equal(r2.L)
				if uniform {
					uniformPairs++
				}
				reported := map[string][]int64{}
				sol := newSolver(2*k, k, n.Loops)
				for l := 0; l < k; l++ {
					sol.form(l)[l], sol.form(l)[k+l] = -1, 1
				}
				sol.cells(r1, r2, func(dirs []Dir, dist []int64) {
					reported[cellKey(dirs)] = dist
				})
				real := map[string]bool{}
				for _, d := range realDiffs(n, r1, r2) {
					key := cellKey(dirsOfDiff(d))
					real[key] = true
					dist, ok := reported[key]
					if !ok {
						t.Fatalf("nest %d %v: pair %s/%s: real difference %v not reported (cells %v)", it, n, r1, r2, d, reported)
					}
					if dist != nil && !slices.Equal(dist, d) {
						t.Fatalf("nest %d %v: pair %s/%s: real difference %v in a cell pinned to %v", it, n, r1, r2, d, dist)
					}
					if !analyzed.covered(r1.Array, d, writes[a], writes[b]) {
						t.Fatalf("nest %d %v: pair %s/%s: difference %v not covered by Analyze %v", it, n, r1, r2, d, analyzed)
					}
					if e := tm.MulVec(d); !transformed.covered(r1.Array, e, writes[a], writes[b]) {
						t.Fatalf("nest %d %v: T=%v pair %s/%s: difference %v not covered by Transformed %v", it, n, tm, r1, r2, e, transformed)
					}
				}
				realCells += len(real)
				for key := range reported {
					if real[key] {
						continue
					}
					extra++
					if uniform {
						extraUniform++
						t.Errorf("nest %d %v: uniform pair %s/%s: cell %s has no real pair", it, n, r1, r2, key)
					}
				}
			}
		}
	}
	t.Logf("%d reference pairs (%d uniformly generated): %d real cells, %d reported cells without an integer pair (%d on uniform pairs)",
		pairs, uniformPairs, realCells, extra, extraUniform)
}

// depSet indexes dependences by depKey.
type depSet map[*ir.Array]map[int64]bool

func indexDeps(ds []Dependence) depSet {
	set := depSet{}
	for _, d := range ds {
		if set[d.Array] == nil {
			set[d.Array] = map[int64]bool{}
		}
		v := make([]int64, len(d.Dirs))
		for i, x := range d.Dirs {
			v[i] = x.sign()
		}
		if d.Uniform {
			v = d.Distance
		}
		set[d.Array][depKey(d.Kind, d.Uniform, v)] = true
	}
	return set
}

// depKey packs a kind, whether v is a distance or a cell's signs, and v
// (components within ±64) into one word.
func depKey(kind string, uniform bool, v []int64) int64 {
	key := int64(slices.Index([]string{"flow", "anti", "output"}, kind))
	if uniform {
		key |= 4
	}
	for _, x := range v {
		key = key<<8 | (x + 128)
	}
	return key
}

// covered reports whether the set holds the dependence of an instance
// pair with difference d (the first reference's instance at I, d =
// I′ − I), once oriented lexicographically positive.
func (set depSet) covered(arr *ir.Array, d []int64, w1, w2 bool) bool {
	first := slices.IndexFunc(d, func(x int64) bool { return x != 0 })
	if first < 0 {
		return true // loop-independent
	}
	d = slices.Clone(d)
	if d[first] < 0 {
		for i := range d {
			d[i] = -d[i]
		}
		w1, w2 = w2, w1
	}
	kind := kind(w1, w2)
	if set[arr][depKey(kind, true, d)] {
		return true
	}
	for i, x := range d {
		d[i] = dirOf(x).sign()
	}
	return set[arr][depKey(kind, false, d)]
}

// randomUnimodular multiplies a few random elementary matrices: row
// swaps, negations and additions of ±1 times another row.
func randomUnimodular(rng *rand.Rand, k int) *matrix.Int {
	t := matrix.Identity(k)
	for step := 0; step < 4; step++ {
		e := matrix.Identity(k)
		i, j := rng.Intn(k), rng.Intn(k)
		switch rng.Intn(3) {
		case 0:
			e.Set(i, i, 0)
			e.Set(j, j, 0)
			e.Set(i, j, 1)
			e.Set(j, i, 1)
		case 1:
			e.Set(i, i, -1)
		default:
			if i != j {
				e.Set(i, j, int64(2*rng.Intn(2)-1))
			}
		}
		t = e.Mul(t)
	}
	return t
}
