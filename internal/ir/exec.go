package ir

import "fmt"

// Store holds dense in-memory values for a set of arrays, used as the
// in-core reference executor against which all out-of-core schedules
// are verified. Logical coordinates map to storage by row-major
// linearization; this is an implementation detail of the reference
// executor, independent of any file layout choice.
type Store struct {
	data map[*Array][]float64
	in   []float64 // ApplyStmt's input scratch
}

// NewStore allocates zeroed storage for the given arrays.
func NewStore(arrays ...*Array) *Store {
	s := &Store{data: make(map[*Array][]float64, len(arrays))}
	for _, a := range arrays {
		s.data[a] = make([]float64, a.Len())
	}
	return s
}

// Get returns the value at coordinates c.
func (s *Store) Get(a *Array, c []int64) float64 {
	return s.data[a][s.offset(a, c)]
}

// Set writes v at coordinates c.
func (s *Store) Set(a *Array, c []int64, v float64) {
	s.data[a][s.offset(a, c)] = v
}

// Data exposes the raw backing slice of a (row-major); used to seed
// inputs and to compare results.
func (s *Store) Data(a *Array) []float64 { return s.data[a] }

// Clone returns a deep copy of the store.
func (s *Store) Clone() *Store {
	c := &Store{data: make(map[*Array][]float64, len(s.data))}
	for a, d := range s.data {
		nd := make([]float64, len(d))
		copy(nd, d)
		c.data[a] = nd
	}
	return c
}

func (s *Store) offset(a *Array, c []int64) int64 {
	if len(c) != a.Rank() {
		panic(fmt.Sprintf("ir: store access to %s with %d coords, rank %d", a.Name, len(c), a.Rank()))
	}
	var off int64
	for d, x := range c {
		if x < 0 || x >= a.Dims[d] {
			panic(fmt.Sprintf("ir: store access to %s out of bounds: coord %v, dims %v", a.Name, c, a.Dims))
		}
		off = off*a.Dims[d] + x
	}
	return off
}

// Execute runs the nest sequentially over the store: the in-core
// reference semantics.
func (n *Nest) Execute(s *Store) {
	iv := make([]int64, n.Depth())
	n.execLevel(s, iv, 0)
}

func (n *Nest) execLevel(s *Store, iv []int64, level int) {
	if level == n.Depth() {
		for _, st := range n.Body {
			s.ApplyStmt(st, iv)
		}
		return
	}
	l := n.Loops[level]
	for v := l.Lo; v <= l.Hi; v++ {
		iv[level] = v
		n.execLevel(s, iv, level+1)
	}
}

// ApplyStmt evaluates one statement at iteration vector iv against the
// store. Exported so tiled executors (internal/codegen) can share the
// exact same statement semantics as the reference interpreter.
func (s *Store) ApplyStmt(st *Stmt, iv []int64) {
	if !st.Guarded(iv) {
		return
	}
	s.in = s.in[:0]
	for _, r := range st.In {
		s.in = append(s.in, s.Get(r.Array, r.Element(iv)))
	}
	s.Set(st.Out.Array, st.Out.Element(iv), st.F(s.in, iv))
}

// Execute runs every nest of the program in order.
func (p *Program) Execute(s *Store) {
	for _, n := range p.Nests {
		n.Execute(s)
	}
}

// MaxAbsDiff returns the largest elementwise |a-b| between the same
// array in two stores, for result comparison in tests.
func MaxAbsDiff(a, b *Store, arr *Array) float64 {
	da, db := a.Data(arr), b.Data(arr)
	var m float64
	for i := range da {
		d := da[i] - db[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m
}
