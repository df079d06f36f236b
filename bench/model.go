package main

import "math"

// fill is the arrays' initial contents: smooth (so the tile codec has
// something to compress) and exact in float64 (so every comparison is
// bitwise).
func fill(i, j int64) float64 { return 1000 + 0.5*float64(i) + 0.25*float64(j) }

// model is the client-side oracle: a plain row-major copy of what the
// served array must hold after every acknowledged write.
type model struct {
	n    int64
	data []float64
}

func newModel(n int64) *model {
	m := &model{n: n, data: make([]float64, n*n)}
	for i := int64(0); i < n; i++ {
		for j := int64(0); j < n; j++ {
			m.data[i*n+j] = fill(i, j)
		}
	}
	return m
}

// putPayload renders the op's write payload (box-local row-major): the
// initial contents shifted by the op id, so every write is distinct.
func putPayload(o op, dst []float64) {
	w := o.c1 - o.c0
	for i := o.r0; i < o.r1; i++ {
		for j := o.c0; j < o.c1; j++ {
			dst[(i-o.r0)*w+(j-o.c0)] = fill(i, j) + float64(o.id+1)
		}
	}
}

// apply records an acknowledged write.
func (m *model) apply(r0, c0, r1, c1 int64, src []float64) {
	w := c1 - c0
	for i := r0; i < r1; i++ {
		copy(m.data[i*m.n+c0:i*m.n+c1], src[(i-r0)*w:(i-r0+1)*w])
	}
}

// check reports whether data (box-local row-major) is bit-identical to
// the model's box.
func (m *model) check(r0, c0, r1, c1 int64, data []float64) bool {
	w := c1 - c0
	if int64(len(data)) != (r1-r0)*w {
		return false
	}
	for i := r0; i < r1; i++ {
		want := m.data[i*m.n+c0 : i*m.n+c1]
		got := data[(i-r0)*w : (i-r0+1)*w]
		for k := range want {
			if math.Float64bits(want[k]) != math.Float64bits(got[k]) {
				return false
			}
		}
	}
	return true
}
