package server

import (
	"math/rand"
	"reflect"
	"testing"

	"outcore/internal/layout"
)

// linearGens is the generation table as a plain scan over every
// recorded box, keyed by the box's rendering: the oracle genIndex must
// match answer for answer, order included.
type linearGens struct {
	entries []boxGen
	idx     map[string]int
}

func (l *linearGens) setGen(box layout.Box, g uint64) {
	key := box.String()
	if i, ok := l.idx[key]; ok {
		l.entries[i].gen = g
		return
	}
	if l.idx == nil {
		l.idx = map[string]int{}
	}
	l.idx[key] = len(l.entries)
	l.entries = append(l.entries, boxGen{box: box, gen: g})
}

func (l *linearGens) newerOverlaps(box layout.Box, g uint64) []layout.Box {
	var out []layout.Box
	for i := range l.entries {
		if l.entries[i].gen > g && l.entries[i].box.Overlaps(box) {
			out = append(out, l.entries[i].box)
		}
	}
	return out
}

func (l *linearGens) overlapGen(box layout.Box) uint64 {
	var top uint64
	for i := range l.entries {
		if l.entries[i].gen > top && l.entries[i].box.Overlaps(box) {
			top = l.entries[i].gen
		}
	}
	return top
}

// genPair drives the index and the oracle with the same operations and
// reports the first disagreement.
type genPair struct {
	t      testing.TB
	idx    genIndex
	oracle linearGens
}

func (p *genPair) set(box layout.Box, g uint64) {
	p.idx.setGen(box, g)
	p.oracle.setGen(box, g)
}

func (p *genPair) check(q layout.Box, g uint64) {
	p.t.Helper()
	if got, want := p.idx.overlapGen(q), p.oracle.overlapGen(q); got != want {
		p.t.Fatalf("overlapGen(%v) = %d, linear scan %d (%d boxes recorded)", q, got, want, len(p.oracle.entries))
	}
	if got, want := p.idx.newerOverlaps(q, g), p.oracle.newerOverlaps(q, g); !reflect.DeepEqual(got, want) {
		p.t.Fatalf("newerOverlaps(%v, %d) = %v, linear scan %v", q, g, got, want)
	}
}

// randGenBox draws a box of the given rank in one of the shapes the
// table sees: an aligned routing tile, a sub-box of one, an unaligned
// box straddling tiles, or a wide box (a whole-array write).
func randGenBox(rng *rand.Rand, rank int) layout.Box {
	const tile = 8
	lo, hi := make([]int64, rank), make([]int64, rank)
	shape := rng.Intn(4)
	for d := range lo {
		switch shape {
		case 0: // aligned tile
			lo[d] = tile * rng.Int63n(8)
			hi[d] = lo[d] + tile
		case 1: // sub-box of a tile
			base := tile * rng.Int63n(8)
			lo[d] = base + rng.Int63n(tile)
			hi[d] = lo[d] + 1 + rng.Int63n(base+tile-lo[d])
		case 2: // unaligned, may straddle tiles
			lo[d] = rng.Int63n(64)
			hi[d] = lo[d] + 1 + rng.Int63n(20)
		default: // wide
			lo[d] = rng.Int63n(4)
			hi[d] = lo[d] + 1 + rng.Int63n(200)
		}
	}
	return layout.Box{Lo: lo, Hi: hi}
}

// TestGenIndexMatchesLinearScan: over seeded random tables — ranks 1–3,
// mixed box shapes, a box of another rank now and then, and boxes
// re-recorded under new generations — every overlapGen and
// newerOverlaps answer equals the linear scan's, order included.
func TestGenIndexMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rank := 1 + rng.Intn(3)
		p := &genPair{t: t}
		var recorded []layout.Box
		for op := 0; op < 400; op++ {
			r := rank
			if rng.Intn(20) == 0 {
				r = 1 + rng.Intn(3)
			}
			switch k := rng.Intn(10); {
			case k < 4:
				b := randGenBox(rng, r)
				recorded = append(recorded, b)
				p.set(b, uint64(rng.Intn(50)))
			case k < 6 && len(recorded) > 0:
				// Re-record a box already in the table, as a retried write
				// or a newer write to the same tile does.
				b := recorded[rng.Intn(len(recorded))]
				p.set(layout.Box{Lo: append([]int64(nil), b.Lo...), Hi: append([]int64(nil), b.Hi...)}, uint64(rng.Intn(50)))
			default:
				p.check(randGenBox(rng, r), uint64(rng.Intn(50)))
			}
		}
		if len(p.oracle.entries) == 0 {
			t.Fatalf("seed %d recorded nothing", seed)
		}
	}
}

// TestGenIndexLookupAllocs: a GET or HEAD's generation lookup allocates
// nothing, however many boxes the table holds.
func TestGenIndexLookupAllocs(t *testing.T) {
	var x genIndex
	for i := int64(0); i < 32; i++ {
		for j := int64(0); j < 32; j++ {
			x.setGen(layout.NewBox([]int64{32 * i, 32 * j}, []int64{32*i + 32, 32*j + 32}), uint64(i*32+j+1))
		}
	}
	q := layout.NewBox([]int64{320, 64}, []int64{352, 96})
	if got := x.overlapGen(q); got != 10*32+2+1 {
		t.Fatalf("overlapGen(%v) = %d, want %d", q, got, 10*32+2+1)
	}
	if n := testing.AllocsPerRun(1000, func() { x.overlapGen(q) }); n != 0 {
		t.Errorf("overlapGen makes %.1f allocations, want 0", n)
	}
}

// FuzzGenIndex drives the index and the linear-scan oracle with an
// operation stream decoded from the input: records (fresh boxes and
// re-records of earlier ones) and both lookups, over ranks 1–3 with
// boxes scaled from unit cells up to wide ones and empty boxes
// included. Any disagreement is a failure.
func FuzzGenIndex(f *testing.F) {
	f.Add([]byte{0, 1, 0, 8, 0, 8, 2, 1, 0, 8, 0, 8})
	f.Add([]byte{0x10, 1, 3, 5, 2, 9, 3, 1, 0, 1, 0, 40, 7, 0x20, 0, 1, 3, 1, 2, 0, 0, 3})
	f.Add([]byte{0x70, 2, 0, 1, 0, 1, 0, 1, 0x01, 0, 4, 2, 0, 0x72, 2, 1, 1, 1, 1, 1, 1, 0x03, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := &genPair{t: t}
		var recorded []layout.Box
		// A bounded op count keeps every input fast to run and minimize.
		for ops := 0; ops < 96 && len(data) >= 2; ops++ {
			op, rank := data[0], int(data[1]%3)+1
			data = data[2:]
			if op&3 == 1 && len(recorded) > 0 {
				// Re-record an earlier box under a new generation.
				if len(data) < 1 {
					return
				}
				p.set(recorded[int(data[0])%len(recorded)], uint64(op>>2))
				data = data[1:]
				continue
			}
			if len(data) < 2*rank+1 {
				return
			}
			scale := uint(op>>4) & 7
			lo, hi := make([]int64, rank), make([]int64, rank)
			for d := range lo {
				lo[d] = int64(data[2*d]) << scale
				hi[d] = lo[d] + int64(data[2*d+1])<<scale
			}
			b, g := layout.Box{Lo: lo, Hi: hi}, uint64(data[2*rank])
			data = data[2*rank+1:]
			switch op & 3 {
			case 0, 1:
				recorded = append(recorded, b)
				p.set(b, g)
			default:
				p.check(b, g)
			}
		}
	})
}
