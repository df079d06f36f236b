package ooc_test

// The model-differential conformance suite: seeded operation streams
// are replayed, in lockstep, against a sequential model and the
// engine planes {engine, engine+WAL} over
// identical data, and every observable — tile bytes on reads, durable
// bytes after power cuts, final array contents, stats invariants —
// must agree byte for byte.
//
// The faultfs injector runs with a zero (fault-free) profile: no
// errors are injected, but its undo-log crash semantics still apply,
// so Crash() reverts exactly the writes not yet acknowledged by a
// backend Sync. Since syncs only happen at Flush (and Close), the
// durable state after every crash must equal the model's contents at
// the last acknowledged flush — for every plane identically.

import (
	"fmt"
	"math/rand"
	"testing"

	"outcore/internal/faultfs"
	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/ooc"
)

const (
	confEdge      = 64 // array is confEdge x confEdge
	confTile      = 8  // aligned tile edge
	confCache     = 8  // cache budget (tiles)
	confOps       = 150
	confSeeds     = 20
	confElemCount = confEdge * confEdge
)

// confWALCapWords sizes the WAL planes' log so the whole op stream fits
// without an inline full-log checkpoint: an implicit mid-stream
// checkpoint would sync stripes carrying unacknowledged eviction
// write-throughs and break crash-equality with the non-WAL planes.
// Explicit checkpoints are instead injected right after acknowledged
// flushes, where stripe contents equal the acked model.
const confWALCapWords = int64(1) << 15

// confPlane is one plane under test plus its private injector/disk.
type confPlane struct {
	name string
	wal  bool
	inj  *faultfs.Injector
	disk *ooc.Disk
	arr  *ooc.Array
	eng  *ooc.Engine

	acquires int64 // Acquire calls since the last (re)open
	stores   int64 // Store calls since the last (re)open
}

// newConfPlane builds one plane.
func newConfPlane(t *testing.T, seed int64, wal bool) *confPlane {
	t.Helper()
	name := "engine"
	if wal {
		name += "+wal"
	}
	p := &confPlane{
		name: name,
		wal:  wal,
		inj:  faultfs.New(seed, faultfs.Profile{}),
	}
	p.open(t)
	return p
}

// open builds (or, after Crash, rebuilds over the surviving stores)
// the plane's disk, array and engine. A WAL plane replays its
// surviving log tail once the engine is up, so acknowledged writes
// reappear before the first post-reopen access.
func (p *confPlane) open(t *testing.T) {
	t.Helper()
	p.disk = ooc.NewDisk(0).WrapBackend(p.inj.Wrap)
	if p.wal {
		p.disk.EnableWAL(ooc.WALOptions{CapWords: confWALCapWords})
	}
	arr, err := p.disk.CreateArray(ir.NewArray("A", confEdge, confEdge), layout.RowMajor(confEdge, confEdge))
	if err != nil {
		t.Fatalf("%s: create: %v", p.name, err)
	}
	p.arr = arr
	p.eng = ooc.NewEngine(p.disk, ooc.EngineOptions{CacheTiles: confCache})
	if p.wal {
		if _, err := p.disk.ReplayWAL(); err != nil {
			t.Fatalf("%s: WAL replay: %v", p.name, err)
		}
	}
	p.acquires, p.stores = 0, 0
}

// confModel is the sequential reference: the array's expected current
// and last-acknowledged-flush contents.
type confModel struct {
	volatileA []float64
	acked     []float64
}

// want returns the model's contents of box in box-local row-major
// order.
func (m *confModel) want(box layout.Box) []float64 {
	out := make([]float64, 0, box.Size())
	for r := box.Lo[0]; r < box.Hi[0]; r++ {
		for c := box.Lo[1]; c < box.Hi[1]; c++ {
			out = append(out, m.volatileA[r*confEdge+c])
		}
	}
	return out
}

// fill records a whole-box write of v.
func (m *confModel) fill(box layout.Box, v float64) {
	for r := box.Lo[0]; r < box.Hi[0]; r++ {
		for c := box.Lo[1]; c < box.Hi[1]; c++ {
			m.volatileA[r*confEdge+c] = v
		}
	}
}

// alignedTile returns tile (tr, tc) of the aligned grid.
func alignedTile(tr, tc int64) layout.Box {
	return layout.NewBox(
		[]int64{tr * confTile, tc * confTile},
		[]int64{(tr + 1) * confTile, (tc + 1) * confTile},
	)
}

// readDurable reads the plane's full durable array image.
func (p *confPlane) readDurable(t *testing.T) []float64 {
	t.Helper()
	buf := make([]float64, confElemCount)
	if err := p.inj.ReadDurable("A", buf, 0); err != nil {
		t.Fatalf("%s: ReadDurable: %v", p.name, err)
	}
	return buf
}

func equalSlices(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestConformance replays seeded op streams against the engine and
// asserts observable equivalence with the sequential model. CI runs it
// under -race.
func TestConformance(t *testing.T) {
	for seed := int64(1); seed <= confSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runConformanceSeed(t, seed, false)
		})
	}
}

// TestConformanceWAL replays the same streams with a WAL-backed plane
// in lockstep with a plain synchronous reference: same byte-equal reads
// and final contents, and after every power cut the replayed WAL plane
// must recover exactly the acked model the synchronous reference kept
// durable.
func TestConformanceWAL(t *testing.T) {
	for seed := int64(1); seed <= confSeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runConformanceSeed(t, seed, true)
		})
	}
}

func runConformanceSeed(t *testing.T, seed int64, wal bool) {
	planes := []*confPlane{newConfPlane(t, seed, false)} // synchronous reference
	if wal {
		planes = append(planes, newConfPlane(t, seed, true))
	}
	model := &confModel{
		volatileA: make([]float64, confElemCount),
		acked:     make([]float64, confElemCount),
	}
	rng := rand.New(rand.NewSource(seed))
	nextVal := float64(0)
	flushes := 0
	tilesPerEdge := int64(confEdge / confTile)

	get := func(box layout.Box) {
		want := model.want(box)
		for _, p := range planes {
			h, err := p.eng.Acquire(p.arr, box)
			if err != nil {
				t.Fatalf("%s: acquire %v: %v", p.name, box, err)
			}
			p.acquires++
			if got := h.Tile().Data(); !equalSlices(got, want) {
				t.Fatalf("%s: read %v diverged from the model", p.name, box)
			}
			p.eng.Release(h, false)
		}
	}

	for op := 0; op < confOps; op++ {
		switch u := rng.Float64(); {
		case u < 0.40: // aligned whole-tile write of a fresh value
			box := alignedTile(rng.Int63n(tilesPerEdge), rng.Int63n(tilesPerEdge))
			nextVal++
			// Every other write is a blind Store instead of a
			// read-modify-write (alternating by value, so the seeded op
			// stream is unchanged): no later read, crash image or final
			// content may be able to tell which path wrote a tile.
			blind := int64(nextVal)%2 == 0
			fill := make([]float64, box.Size())
			for i := range fill {
				fill[i] = nextVal
			}
			for _, p := range planes {
				if blind {
					if err := p.eng.Store(ooc.TileReq{Arr: p.arr, Box: box}, fill); err != nil {
						t.Fatalf("%s: store %v: %v", p.name, box, err)
					}
					p.stores++
					continue
				}
				h, err := p.eng.Acquire(p.arr, box)
				if err != nil {
					t.Fatalf("%s: acquire %v: %v", p.name, box, err)
				}
				p.acquires++
				copy(h.Tile().Data(), fill)
				p.eng.Release(h, true)
			}
			model.fill(box, nextVal)

		case u < 0.75: // aligned read
			get(alignedTile(rng.Int63n(tilesPerEdge), rng.Int63n(tilesPerEdge)))

		case u < 0.90: // unaligned read straddling tile borders
			lo := []int64{rng.Int63n(confEdge), rng.Int63n(confEdge)}
			hi := []int64{lo[0] + 1 + rng.Int63n(12), lo[1] + 1 + rng.Int63n(12)}
			get(layout.NewBox(lo, hi).Clip([]int64{confEdge, confEdge}))

		case u < 0.97: // flush: fault-free, so it must acknowledge
			flushes++
			for _, p := range planes {
				if err := p.eng.Flush(); err != nil {
					t.Fatalf("%s: flush: %v", p.name, err)
				}
				// Compact the log at a safe point: immediately after an
				// acknowledged flush the stripes hold exactly the acked
				// image, so syncing them for truncation keeps the durable
				// state equal to the synchronous planes'.
				if p.wal && flushes%3 == 0 {
					if err := p.disk.Checkpoint(); err != nil {
						t.Fatalf("%s: checkpoint: %v", p.name, err)
					}
				}
			}
			copy(model.acked, model.volatileA)

		default: // power cut: durable state must be the last acked flush
			var ref []float64
			for _, p := range planes {
				p.eng.Abandon()
				p.inj.Crash()
				if p.wal {
					// A WAL plane's stripes may lag behind the ack; its
					// durable contract is stripes + replayed log tail, so
					// reopen (which replays) before checking.
					p.open(t)
				}
				got := p.readDurable(t)
				if !equalSlices(got, model.acked) {
					t.Fatalf("%s: post-crash durable state diverged from the acked model", p.name)
				}
				if ref == nil {
					ref = got
				} else if !equalSlices(got, ref) {
					t.Fatalf("%s: post-crash durable state diverged across planes", p.name)
				}
				if !p.wal {
					p.open(t)
				}
			}
			copy(model.volatileA, model.acked)
		}
	}

	// Epilogue: flush everything, close cleanly, and require
	// byte-identical final array contents across all planes.
	for _, p := range planes {
		if err := p.eng.Flush(); err != nil {
			t.Fatalf("%s: epilogue flush: %v", p.name, err)
		}
	}
	copy(model.acked, model.volatileA)

	// Stats invariants before Close: every plane saw the same acquire
	// stream since its last reopen, hits+misses accounts for all of it
	// (a store is neither), and evictions never exceed the entries that
	// misses and stores created.
	for _, p := range planes {
		st := p.eng.Stats()
		if st.Acquires() != p.acquires {
			t.Errorf("%s: stats acquires = %d, issued %d", p.name, st.Acquires(), p.acquires)
		}
		if st.Evictions > st.Misses+p.stores {
			t.Errorf("%s: evictions %d > misses %d + stores %d", p.name, st.Evictions, st.Misses, p.stores)
		}
	}

	var ref []float64
	for _, p := range planes {
		if err := p.eng.Close(); err != nil {
			t.Fatalf("%s: close: %v", p.name, err)
		}
		got := p.readDurable(t)
		if !equalSlices(got, model.volatileA) {
			t.Fatalf("%s: final array contents diverged from the model", p.name)
		}
		if ref == nil {
			ref = got
		} else if !equalSlices(got, ref) {
			t.Fatalf("%s: final array contents diverged across planes", p.name)
		}
	}
}
