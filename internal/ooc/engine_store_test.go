package ooc_test

// Engine.Store against the write it replaces: on twin disks, the same
// operation stream with every whole-box write done as a blind Store on
// one side and as Acquire + copy + Release(dirty) on the other must
// leave the same backend bytes and issue the same backend WRITES, in
// the same order — and the Store side must have read nothing for them.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/ooc"
)

const (
	storeRows = 40
	storeCols = 36
)

type storeTwin struct {
	disk *ooc.Disk
	arr  *ooc.Array
	eng  *ooc.Engine
}

func newStoreTwin(t *testing.T, l *layout.Layout, maxCall int64, cache int) *storeTwin {
	t.Helper()
	d := ooc.NewDisk(maxCall)
	d.Record = true
	arr, err := d.CreateArray(ir.NewArray("A", storeRows, storeCols), l)
	if err != nil {
		t.Fatal(err)
	}
	arr.Fill(func(c []int64) float64 { return float64(c[0]*storeCols + c[1]) })
	return &storeTwin{disk: d, arr: arr, eng: ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: cache})}
}

func (tw *storeTwin) reads() int64 { return tw.disk.Stats.Snapshot().ReadCalls }

// writesOf filters a trace down to its write calls.
func writesOf(trace []ooc.Request) []ooc.Request {
	var w []ooc.Request
	for _, r := range trace {
		if r.Write {
			w = append(w, r)
		}
	}
	return w
}

func TestStoreMatchesAcquireWrite(t *testing.T) {
	box := func(r0, c0, r1, c1 int64) layout.Box {
		return layout.NewBox([]int64{r0, c0}, []int64{r1, c1})
	}
	type step struct {
		op  string // "write", "scribble" (partial read-modify-write), "read"
		box layout.Box
	}
	steps := []step{
		{"write", box(0, 0, 8, 8)},          // target absent
		{"write", box(0, 0, 8, 8)},          // target resident and dirty
		{"scribble", box(4, 4, 12, 12)},     // a differently shaped dirty tile over it
		{"write", box(0, 0, 16, 8)},         // absent, overlapping that dirty tile
		{"read", box(16, 8, 24, 16)},        //
		{"write", box(16, 8, 24, 16)},       // target resident and clean
		{"write", box(24, 0, 32, 8)},        // absent, beside the others
		{"write", box(36, 30, 44, 40)},      // clipped at both edges
		{"scribble", box(30, 28, 38, 34)},   // dirty over the edge tile
		{"write", box(32, 24, 40, 36)},      // covers it, clipped shape
		{"write", box(8, 0, 10, storeCols)}, // full-width band across earlier tiles
		{"read", box(0, 0, 12, 12)},
		{"write", box(0, 0, storeRows, storeCols)}, // the whole array over everything cached
		{"write", box(3, 5, 9, 11)},
	}
	layouts := []*layout.Layout{
		layout.RowMajor(storeRows, storeCols),
		layout.ColMajor(storeRows, storeCols),
		layout.Blocked(storeRows, storeCols, 8, 5),
		layout.Diagonal(storeRows, storeCols),
		layout.General(storeRows, storeCols, []int64{1, 2}),
	}
	for _, maxCall := range []int64{0, 7, 128} {
		for _, l := range layouts {
			// A roomy cache never evicts for capacity, so the two sides'
			// write traces must be identical; a tight one evicts at different
			// moments (the acquire side holds a pin across its read), so
			// there only the bytes and the zero-read property are compared.
			for _, cache := range []int{32, 2} {
				t.Run(fmt.Sprintf("cap%d/%s/cache%d", maxCall, l.Name(), cache), func(t *testing.T) {
					exact := cache > len(steps)
					st := newStoreTwin(t, l, maxCall, cache) // whole-box writes via Store
					aw := newStoreTwin(t, l, maxCall, cache) // ... via Acquire + Release(dirty)
					for i, s := range steps {
						clipped := s.box.Clip([]int64{storeRows, storeCols})
						data := make([]float64, clipped.Size())
						for k := range data {
							data[k] = float64(1000*(i+1) + k)
						}
						stBefore, awBefore := st.reads(), aw.reads()
						switch s.op {
						case "write":
							mine := append([]float64(nil), data...)
							if err := st.eng.Store(ooc.TileReq{Arr: st.arr, Box: s.box}, mine); err != nil {
								t.Fatalf("step %d: store %v: %v", i, s.box, err)
							}
							for k := range mine {
								mine[k] = -1 // the engine copied: recycling the buffer must not reach the tile
							}
							h, err := aw.eng.Acquire(aw.arr, s.box)
							if err != nil {
								t.Fatalf("step %d: acquire %v: %v", i, s.box, err)
							}
							copy(h.Tile().Data(), data)
							aw.eng.Release(h, true)
							if n := st.reads() - stBefore; n != 0 {
								t.Fatalf("step %d: store of %v issued %d backend reads", i, s.box, n)
							}
						default:
							var got [2][]float64
							for k, tw := range []*storeTwin{st, aw} {
								h, err := tw.eng.Acquire(tw.arr, s.box)
								if err != nil {
									t.Fatalf("step %d: acquire %v: %v", i, s.box, err)
								}
								if s.op == "scribble" {
									h.Tile().Data()[0] = -float64(i)
									h.Tile().Data()[len(h.Tile().Data())-1] = -float64(i) - 0.5
								}
								got[k] = append([]float64(nil), h.Tile().Data()...)
								tw.eng.Release(h, s.op == "scribble")
							}
							if !reflect.DeepEqual(got[0], got[1]) {
								t.Fatalf("step %d: %s of %v sees different tiles on the two sides", i, s.op, s.box)
							}
							if exact && st.reads()-stBefore != aw.reads()-awBefore {
								t.Fatalf("step %d: %s of %v read %d calls after stores, %d after acquire-writes",
									i, s.op, s.box, st.reads()-stBefore, aw.reads()-awBefore)
							}
						}
					}
					if err := st.eng.Store(ooc.TileReq{Arr: st.arr, Box: box(0, 0, 4, 4)}, make([]float64, 15)); err == nil {
						t.Fatal("a store of the wrong length was accepted")
					}
					for _, tw := range []*storeTwin{st, aw} {
						if err := tw.eng.Flush(); err != nil {
							t.Fatal(err)
						}
					}
					stW, awW := st.disk.Stats.Snapshot(), aw.disk.Stats.Snapshot()
					if exact {
						if stW.WriteCalls != awW.WriteCalls || stW.ElemsWritten != awW.ElemsWritten {
							t.Fatalf("writes differ: store side %+v, acquire side %+v", stW, awW)
						}
						if a, b := writesOf(st.disk.Trace), writesOf(aw.disk.Trace); !reflect.DeepEqual(a, b) {
							t.Fatalf("write traces differ (%d vs %d calls)", len(a), len(b))
						}
						// Everything the acquire side read beyond the store side
						// is the reads its whole-box writes did not need.
						if stW.ReadCalls >= awW.ReadCalls {
							t.Fatalf("store side read %d calls, acquire side %d", stW.ReadCalls, awW.ReadCalls)
						}
					}
					if s := st.eng.Stats(); s.Writebacks == 0 || s.Hits+s.Misses != 4 {
						// 2 scribbles + 2 reads are the only acquires; a store is
						// neither a hit nor a miss and shows as its write-back.
						t.Fatalf("store-side engine stats %+v, want 4 acquires and some write-backs", s)
					}
					whole := box(0, 0, storeRows, storeCols)
					a, err := st.arr.ReadTile(whole)
					if err != nil {
						t.Fatal(err)
					}
					b, err := aw.arr.ReadTile(whole)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(a.Data(), b.Data()) {
						t.Fatal("backend bytes differ after Flush")
					}
					for _, tw := range []*storeTwin{st, aw} {
						if err := tw.eng.Close(); err != nil {
							t.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// gatedBackend holds every read, once armed, until open is closed,
// announcing each on entered; it counts the reads it serves.
type gatedBackend struct {
	ooc.Backend
	armed   atomic.Bool
	reads   atomic.Int64
	entered chan struct{}
	open    chan struct{}
}

func (g *gatedBackend) ReadAt(buf []float64, off int64) error {
	if g.armed.Load() {
		g.reads.Add(1)
		g.entered <- struct{}{}
		<-g.open
	}
	return g.Backend.ReadAt(buf, off)
}

// TestStoreWaitsForInFlightLoad: a Store whose target another caller's
// Acquire miss is still reading waits for that read to land, then
// overwrites it — the stored bytes win, and the backend serves exactly
// the one read of the miss.
func TestStoreWaitsForInFlightLoad(t *testing.T) {
	g := &gatedBackend{entered: make(chan struct{}, 1), open: make(chan struct{})}
	d := ooc.NewDisk(0).WrapBackend(func(_ string, b ooc.Backend) ooc.Backend {
		g.Backend = b
		return g
	})
	arr, err := d.CreateArray(ir.NewArray("A", 8, 8), layout.RowMajor(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	arr.Fill(func(c []int64) float64 { return float64(c[0]*8 + c[1]) })
	e := ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 4})
	b := layout.NewBox([]int64{0, 0}, []int64{4, 8}) // whole rows: one backend run
	stored := make([]float64, b.Size())
	for i := range stored {
		stored[i] = -float64(i + 1)
	}

	g.armed.Store(true)
	acquired := make(chan error, 1)
	go func() {
		h, err := e.Acquire(arr, b)
		if err == nil {
			e.Release(h, false)
		}
		acquired <- err
	}()
	<-g.entered // the miss is inside its backend read
	done := make(chan error, 1)
	go func() { done <- e.Store(ooc.TileReq{Arr: arr, Box: b}, stored) }()
	select {
	case err := <-done:
		t.Fatalf("Store returned (%v) while the load of its target was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(g.open)
	if err := <-acquired; err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := g.reads.Load(); n != 1 {
		t.Fatalf("backend served %d reads, want the miss's one", n)
	}
	h, err := e.Acquire(arr, b)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Tile().Data(); !reflect.DeepEqual(got, stored) {
		t.Fatalf("cached tile after the store reads %v, want the stored %v", got, stored)
	}
	e.Release(h, false)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if n := g.reads.Load(); n != 1 {
		t.Fatalf("backend served %d reads, want the miss's one", n)
	}
	g.armed.Store(false)
	back, err := arr.ReadTile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Data(), stored) {
		t.Fatalf("backend after Close holds %v, want the stored %v", back.Data(), stored)
	}
}

// TestStoreConcurrentBands runs stores from several goroutines at once,
// each over its own row band (the engine's contract: nobody else pins a
// tile that overlaps a store) in randomly shaped, mutually overlapping
// boxes, with reads checking each
// band's latest write through a cache too small to hold them all. CI
// runs it under -race.
func TestStoreConcurrentBands(t *testing.T) {
	const (
		G     = 6
		steps = 80
		rows  = 4
		cols  = 24
	)
	d := ooc.NewDisk(0)
	arr, err := d.CreateArray(ir.NewArray("W", G*rows, cols), layout.ColMajor(G*rows, cols))
	if err != nil {
		t.Fatal(err)
	}
	e := ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: 5})

	want := make([]float64, G*rows*cols)
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(77 + g)))
			lo := int64(g * rows)
			for k := 1; k <= steps; k++ {
				c0 := int64(rng.Intn(cols - 1))
				c1 := c0 + 1 + int64(rng.Intn(int(cols-c0-1))+1)
				b := layout.NewBox([]int64{lo, c0}, []int64{lo + rows, c1})
				data := make([]float64, b.Size())
				for i := range data {
					data[i] = float64(g*1000 + k)
				}
				if err := e.Store(ooc.TileReq{Arr: arr, Box: b}, data); err != nil {
					t.Error(err)
					return
				}
				for r := lo; r < lo+rows; r++ {
					for c := c0; c < c1; c++ {
						want[r*cols+c] = float64(g*1000 + k)
					}
				}
				if rng.Intn(4) == 0 {
					band := layout.NewBox([]int64{lo, 0}, []int64{lo + rows, cols})
					h, err := e.Acquire(arr, band)
					if err != nil {
						t.Error(err)
						return
					}
					if got := h.Tile().Data(); !reflect.DeepEqual(got, want[lo*cols:(lo+rows)*cols]) {
						t.Errorf("goroutine %d step %d: band reads %v, want %v", g, k, got, want[lo*cols:(lo+rows)*cols])
					}
					e.Release(h, false)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := arr.ReadTile(layout.NewBox([]int64{0, 0}, []int64{G * rows, cols}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full.Data(), want) {
		t.Fatal("array contents after Close differ from the last store per cell")
	}
	if err := e.Store(ooc.TileReq{Arr: arr, Box: layout.NewBox([]int64{0, 0}, []int64{1, 1})}, []float64{1}); !errors.Is(err, ooc.ErrEngineClosed) {
		t.Fatalf("store on a closed engine: %v, want ErrEngineClosed", err)
	}
}
