package codegen

import (
	"fmt"
	"testing"

	"outcore/internal/ooc"
	"outcore/internal/suite"
)

// simOp is one engine request of a recorded stream.
type simOp struct {
	key          string // array name and box
	arr          *ooc.Array
	box          [2][]int64
	next         int // the schedule's hint
	slice        int // the schedule execution that issued it
	store, write bool
}

// simTile is one tile's requests in issue order: acquires, then stores.
type simTile []simOp

// TestEngineMatchesMIN replays each kernel's engine request stream
// through a reference cache simulator: evicting by Belady's MIN (the
// furthest next use, computed here from the stream itself, with the
// current tile's set pinned as the engine pins it) must give exactly
// the engine's misses, and never more than LRU would. The future MIN
// sees is the one the engine is told: a schedule execution knows its
// own requests, not the next nest's or the next run's, so a tile's
// last request in its execution ranks as never used again.
func TestEngineMatchesMIN(t *testing.T) {
	const capTiles = 8
	cfg := suite.SmallConfig()
	for _, k := range suite.Kernels {
		for _, v := range suite.Versions {
			p := k.Build(cfg)
			plan, err := suite.PlanFor(p, v)
			if err != nil {
				t.Fatal(err)
			}
			budget := suite.MemBudget(p, 16)
			opts := Options{Strategy: suite.StrategyFor(v), MemBudget: budget, DryRun: true}
			d, err := SetupDiskOn(ooc.NewDisk(64).NoBacking(), p, plan, nil)
			if err != nil {
				t.Fatal(err)
			}

			// The stream, as ExecuteSlice issues it.
			var stream []simTile
			slice := 0
			for it := 0; it < k.Iter; it++ {
				for _, n := range p.Nests {
					s, err := Build(n, plan.Nests[n], opts)
					if err != nil {
						t.Fatal(err)
					}
					if !s.bounds.Feasible() {
						continue
					}
					slice++
					x := s.newExecutor(d, ooc.NewMemory(budget))
					last0, tiles := x.first(0, 1)
					x.look(append(x.scan[:0], x.origin...), last0, tiles)
					rs := x.future.reqs
					for ti, ok := 0, x.origin[0] <= last0; ok; ti, ok = ti+1, s.nextOrigin(x.origin, last0) {
						ft := x.future.tiles[ti]
						if ft.iters == 0 {
							continue
						}
						nread, err := x.requests(x.origin, ft, rs[:ft.nreq])
						if err != nil {
							t.Fatal(err)
						}
						rs = rs[ft.nreq:]
						var tile simTile
						for i, r := range x.reqs {
							tile = append(tile, simOp{
								key:  fmt.Sprint(r.Arr.Meta.Name, r.Box.Lo, r.Box.Hi),
								arr:  r.Arr,
								box:  [2][]int64{append([]int64(nil), r.Box.Lo...), append([]int64(nil), r.Box.Hi...)},
								next: r.Next, slice: slice, store: i >= nread, write: x.written(i)})
						}
						stream = append(stream, tile)
					}
				}
			}

			// The engine's misses on the same program.
			opts.Engine = ooc.NewEngine(d, ooc.EngineOptions{CacheTiles: capTiles})
			for it := 0; it < k.Iter; it++ {
				if _, err := RunProgram(p, plan, d, ooc.NewMemory(budget), opts); err != nil {
					t.Fatal(err)
				}
			}
			if err := opts.Engine.Close(); err != nil {
				t.Fatal(err)
			}
			got := opts.Engine.Stats().Misses

			// Each hint is the distance to the next request of its tile
			// within its schedule execution, 0 when there is none.
			var flat []simOp
			for _, tile := range stream {
				flat = append(flat, tile...)
			}
			for i, op := range flat {
				want := 0
				for j := i + 1; j < len(flat) && flat[j].slice == op.slice; j++ {
					if flat[j].key == op.key {
						want = j - i
						break
					}
				}
				if op.next != want {
					t.Fatalf("%s/%s: request %d (%s) hints %d, next use is %d later", k.Name, v, i, op.key, op.next, want)
				}
			}

			minMisses, lruMisses := simulate(stream, capTiles, true), simulate(stream, capTiles, false)
			if got != minMisses || got > lruMisses {
				t.Errorf("%s/%s: engine %d misses, MIN %d, LRU %d; want engine == MIN <= LRU", k.Name, v, got, minMisses, lruMisses)
			}
		}
	}
}

// simulate replays stream through a capTiles cache the way the engine
// runs a tile — acquire and pin its reads, release them in order, then
// store its blind writes, a dirtied tile dropping the overlapping
// copies of its array — and returns the misses. With belady it evicts
// the unpinned tile whose next use in its schedule execution is
// furthest away (none ranks furthest), least recently used first among
// equals; without, plain LRU.
func simulate(stream []simTile, capTiles int, belady bool) int64 {
	type entry struct {
		op        simOp
		use, pins int
	}
	// use[i] is the clock (1 + stream index) of op i's next request.
	var flat []*simOp
	for ti := range stream {
		for oi := range stream[ti] {
			flat = append(flat, &stream[ti][oi])
		}
	}
	use := make([]int, len(flat))
	last := map[string]int{}
	for i := len(flat) - 1; i >= 0; i-- {
		if j, ok := last[flat[i].key]; ok && belady && flat[j].slice == flat[i].slice {
			use[i] = j + 1
		}
		last[flat[i].key] = i
	}
	var (
		lru    []*entry // least recently used first
		clock  int
		misses int64
	)
	find := func(key string) *entry {
		for _, e := range lru {
			if e.op.key == key {
				return e
			}
		}
		return nil
	}
	toFront := func(e *entry) {
		for i, o := range lru {
			if o == e {
				lru = append(append(lru[:i:i], lru[i+1:]...), e)
				return
			}
		}
		lru = append(lru, e)
	}
	drop := func(e *entry) {
		for i, o := range lru {
			if o == e {
				lru = append(lru[:i:i], lru[i+1:]...)
				return
			}
		}
	}
	evict := func() {
		for len(lru) > capTiles {
			var victim *entry
			best := -1
			for _, e := range lru {
				u := e.use
				if u <= clock {
					u = int(^uint(0) >> 1) // never
				}
				if e.pins == 0 && u > best {
					victim, best = e, u
				}
			}
			if victim == nil {
				return
			}
			drop(victim)
		}
	}
	dirty := func(e *entry) {
		for _, o := range append([]*entry(nil), lru...) {
			if o != e && o.pins == 0 && o.op.arr == e.op.arr && overlaps(o.op.box, e.op.box) {
				drop(o)
			}
		}
	}
	i := 0
	for _, tile := range stream {
		var pinned []*entry
		for _, op := range tile {
			if op.store {
				continue
			}
			clock++
			e := find(op.key)
			if e == nil {
				misses++
				e = &entry{op: op}
			}
			e.pins++
			e.use = use[i]
			i++
			toFront(e)
			evict()
			pinned = append(pinned, e)
		}
		for pi, e := range pinned {
			e.pins--
			if tile[pi].write {
				dirty(e)
			}
			toFront(e)
			evict()
		}
		for _, op := range tile[len(pinned):] {
			clock++
			e := find(op.key)
			if e == nil {
				e = &entry{op: op}
			}
			e.use = use[i]
			i++
			toFront(e)
			dirty(e)
			evict()
		}
	}
	return misses
}

func overlaps(a, b [2][]int64) bool {
	for d := range a[0] {
		if a[0][d] >= b[1][d] || b[0][d] >= a[1][d] {
			return false
		}
	}
	return true
}
