package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"outcore/internal/layout"
)

const (
	tileEdge     = 32   // 32x32 float64 = 8 KiB per tile
	rounds       = 8    // back-to-back timed rounds per run
	arrayName    = "A"  // the one served array
	scanChunk    = 4096 // elements per scan frame
	maxCallElems = 8192 // Disk per-call cap (one call moves at most 64 KiB)
)

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opScan
	opCycle // kernels: one pass over the four paper kernels
)

// op is one generated request: a kind and the half-open box
// [r0,r1) x [c0,c1) it addresses. id is unique within a run and seeds
// a PUT's payload.
type op struct {
	kind           opKind
	id             int
	r0, c0, r1, c1 int64
}

func (o op) box() layout.Box {
	return layout.NewBox([]int64{o.r0, o.c0}, []int64{o.r1, o.c1})
}

// elems is the payload size of the op in elements.
func (o op) elems() int64 { return (o.r1 - o.r0) * (o.c1 - o.c0) }

// spec is one workload: what is built, what is sent, and the reason it
// is in the suite (printed by -list and recorded in BENCHMARK.json).
type spec struct {
	name string
	why  string

	n          int64 // array is n x n float64
	colMajor   bool
	cacheTiles int
	durable    bool // WAL + DurablePuts (+ crash injector on a single node)
	nodes      int  // 0 = one node; otherwise router + this many nodes, R=2

	primary opKind // the op whose latency is reported
	putPct  int    // PUTs per 100 ops (exact per round, positions shuffled)
	warmAll bool   // warm-up touches every tile once (cache fits)
	warmOps int    // otherwise: this many ops from the warm-up stream

	// opsPerRound is the round length at -seconds 10, tuned so the
	// timed phase lasts about that long on the reference box; it scales
	// linearly with -seconds so counts stay exact for a given
	// (seed, seconds).
	opsPerRound int
}

var specs = []spec{
	{
		name: "hit_point",
		why:  "cache fits: every GET is a hit, so server+HTTP do the work and layout/miss path/WAL do none; control for storage changes",
		n:    512, cacheTiles: 512, primary: opGet, warmAll: true, opsPerRound: 15000,
	},
	{
		name: "miss_point",
		why:  "col-major array 16x the cache: ~94% misses of 32 strided runs each, so layout.Runs + ReadTile scatter + eviction dominate",
		n:    1024, colMajor: true, cacheTiles: 64, primary: opGet, warmOps: 256, opsPerRound: 7000,
	},
	{
		name: "scan_stream",
		why:  "32-row stripes streamed as 8 CRC frames through a 4-tile cache: the miss path in the bandwidth regime (1 long run per chunk) plus PlanScan and framing",
		n:    1024, cacheTiles: 4, primary: opScan, warmOps: 32, opsPerRound: 550,
	},
	{
		name: "durable_put",
		why:  "full-tile PUTs acked after WAL commit, then crash + replay: WriteTile, WAL framing, commit and checkpoint beside the read path",
		n:    1024, cacheTiles: 64, durable: true, primary: opPut, putPct: 100, warmOps: 256, opsPerRound: 5000,
	},
	{
		name: "cluster_mixed",
		why:  "router + 3 nodes, R=2, 70% GET / 30% PUT: placement, fan-out, generations, quorum and wire codec do the work",
		n:    1024, cacheTiles: 64, durable: true, nodes: 3, primary: opGet, putPct: 30, warmOps: 256, opsPerRound: 1500,
	},
	{
		name:    "kernels",
		why:     "no HTTP: mat, mxm, trans, syr2k under the c-opt plan through the engine, checked against the in-core run; sees compiler-side changes",
		primary: opCycle, opsPerRound: 2,
	},
}

// crashChecked reports whether the workload ends with a power cut and
// a WAL replay (the single-node durable one).
func (sp spec) crashChecked() bool { return sp.durable && sp.nodes == 0 }

func specByName(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// streamSeed mixes the workload name into the user's seed so two
// workloads never share an op stream.
func streamSeed(seed int64, name, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%s", seed, name, stream)
	return int64(h.Sum64() >> 1)
}

// generator draws ops for one workload from a seeded stream.
type generator struct {
	sp     spec
	rng    *rand.Rand
	nextID int
}

func newGenerator(sp spec, seed int64, stream string) *generator {
	return &generator{sp: sp, rng: rand.New(rand.NewSource(streamSeed(seed, sp.name, stream)))}
}

// batch draws n ops. The PUT share is exact (n*putPct/100 of them, in
// shuffled positions), so the I/O counts of two seeds differ only by
// which tiles were drawn, not by how many writes there were.
func (g *generator) batch(n int) []op {
	ops := make([]op, n)
	puts := n * g.sp.putPct / 100
	for i := range ops {
		if i < puts {
			ops[i].kind = opPut
		} else {
			ops[i].kind = g.sp.primary
		}
	}
	if puts > 0 && puts < n {
		g.rng.Shuffle(n, func(i, j int) { ops[i].kind, ops[j].kind = ops[j].kind, ops[i].kind })
	}
	grid := g.sp.n / tileEdge
	for i := range ops {
		o := &ops[i]
		o.id = g.nextID
		g.nextID++
		switch o.kind {
		case opScan:
			o.r0 = g.rng.Int63n(grid) * tileEdge
			o.r1, o.c0, o.c1 = o.r0+tileEdge, 0, g.sp.n
		case opGet, opPut:
			o.r0 = g.rng.Int63n(grid) * tileEdge
			o.c0 = g.rng.Int63n(grid) * tileEdge
			o.r1, o.c1 = o.r0+tileEdge, o.c0+tileEdge
		}
	}
	return ops
}

// allTiles lists one GET per tile of the array, in row-major tile order.
func (g *generator) allTiles() []op {
	grid := g.sp.n / tileEdge
	ops := make([]op, 0, grid*grid)
	for r := int64(0); r < grid; r++ {
		for c := int64(0); c < grid; c++ {
			ops = append(ops, op{kind: opGet, id: g.nextID,
				r0: r * tileEdge, c0: c * tileEdge, r1: (r + 1) * tileEdge, c1: (c + 1) * tileEdge})
			g.nextID++
		}
	}
	return ops
}

// stream is everything one run sends: the warm-up ops (part of set-up)
// and the timed rounds.
type stream struct {
	warm   []op
	rounds [][]op
}

// genStream draws the warm-up ops and the timed rounds of perRound ops
// each.
func genStream(sp spec, seed int64, perRound int) stream {
	g := newGenerator(sp, seed, "timed")
	var s stream
	if sp.warmAll {
		s.warm = g.allTiles()
	} else {
		wg := newGenerator(sp, seed, "warm")
		s.warm = wg.batch(sp.warmOps)
		g.nextID = wg.nextID
	}
	for r := 0; r < rounds; r++ {
		s.rounds = append(s.rounds, g.batch(perRound))
	}
	return s
}

// fingerprint hashes an op stream, for the determinism tests.
func (s stream) fingerprint() uint64 {
	h := fnv.New64a()
	add := func(ops []op) {
		for _, o := range ops {
			fmt.Fprintf(h, "%d:%d:%d,%d,%d,%d;", o.kind, o.id, o.r0, o.c0, o.r1, o.c1)
		}
	}
	add(s.warm)
	for _, r := range s.rounds {
		add(r)
	}
	return h.Sum64()
}
