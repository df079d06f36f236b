// Package dst is the deterministic-simulation-test harness for the
// out-of-core stack: it drives the tile engine with a seeded virtual
// scheduler over logical clients, injects storage faults through
// internal/faultfs, "cuts power" at random points, and checks
// crash-consistency invariants against a sequential map-of-tiles
// model.
//
// One seed determines everything — the client interleaving, the
// operation mix, the fault schedule, the crash points — so a failing
// episode replays byte-for-byte from its seed alone (cmd/occhaos
// prints exactly that reproducer).
//
// # The model
//
// The harness serves one 1-D array split into an aligned,
// non-overlapping tile grid. Every PUT fills a whole tile with a
// fresh unique value, which makes the model exact:
//
//   - Liveness invariant (checked on every successful GET): the tile
//     read equals, element for element, the model's current contents —
//     the engine is linearizable with the sequential history.
//   - Durability invariant (checked after every crash): each element
//     equals its value at the last acknowledged flush, or one of the
//     values written since (an unacknowledged write may survive in
//     full, in part — a torn write — or not at all). When nothing was
//     written since the last acknowledged flush, the tile must equal
//     the acknowledged contents EXACTLY: an acknowledged write is
//     never lost and never torn.
//
// "Acknowledged" means Engine.Flush returned nil: write-backs and the
// backend sync all succeeded. A flush that returns an error
// acknowledges nothing — its writes stay in the may-or-may-not-be-
// durable set until a later flush succeeds.
//
// # Determinism
//
// The engine is synchronous and the scheduler drives it from one
// goroutine, so every backend call happens in scheduler order and the
// fault schedule is a pure function of the seed; the harness asserts
// byte-identical schedules in its own tests.
package dst

import (
	"fmt"
	"math/rand"
	"strings"

	"outcore/internal/faultfs"
	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/ooc"
)

// Options configures one episode. The zero value gets sane defaults
// from Run; Seed alone is enough for a standard episode.
type Options struct {
	Seed int64

	Ops        int     // scheduler steps (default 200)
	Clients    int     // logical clients interleaved by the scheduler (default 4)
	Tiles      int     // tile-grid length (default 8)
	TileElems  int64   // elements per tile (default 16)
	PutFrac    float64 // fraction of client ops that are PUTs (default 0.4)
	FlushEvery int     // ~one flush per this many steps (default 20; <0 disables)
	CrashEvery int     // ~one crash per this many steps (default 50; <0 disables)

	Profile      faultfs.Profile // fault probabilities (zero = fault-free)
	CacheTiles   int             // engine cache bound (default 4: smaller than Tiles, forces eviction traffic)
	MaxCallElems int64           // per-call element cap on the disk (default 0 = unlimited)

	// WAL runs the episode with write-ahead logging: writes append
	// checksummed records to the log, flush acknowledgements ride
	// group-committed log fsyncs, and
	// every reboot replays the surviving log tail before the
	// durability check — so the contract under test becomes "acked
	// writes are RECOVERED exactly", crash points landing mid-commit,
	// mid-apply and mid-compaction included. A non-WAL episode's
	// schedule is byte-identical whether or not these fields exist:
	// every extra scheduler draw is gated on WAL.
	WAL           bool
	WALCapWords   int64 // log capacity in words (default 1024: small, so full-log compaction triggers mid-episode)
	CheckpointOps int   // ~one explicit compaction per this many steps (default 30; <0 disables)

	// Compress runs the WAL with payload compression (codec frames in
	// the log records). The durability contract is unchanged — the
	// injector still measures physical bytes — so this proves acked
	// writes survive crashes THROUGH the compressed records. Episodes
	// stay deterministic per seed, but records shrink, so log-full
	// compactions land at different steps than an uncompressed run of
	// the same seed.
	Compress bool

	// SkipFinalCheck leaves out the episode epilogue (heal faults,
	// flush, final crash, exact durability check). The epilogue is
	// where "every acknowledged write survives" gets its strictest
	// test, so only skip it when an episode must end mid-fault.
	SkipFinalCheck bool
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Ops <= 0 {
		o.Ops = 200
	}
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.Tiles <= 0 {
		o.Tiles = 8
	}
	if o.TileElems <= 0 {
		o.TileElems = 16
	}
	if o.PutFrac <= 0 {
		o.PutFrac = 0.4
	}
	if o.FlushEvery == 0 {
		o.FlushEvery = 20
	}
	if o.CrashEvery == 0 {
		o.CrashEvery = 50
	}
	if o.CacheTiles <= 0 {
		o.CacheTiles = 4
	}
	if o.WAL {
		if o.WALCapWords <= 0 {
			o.WALCapWords = 1024
		}
		if o.CheckpointOps == 0 {
			o.CheckpointOps = 30
		}
	}
	return o
}

// Result is one episode's verdict and replay material.
type Result struct {
	Seed int64

	Ops, Gets, Puts, Flushes, Crashes int
	Checkpoints                       int // scheduled WAL compactions (WAL episodes only)
	AckedFlushes                      int // flushes that returned nil (durability acknowledgements)
	GetErrors, PutErrors, FlushErrors int // operations failed by injected faults (surfaced, not hidden)
	FaultsInjected                    int64

	// Violations lists every invariant breach; empty means the episode
	// passed. Each entry names the invariant, the tile, and the values.
	Violations []string

	// OpLog is the harness's own deterministic operation trace;
	// FaultSchedule is the injector's decision trace. Together they
	// replay the episode byte-for-byte (same seed in, same bytes out).
	OpLog         string
	FaultSchedule string
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Summary renders a one-line verdict.
func (r *Result) Summary() string {
	verdict := "ok"
	if r.Failed() {
		verdict = fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
	}
	ck := ""
	if r.Checkpoints > 0 {
		ck = fmt.Sprintf(" ckpts=%d", r.Checkpoints)
	}
	return fmt.Sprintf("seed=%d ops=%d gets=%d puts=%d flushes=%d(%d acked) crashes=%d%s faults=%d errs=%d/%d/%d %s",
		r.Seed, r.Ops, r.Gets, r.Puts, r.Flushes, r.AckedFlushes, r.Crashes, ck,
		r.FaultsInjected, r.GetErrors, r.PutErrors, r.FlushErrors, verdict)
}

// episode is the running state of one seeded simulation.
type episode struct {
	o   Options
	rng *rand.Rand // the virtual scheduler's choices
	cl  []*rand.Rand
	inj *faultfs.Injector
	res *Result
	log strings.Builder

	disk *ooc.Disk
	arr  *ooc.Array
	eng  *ooc.Engine

	// The sequential map-of-tiles model, element-exact.
	volatileT [][]float64 // expected current contents per tile
	acked     [][]float64 // contents at the last acknowledged flush
	pending   [][]float64 // values written since (candidates for partial durability)

	nextVal float64
}

const arrayName = "T"

// Run executes one seeded episode and returns its verdict. It never
// panics on an invariant breach — violations are collected so a
// harness can run many episodes and report every failing seed.
func Run(o Options) *Result {
	o = o.withDefaults()
	ep := &episode{
		o:   o,
		rng: rand.New(rand.NewSource(o.Seed)),
		inj: faultfs.New(o.Seed+1, o.Profile),
		res: &Result{Seed: o.Seed},
	}
	for c := 0; c < o.Clients; c++ {
		ep.cl = append(ep.cl, rand.New(rand.NewSource(o.Seed+int64(c)*104729+7)))
	}
	ep.volatileT = make([][]float64, o.Tiles)
	ep.acked = make([][]float64, o.Tiles)
	ep.pending = make([][]float64, o.Tiles)
	for t := 0; t < o.Tiles; t++ {
		ep.volatileT[t] = make([]float64, o.TileElems)
		ep.acked[t] = make([]float64, o.TileElems)
	}
	ep.open()

	for step := 0; step < o.Ops; step++ {
		ep.res.Ops++
		switch {
		case o.CrashEvery > 0 && ep.rng.Float64() < 1/float64(o.CrashEvery):
			ep.crash("scheduled")
		case o.FlushEvery > 0 && ep.rng.Float64() < 1/float64(o.FlushEvery):
			ep.flush()
		// The compaction draw only exists in WAL episodes, so a non-WAL
		// schedule is byte-identical whether or not this branch exists.
		case o.WAL && o.CheckpointOps > 0 && ep.rng.Float64() < 1/float64(o.CheckpointOps):
			ep.checkpointOp()
		default:
			c := ep.rng.Intn(o.Clients)
			ep.clientOp(c)
		}
	}

	if !o.SkipFinalCheck {
		ep.inj.Heal()
		ep.logf("epilogue heal+flush")
		if err := ep.eng.Flush(); err != nil {
			ep.violate("epilogue: flush against a healed backend failed: %v", err)
		} else {
			ep.ack()
		}
		ep.crash("epilogue")
	}
	ep.eng.Abandon()
	ep.res.FaultsInjected = ep.inj.Injected()
	ep.res.OpLog = ep.log.String()
	ep.res.FaultSchedule = ep.inj.Schedule()
	return ep.res
}

// open builds (or rebuilds, after a crash) the disk/engine over the
// injector's surviving stores. A WAL episode replays the surviving
// log tail as part of every open — recovery is not allowed to fail,
// so the open runs healed (boot media errors are a different failure
// class than the crash-consistency contract under test) and re-arms
// once the stack is up.
func (ep *episode) open() {
	if ep.o.WAL {
		ep.inj.Heal()
		defer ep.inj.Arm()
	}
	ep.disk = ooc.NewDisk(ep.o.MaxCallElems).WrapBackend(ep.inj.Wrap)
	if ep.o.WAL {
		ep.disk.EnableWAL(ooc.WALOptions{CapWords: ep.o.WALCapWords, Compress: ep.o.Compress})
	}
	size := int64(ep.o.Tiles) * ep.o.TileElems
	arr, err := ep.disk.CreateArray(ir.NewArray(arrayName, size), layout.RowMajor(size))
	if err != nil {
		// Creation is in-memory bookkeeping plus a zeroed store; it
		// cannot fail absent a harness bug.
		panic(fmt.Sprintf("dst: creating %s: %v", arrayName, err))
	}
	ep.arr = arr
	ep.eng = ooc.NewEngine(ep.disk, ooc.EngineOptions{CacheTiles: ep.o.CacheTiles})
	if ep.o.WAL {
		if _, err := ep.disk.ReplayWAL(); err != nil {
			ep.violate("recovery: WAL replay failed: %v", err)
		}
	}
}

// tileBox returns tile t's box.
func (ep *episode) tileBox(t int) layout.Box {
	lo := int64(t) * ep.o.TileElems
	return layout.NewBox([]int64{lo}, []int64{lo + ep.o.TileElems})
}

// clientOp advances one logical client: a GET or PUT on a tile chosen
// from the client's own stream.
func (ep *episode) clientOp(c int) {
	rng := ep.cl[c]
	t := rng.Intn(ep.o.Tiles)
	if rng.Float64() < ep.o.PutFrac {
		ep.put(c, t)
	} else {
		ep.get(c, t)
	}
}

// get checks the liveness invariant: a successful read returns
// exactly the model's current tile contents.
func (ep *episode) get(c, t int) {
	ep.res.Gets++
	h, err := ep.eng.Acquire(ep.arr, ep.tileBox(t))
	if err != nil {
		ep.res.GetErrors++
		ep.logf("c%d get t%d -> err %v", c, t, err)
		return
	}
	data := h.Tile().Data()
	want := ep.volatileT[t]
	for i := range data {
		if data[i] != want[i] {
			ep.violate("liveness: get tile %d elem %d = %v, model says %v", t, i, data[i], want[i])
			break
		}
	}
	ep.eng.Release(h, false)
	ep.logf("c%d get t%d -> ok", c, t)
}

// put fills tile t with a fresh unique value.
func (ep *episode) put(c, t int) {
	ep.res.Puts++
	ep.nextVal++
	v := ep.nextVal
	h, err := ep.eng.Acquire(ep.arr, ep.tileBox(t))
	if err != nil {
		ep.res.PutErrors++
		ep.logf("c%d put t%d v=%v -> err %v", c, t, v, err)
		return
	}
	data := h.Tile().Data()
	for i := range data {
		data[i] = v
	}
	ep.eng.Release(h, true)
	for i := range ep.volatileT[t] {
		ep.volatileT[t][i] = v
	}
	ep.pending[t] = append(ep.pending[t], v)
	ep.logf("c%d put t%d v=%v -> ok", c, t, v)
}

// flush asks the engine for durability; nil is an acknowledgement.
func (ep *episode) flush() {
	ep.res.Flushes++
	if err := ep.eng.Flush(); err != nil {
		ep.res.FlushErrors++
		ep.logf("flush -> err %v", err)
		return
	}
	ep.ack()
	ep.logf("flush -> acked")
}

// ack moves the model's current state into the acknowledged state.
func (ep *episode) ack() {
	ep.res.AckedFlushes++
	for t := range ep.acked {
		copy(ep.acked[t], ep.volatileT[t])
		ep.pending[t] = nil
	}
}

// crash cuts power, checks the durability invariant over the
// surviving state, then reboots the stack and adopts the durable
// contents as the new model state.
//
// A WAL episode reboots FIRST: the durable log tail is replayed over
// the stripe bytes as part of open, and the durability contract
// applies to the RECOVERED state — acked writes must come back
// exactly even when the power cut landed mid-commit-window (log
// records appended but not fsynced), mid-apply (write-throughs not
// yet checkpointed) or mid-compaction (logs partially truncated),
// with torn log tails discarded by the record framing.
func (ep *episode) crash(why string) {
	ep.res.Crashes++
	ep.logf("crash (%s)", why)
	ep.eng.Abandon()
	ep.inj.Crash()
	if ep.o.WAL {
		ep.open()
	}

	buf := make([]float64, ep.o.TileElems)
	for t := 0; t < ep.o.Tiles; t++ {
		if err := ep.inj.ReadDurable(arrayName, buf, int64(t)*ep.o.TileElems); err != nil {
			ep.violate("durability: reading tile %d after crash: %v", t, err)
			continue
		}
		ack, pend := ep.acked[t], ep.pending[t]
		if len(pend) == 0 {
			// Nothing written since the acknowledgement: the tile must
			// survive exactly — not lost, not torn.
			for i := range buf {
				if buf[i] != ack[i] {
					ep.violate("durability: acked tile %d elem %d = %v after crash, want %v (pending: none)",
						t, i, buf[i], ack[i])
					break
				}
			}
		} else {
			// Unacknowledged writes may be durable in full, in part, or
			// not at all; every element must still come from the acked
			// contents or one of the pending writes.
			for i := range buf {
				if buf[i] != ack[i] && !contains(pend, buf[i]) {
					ep.violate("durability: tile %d elem %d = %v after crash, not the acked %v nor any of %d pending writes",
						t, i, buf[i], ack[i], len(pend))
					break
				}
			}
		}
		// Adopt the survivor as ground truth for the rebooted stack.
		copy(ep.acked[t], buf)
		copy(ep.volatileT[t], buf)
		ep.pending[t] = nil
	}
	if !ep.o.WAL {
		ep.open()
	}
}

// checkpointOp runs the WAL compaction step at a scheduler-chosen
// point: member syncs plus log truncation, under whatever faults are
// armed — so crashes land before, inside and after compactions. A
// failed checkpoint changes nothing the model tracks (the log keeps
// its records).
func (ep *episode) checkpointOp() {
	ep.res.Checkpoints++
	if err := ep.disk.Checkpoint(); err != nil {
		ep.logf("checkpoint -> err %v", err)
		return
	}
	ep.logf("checkpoint -> ok")
}

func contains(vals []float64, v float64) bool {
	for _, x := range vals {
		if x == v {
			return true
		}
	}
	return false
}

func (ep *episode) violate(format string, args ...any) {
	ep.res.Violations = append(ep.res.Violations, fmt.Sprintf(format, args...))
	ep.logf("VIOLATION: "+format, args...)
}

func (ep *episode) logf(format string, args ...any) {
	fmt.Fprintf(&ep.log, format, args...)
	ep.log.WriteByte('\n')
}
