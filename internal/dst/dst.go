// Package dst is the deterministic-simulation-test harness for the
// out-of-core stack. Run is its one entry point: one seed and one
// Options in, one Result out. Options.Kind picks what the seed drives:
//
//   - storage (the zero value): one tile engine under a seeded virtual
//     scheduler over logical clients, with storage faults injected
//     through internal/faultfs and power cut at random points, checked
//     against a sequential map-of-tiles model. Its OpLog and
//     FaultSchedule replay byte-for-byte from the seed.
//   - cluster, operators, admission: one {router + N nodes, R replicas}
//     cluster.LocalCluster under one seeded episode. The three kinds
//     share the model, the steps and the epilogue and differ only in
//     their step weights and in whether the admission pool is narrow
//     (see cluster.go).
//
// Every episode ends in an epilogue unless Options.SkipFinalCheck:
// storage heals the device, flushes and cuts power once more for an
// exact durability check; the cluster kinds run one epilogue that
// applies every cluster check to every kind — convergence to the acked
// value, survival of any single replica's loss, byte-equal replicas, a
// full scan to its trailer and an empty admission pool.
//
// A failing episode replays from its seed (cmd/occhaos prints the
// reproducer). Violations are collected, never panicked, so a sweep
// reports every failing seed.
//
// # The storage model
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
// The engine is synchronous and the scheduler drives it from one
// goroutine, so every backend call happens in scheduler order and the
// fault schedule is a pure function of the seed;
// TestStorageEpisodeGolden pins it.
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

// Kind names what an episode drives.
type Kind int

const (
	Storage   Kind = iota // one engine under storage faults and power cuts
	Cluster               // tile PUTs and GETs under node kills, partitions and heals
	Operators             // PUT bursts, interrupted scans and whole-cluster power cuts
	Admission             // point reads and scans on a narrow admission pool under node faults
)

var kindNames = [...]string{"storage", "cluster", "operators", "admission"}

func (k Kind) String() string { return kindNames[k] }

// ParseKind maps a kind's name back to the Kind.
func ParseKind(s string) (Kind, error) {
	for k, name := range kindNames {
		if s == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("unknown episode kind %q (storage, cluster, operators, admission)", s)
}

// The episode shape every kind shares.
const (
	tiles     = 8  // tile-grid length
	tileElems = 16 // elements per tile

	// Storage kind.
	clients       = 4    // logical clients interleaved by the scheduler
	cacheTiles    = 4    // engine cache bound, smaller than tiles: forces eviction traffic
	walCapWords   = 1024 // small, so full-log compaction triggers mid-episode
	checkpointOps = 30   // ~one explicit WAL compaction per this many steps
)

// Options configures one episode. The zero value gets defaults from
// Run; Seed alone is enough for a standard storage episode.
type Options struct {
	Kind Kind
	Seed int64
	Ops  int // scheduler steps (default: 200 storage and cluster, 40 operators and admission)

	// Storage kind.
	PutFrac    float64         // fraction of client ops that are PUTs (default 0.4)
	FlushEvery int             // ~one flush per this many steps (default 20; <0 disables)
	CrashEvery int             // ~one crash per this many steps (default 50; <0 disables)
	Profile    faultfs.Profile // fault probabilities (zero = fault-free)

	// WAL runs the episode with write-ahead logging: writes append
	// checksummed records to the log, flush acknowledgements ride
	// group-committed log fsyncs, and every reboot replays the
	// surviving log tail before the durability check — so the contract
	// under test becomes "acked writes are RECOVERED exactly", crash
	// points landing mid-commit, mid-apply and mid-compaction included.
	// In the cluster kinds every node logs, and each restart replays
	// through the node open path occd ships (server.Open).
	WAL bool

	// Cluster kinds.
	Nodes    int    // storage nodes (default 3)
	Replicas int    // copies per tile (default 2)
	HintDir  string // durable hint-log directory ("" = in-memory hints)

	// SkipFinalCheck leaves out the episode epilogue. The epilogue is
	// where "every acknowledged write survives" gets its strictest
	// test, so only skip it when an episode must end mid-fault.
	SkipFinalCheck bool
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Ops <= 0 {
		o.Ops = 200
		if o.Kind == Operators || o.Kind == Admission {
			o.Ops = 40
		}
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
	if o.Nodes <= 0 {
		o.Nodes = 3
	}
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	return o
}

// Result is one episode's verdict and replay material. Counters a kind
// has no step for stay zero.
type Result struct {
	Kind Kind
	Seed int64
	Ops  int

	Gets, Puts                        int // point reads and whole-tile writes issued
	GetErrors, PutErrors, FlushErrors int // failed or refused with 503 (surfaced, not hidden)

	// Storage kind.
	Flushes, AckedFlushes int // AckedFlushes: flushes that returned nil
	Crashes, Checkpoints  int // power cuts; scheduled WAL compactions
	FaultsInjected        int64

	// Cluster kinds.
	Kills, Partitions, Heals, PowerCuts int
	Scans, ScanChunks                   int // scans started; intact chunks delivered
	ScanAbandons, ScanResumes           int // legs hung up mid-stream; cursor resumes
	HintsDrained                        int // hints delivered during the epilogue drain
	CutRereads                          int // acked tiles re-read after a post-burst power cut

	// Violations lists every invariant breach; empty means the episode
	// passed. Each entry names the invariant, the tile, and the values.
	Violations []string

	// OpLog is the harness's own operation trace; FaultSchedule is the
	// storage injector's decision trace. For a storage episode the two
	// replay byte-for-byte from the seed.
	OpLog         string
	FaultSchedule string
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Faults counts the faults the episode injected, whatever its kind:
// the storage injector's failed calls plus the node kills, network
// partitions and power cuts of the cluster kinds.
func (r *Result) Faults() int64 {
	return r.FaultsInjected + int64(r.Kills+r.Partitions+r.PowerCuts)
}

// Summary renders a one-line verdict.
func (r *Result) Summary() string {
	verdict := "ok"
	if r.Failed() {
		verdict = fmt.Sprintf("FAIL (%d violations)", len(r.Violations))
	}
	if r.Kind != Storage {
		return fmt.Sprintf("%s seed=%d ops=%d gets=%d puts=%d errs=%d/%d scans=%d chunks=%d abandons=%d resumes=%d kills=%d parts=%d heals=%d cuts=%d drained=%d %s",
			r.Kind, r.Seed, r.Ops, r.Gets, r.Puts, r.GetErrors, r.PutErrors, r.Scans, r.ScanChunks,
			r.ScanAbandons, r.ScanResumes, r.Kills, r.Partitions, r.Heals, r.PowerCuts, r.HintsDrained, verdict)
	}
	ck := ""
	if r.Checkpoints > 0 {
		ck = fmt.Sprintf(" ckpts=%d", r.Checkpoints)
	}
	return fmt.Sprintf("seed=%d ops=%d gets=%d puts=%d flushes=%d(%d acked) crashes=%d%s faults=%d errs=%d/%d/%d %s",
		r.Seed, r.Ops, r.Gets, r.Puts, r.Flushes, r.AckedFlushes, r.Crashes, ck,
		r.FaultsInjected, r.GetErrors, r.PutErrors, r.FlushErrors, verdict)
}

// recorder collects one episode's verdict and op log.
type recorder struct {
	res *Result
	log strings.Builder
}

func (rc *recorder) violate(format string, args ...any) {
	rc.res.Violations = append(rc.res.Violations, fmt.Sprintf(format, args...))
	rc.logf("VIOLATION: "+format, args...)
}

func (rc *recorder) logf(format string, args ...any) {
	fmt.Fprintf(&rc.log, format, args...)
	rc.log.WriteByte('\n')
}

// tileBox returns model tile t's box: one routing tile on a cluster.
func tileBox(t int) layout.Box {
	lo := int64(t) * tileElems
	return layout.NewBox([]int64{lo}, []int64{lo + tileElems})
}

const arrayName = "T"

// Run executes one seeded episode of o.Kind and returns its verdict.
func Run(o Options) *Result {
	o = o.withDefaults()
	if o.Kind != Storage {
		return runCluster(o)
	}
	return runStorage(o)
}

// episode is the running state of one seeded storage simulation.
type episode struct {
	recorder
	o   Options
	rng *rand.Rand // the virtual scheduler's choices
	cl  []*rand.Rand
	inj *faultfs.Injector

	disk *ooc.Disk
	arr  *ooc.Array
	eng  *ooc.Engine

	// The sequential map-of-tiles model, element-exact.
	volatileT [][]float64 // expected current contents per tile
	acked     [][]float64 // contents at the last acknowledged flush
	pending   [][]float64 // values written since (candidates for partial durability)

	nextVal float64
}

func runStorage(o Options) *Result {
	ep := &episode{
		recorder: recorder{res: &Result{Seed: o.Seed}},
		o:        o,
		rng:      rand.New(rand.NewSource(o.Seed)),
		inj:      faultfs.New(o.Seed+1, o.Profile),
	}
	for c := 0; c < clients; c++ {
		ep.cl = append(ep.cl, rand.New(rand.NewSource(o.Seed+int64(c)*104729+7)))
	}
	ep.volatileT = make([][]float64, tiles)
	ep.acked = make([][]float64, tiles)
	ep.pending = make([][]float64, tiles)
	for t := 0; t < tiles; t++ {
		ep.volatileT[t] = make([]float64, tileElems)
		ep.acked[t] = make([]float64, tileElems)
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
		case o.WAL && ep.rng.Float64() < 1.0/checkpointOps:
			ep.checkpointOp()
		default:
			c := ep.rng.Intn(clients)
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
	ep.disk = ooc.NewDisk(0).WrapBackend(ep.inj.Wrap)
	if ep.o.WAL {
		ep.disk.EnableWAL(ooc.WALOptions{CapWords: walCapWords})
	}
	size := int64(tiles * tileElems)
	arr, err := ep.disk.CreateArray(ir.NewArray(arrayName, size), layout.RowMajor(size))
	if err != nil {
		// Creation is in-memory bookkeeping plus a zeroed store; it
		// cannot fail absent a harness bug.
		panic(fmt.Sprintf("dst: creating %s: %v", arrayName, err))
	}
	ep.arr = arr
	ep.eng = ooc.NewEngine(ep.disk, ooc.EngineOptions{CacheTiles: cacheTiles})
	if ep.o.WAL {
		if _, err := ep.disk.ReplayWAL(); err != nil {
			ep.violate("recovery: WAL replay failed: %v", err)
		}
	}
}

// clientOp advances one logical client: a GET or PUT on a tile chosen
// from the client's own stream.
func (ep *episode) clientOp(c int) {
	rng := ep.cl[c]
	t := rng.Intn(tiles)
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
	h, err := ep.eng.Acquire(ep.arr, tileBox(t))
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
	h, err := ep.eng.Acquire(ep.arr, tileBox(t))
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
// exactly even when the power cut landed mid-commit (log
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

	buf := make([]float64, tileElems)
	for t := 0; t < tiles; t++ {
		if err := ep.inj.ReadDurable(arrayName, buf, int64(t)*tileElems); err != nil {
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
