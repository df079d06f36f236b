// Package faultfs is a deterministic fault-injecting ooc.Backend
// wrapper: the storage adversary the crash-consistency harness
// (internal/dst) and the chaos tooling (cmd/occhaos, occd -faults)
// run the out-of-core stack against.
//
// Every fault decision — injected read/write errors, out-of-space,
// torn writes, sync failures, lying syncs, simulated latency — is
// drawn from a single seeded PRNG in backend-call order and appended
// to a textual schedule, so a run that issues the same operation
// sequence against the same seed produces a byte-identical schedule
// and byte-identical outcomes. A failing chaos episode therefore
// replays exactly from its seed.
//
// # Crash simulation
//
// The injector tracks, per wrapped backend, an undo log of every
// write since the last acknowledged Sync. Crash "cuts power": all
// unsynced writes are reverted, leaving exactly the state a real
// process death between write and fsync leaves (modulo injected torn
// writes, whose surviving prefixes a later successful Sync makes
// durable). After Crash, reuse the injector's Wrap hook on a fresh
// Disk to "reboot" against the surviving durable state.
//
// Crash-and-reopen only preserves data for memory-backed disks (or
// file-backed disks opened with KeepExisting): a default file-backed
// CreateArray truncates the backing file before the wrap hook runs.
//
// # Determinism contract
//
// The schedule is deterministic exactly when the backend-call order
// is: drive the stack (the engine is synchronous) from one goroutine
// for replayable runs. Concurrent use is safe (one mutex serializes
// decisions) but interleaving then picks the schedule.
package faultfs

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"outcore/internal/obs"
	"outcore/internal/ooc"
)

// ErrInjected is the root of every injected failure; match with
// errors.Is to distinguish injected faults from real ones.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrIO is an injected I/O error (the simulated EIO).
var ErrIO = fmt.Errorf("%w: I/O error", ErrInjected)

// ErrNoSpace is an injected out-of-space error (the simulated ENOSPC).
var ErrNoSpace = fmt.Errorf("%w: no space left on device", ErrInjected)

// Profile sets per-operation fault probabilities (each in [0, 1]).
// The zero Profile injects nothing and only records the schedule.
type Profile struct {
	// ReadErr fails ReadAt with ErrIO, touching no data.
	ReadErr float64
	// WriteErr fails WriteAt with ErrIO before any element is stored.
	WriteErr float64
	// WriteNoSpace fails WriteAt with ErrNoSpace before any element is
	// stored.
	WriteNoSpace float64
	// TornWrite applies a strict prefix of the buffer (possibly zero
	// elements) and fails with ErrIO: the partial write a power cut or
	// full disk mid-call leaves behind.
	TornWrite float64
	// SyncErr fails Sync with ErrIO; the writes since the last
	// acknowledged sync stay volatile (a crash still drops them).
	SyncErr float64
	// SyncDrop makes Sync lie: it reports success without making the
	// pending writes durable. This simulates a buggy device, not a
	// POSIX-conformant failure — correct software CANNOT survive it,
	// and the dst checker uses it to prove it detects lost
	// acknowledged writes. Keep it zero in correctness episodes.
	SyncDrop float64
	// LatencyTicks adds up to this many virtual ticks of simulated
	// latency per operation (0 disables). Ticks only advance the
	// injector's virtual clock and appear in the schedule; nothing
	// sleeps.
	LatencyTicks int64
}

// injMetrics are the registry series an observed injector feeds.
type injMetrics struct {
	ops    *obs.Counter
	faults *obs.Counter
}

// Injector owns the PRNG, the schedule, and the durable/volatile
// bookkeeping for every backend it wraps. Create one per episode.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	prof   Profile
	armed  bool
	seq    int64
	ticks  int64
	faults int64
	sched  strings.Builder
	backs  map[string]*Backend
	met    *injMetrics
}

// New returns an injector drawing every fault decision from seed.
func New(seed int64, p Profile) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		prof:  p,
		armed: true,
		backs: map[string]*Backend{},
	}
}

// Observe registers injection counters into the sink's metrics
// registry (faultfs_ops_total, faultfs_injected_total). A nil sink or
// registry is a no-op. Returns the injector for chaining.
func (in *Injector) Observe(sink *obs.Sink) *Injector {
	reg := sink.MetricsOf()
	if reg == nil {
		return in
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.met = &injMetrics{
		ops:    reg.Counter("faultfs_ops_total", "backend operations seen by the fault injector"),
		faults: reg.Counter("faultfs_injected_total", "faults injected into backend operations"),
	}
	return in
}

// Heal disarms fault injection: subsequent operations pass through
// (still recorded). Episodes heal before a final flush so every write
// can reach durability and the strict end-state check applies.
func (in *Injector) Heal() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.armed = false
	in.logf("heal")
}

// Arm re-enables fault injection after Heal.
func (in *Injector) Arm() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.armed = true
	in.logf("arm")
}

// Wrap is the Disk.WrapBackend hook. The first wrap of a name adopts
// inner as that array's durable store; a later wrap of the same name
// (reopening after Crash) discards the replacement backend and
// returns the surviving store, so the reopened disk sees exactly the
// data that was durable at the crash.
func (in *Injector) Wrap(name string, inner ooc.Backend) ooc.Backend {
	in.mu.Lock()
	defer in.mu.Unlock()
	if b, ok := in.backs[name]; ok {
		in.logf("reopen %s", name)
		return b
	}
	b := &Backend{in: in, name: name, inner: inner}
	in.backs[name] = b
	in.logf("open %s size=%d", name, inner.Size())
	return b
}

// Crash cuts power: every write not acknowledged by a successful Sync
// is reverted, in all wrapped backends, leaving only durable state.
// The engine/disk above must be abandoned (not closed — closing
// flushes); reopen by handing Wrap to a fresh disk.
func (in *Injector) Crash() {
	in.mu.Lock()
	defer in.mu.Unlock()
	names := make([]string, 0, len(in.backs))
	for name := range in.backs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := in.backs[name]
		n := len(b.undo)
		for i := n - 1; i >= 0; i-- {
			u := b.undo[i]
			if err := b.inner.WriteAt(u.old, u.off); err != nil {
				// The inner store refused a revert we previously read
				// from it; the simulation cannot continue meaningfully.
				panic(fmt.Sprintf("faultfs: crash revert of %s [%d,%d): %v",
					name, u.off, u.off+int64(len(u.old)), err))
			}
		}
		b.undo = nil
		in.logf("crash %s reverted=%d", name, n)
	}
}

// ReadDurable reads the current durable contents of the named
// backend, bypassing fault injection and volatile bookkeeping — the
// checker's view after a crash. Note that between crashes the inner
// store also holds unsynced (volatile) writes; call Crash first for a
// strictly durable view.
func (in *Injector) ReadDurable(name string, buf []float64, off int64) error {
	in.mu.Lock()
	b := in.backs[name]
	in.mu.Unlock()
	if b == nil {
		return fmt.Errorf("faultfs: no wrapped backend %q", name)
	}
	return b.inner.ReadAt(buf, off)
}

// Schedule returns the fault schedule recorded so far: one line per
// decision, byte-identical across runs with the same seed and
// operation sequence.
func (in *Injector) Schedule() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.sched.String()
}

// Injected returns how many faults have been injected.
func (in *Injector) Injected() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.faults
}

// VirtualTicks returns the accumulated simulated latency.
func (in *Injector) VirtualTicks() int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ticks
}

// logf appends one schedule line (callers hold mu).
func (in *Injector) logf(format string, args ...any) {
	fmt.Fprintf(&in.sched, "%05d ", in.seq)
	fmt.Fprintf(&in.sched, format, args...)
	in.sched.WriteByte('\n')
	in.seq++
}

// draw consumes one uniform variate (callers hold mu).
func (in *Injector) draw() float64 { return in.rng.Float64() }

// latency draws the operation's simulated latency ticks (callers hold
// mu).
func (in *Injector) latency() int64 {
	if in.prof.LatencyTicks <= 0 {
		return 0
	}
	t := in.rng.Int63n(in.prof.LatencyTicks + 1)
	in.ticks += t
	return t
}

// fault counts one injected fault (callers hold mu).
func (in *Injector) fault() {
	in.faults++
	if in.met != nil {
		in.met.faults.Inc()
	}
}

func (in *Injector) op() {
	if in.met != nil {
		in.met.ops.Inc()
	}
}

// undoRec remembers the elements a write overwrote, for crash revert.
type undoRec struct {
	off int64
	old []float64
}

// Backend wraps one array's store with fault injection. Obtain it via
// Injector.Wrap (normally through Disk.WrapBackend).
type Backend struct {
	in    *Injector
	name  string
	inner ooc.Backend
	undo  []undoRec // writes since the last acknowledged sync
}

// ReadAt reads through to the store, or fails with an injected ErrIO.
func (b *Backend) ReadAt(buf []float64, off int64) error {
	b.in.mu.Lock()
	b.in.op()
	ticks := b.in.latency()
	if b.in.armed && b.in.draw() < b.in.prof.ReadErr {
		b.in.fault()
		b.in.logf("r %s off=%d len=%d t=%d -> eio", b.name, off, len(buf), ticks)
		b.in.mu.Unlock()
		return fmt.Errorf("faultfs: read %s [%d,%d): %w", b.name, off, off+int64(len(buf)), ErrIO)
	}
	b.in.logf("r %s off=%d len=%d t=%d -> ok", b.name, off, len(buf), ticks)
	err := b.inner.ReadAt(buf, off)
	b.in.mu.Unlock()
	return err
}

// WriteAt stores buf, or injects: ErrIO / ErrNoSpace before any
// element lands, or a torn write that stores a strict prefix and then
// fails. Whatever lands is recorded in the undo log and stays
// volatile until the next acknowledged Sync.
func (b *Backend) WriteAt(buf []float64, off int64) error {
	b.in.mu.Lock()
	b.in.op()
	ticks := b.in.latency()
	n := len(buf) // elements that will actually be applied
	var verdict string
	var err error
	if b.in.armed {
		p := b.in.prof
		switch u := b.in.draw(); {
		case u < p.WriteErr:
			n, verdict = 0, "eio"
			err = fmt.Errorf("faultfs: write %s [%d,%d): %w", b.name, off, off+int64(len(buf)), ErrIO)
		case u < p.WriteErr+p.WriteNoSpace:
			n, verdict = 0, "enospc"
			err = fmt.Errorf("faultfs: write %s [%d,%d): %w", b.name, off, off+int64(len(buf)), ErrNoSpace)
		case u < p.WriteErr+p.WriteNoSpace+p.TornWrite:
			n = b.in.rng.Intn(len(buf) + 1)
			if n == len(buf) && n > 0 {
				n-- // torn means a strict prefix
			}
			verdict = fmt.Sprintf("torn:%d", n)
			err = fmt.Errorf("faultfs: write %s [%d,%d): torn after %d of %d elements: %w",
				b.name, off, off+int64(len(buf)), n, len(buf), ErrIO)
		}
	}
	if err != nil {
		b.in.fault()
	} else {
		verdict = "ok"
	}
	if n > 0 {
		old := make([]float64, n)
		if rerr := b.inner.ReadAt(old, off); rerr != nil {
			b.in.logf("w %s off=%d len=%d t=%d -> undo-read-failed", b.name, off, len(buf), ticks)
			b.in.mu.Unlock()
			return fmt.Errorf("faultfs: snapshotting undo for %s [%d,%d): %v", b.name, off, off+int64(n), rerr)
		}
		if werr := b.inner.WriteAt(buf[:n], off); werr != nil {
			b.in.logf("w %s off=%d len=%d t=%d -> inner-failed", b.name, off, len(buf), ticks)
			b.in.mu.Unlock()
			return werr
		}
		b.undo = append(b.undo, undoRec{off: off, old: old})
	}
	b.in.logf("w %s off=%d len=%d t=%d -> %s", b.name, off, len(buf), ticks, verdict)
	b.in.mu.Unlock()
	return err
}

// Sync acknowledges the pending writes (clearing the undo log), or
// injects: ErrIO with the writes left volatile, or — with SyncDrop —
// a lying success that leaves them volatile anyway.
func (b *Backend) Sync() error {
	b.in.mu.Lock()
	b.in.op()
	ticks := b.in.latency()
	if b.in.armed {
		p := b.in.prof
		switch u := b.in.draw(); {
		case u < p.SyncErr:
			b.in.fault()
			b.in.logf("s %s pend=%d t=%d -> eio", b.name, len(b.undo), ticks)
			b.in.mu.Unlock()
			return fmt.Errorf("faultfs: sync %s: %w", b.name, ErrIO)
		case u < p.SyncErr+p.SyncDrop:
			b.in.fault()
			b.in.logf("s %s pend=%d t=%d -> drop", b.name, len(b.undo), ticks)
			b.in.mu.Unlock()
			return nil
		}
	}
	err := b.inner.Sync()
	if err == nil {
		b.undo = nil
	}
	b.in.logf("s %s pend=0 t=%d -> ok", b.name, ticks)
	b.in.mu.Unlock()
	return err
}

// Size reports the store's capacity.
func (b *Backend) Size() int64 { return b.inner.Size() }

// Close closes the store (a clean close syncs inside the inner
// backend where that means anything). The undo log is cleared: a
// clean shutdown is by definition not a crash.
func (b *Backend) Close() error {
	b.in.mu.Lock()
	b.undo = nil
	b.in.logf("close %s", b.name)
	b.in.mu.Unlock()
	return b.inner.Close()
}
