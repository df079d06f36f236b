// Package ooc is the out-of-core runtime: the role the PASSION library
// plays in the paper. It stores arrays in (simulated) files under a
// chosen file layout, moves rectangular data tiles between "disk" and
// "memory", enforces a memory budget, and accounts every I/O call and
// byte.
//
// The central costing rule matches the paper's model: reading a tile
// issues one I/O request per maximal contiguous file run the tile
// occupies (layout.Runs), further split by the per-call element cap
// (the paper's "at most 8 elements per I/O call" in Figure 3, 64 KB
// stripe units on the real PFS).
//
// # Thread safety
//
// The runtime is safe under concurrent Engine callers:
//
//   - Stats fields are updated atomically; Stats.Add may be called from
//     multiple goroutines. Reading individual fields is only safe once
//     the writers are quiescent (after Engine.Close / a WaitGroup
//     join); use Stats.Snapshot for a consistent copy while concurrent
//     updates may still be in flight.
//   - Disk accounting (global stats, per-file stats, the Record trace)
//     is safe under concurrent ReadTile/WriteTile/TouchRead/TouchWrite
//     from any number of goroutines. Trace entry ORDER is whatever the
//     goroutine interleaving produced; deterministic traces require
//     driving the Engine from one goroutine.
//   - Array data access is guarded by a per-array reader/writer lock:
//     any number of concurrent tile reads overlap, while a tile write
//     excludes both reads and other writes of the same array.
//   - Memory is mutex-guarded.
//   - CreateArray, ResetStats, Close and the setup helpers (Fill,
//     FromStore, SetAt) are NOT safe to run while tile I/O is in
//     flight; perform setup before handing the disk to an Engine.
package ooc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"outcore/internal/ir"
	"outcore/internal/keyhash"
	"outcore/internal/layout"
	"outcore/internal/obs"
)

// ElemSize is the byte size of one array element (double precision, as
// in the paper's experiments).
const ElemSize = 8

// MaxNameLen bounds array names in bytes: a WAL record frames the name
// length in its meta word's eight-bit field, and the serving layer
// holds every plane to the same bound.
const MaxNameLen = 255

// Stats accumulates I/O accounting. Mutation (Add, Disk accounting) is
// atomic per field; see the package doc for the read-side contract.
type Stats struct {
	ReadCalls    int64
	WriteCalls   int64
	ElemsRead    int64
	ElemsWritten int64
}

// Calls returns total I/O calls.
func (s Stats) Calls() int64 { return s.ReadCalls + s.WriteCalls }

// Bytes returns total bytes moved.
func (s Stats) Bytes() int64 { return (s.ElemsRead + s.ElemsWritten) * ElemSize }

// Add accumulates other into s. Safe for concurrent adders.
func (s *Stats) Add(o Stats) {
	atomic.AddInt64(&s.ReadCalls, o.ReadCalls)
	atomic.AddInt64(&s.WriteCalls, o.WriteCalls)
	atomic.AddInt64(&s.ElemsRead, o.ElemsRead)
	atomic.AddInt64(&s.ElemsWritten, o.ElemsWritten)
}

// Snapshot returns an atomically-loaded copy, safe while concurrent
// updates are in flight.
func (s *Stats) Snapshot() Stats {
	return Stats{
		ReadCalls:    atomic.LoadInt64(&s.ReadCalls),
		WriteCalls:   atomic.LoadInt64(&s.WriteCalls),
		ElemsRead:    atomic.LoadInt64(&s.ElemsRead),
		ElemsWritten: atomic.LoadInt64(&s.ElemsWritten),
	}
}

// Request is one recorded I/O call (element granularity).
type Request struct {
	Array string
	Off   int64 // file offset, in elements
	Len   int64 // length, in elements
	Write bool
}

// Disk simulates the storage subsystem: a set of per-array files plus
// global accounting. MaxCallElems caps how many contiguous elements a
// single I/O call may move (0 = unlimited).
type Disk struct {
	MaxCallElems int64
	Record       bool // capture per-call Trace (costly; tests/PFS replay only)

	Stats   Stats
	PerFile map[string]*Stats
	Trace   []Request

	mu           sync.Mutex // guards PerFile map structure, Trace, and the arrays map
	arrays       map[string]*Array
	dir          string // non-empty: back arrays with real files here
	keepExisting bool   // file backing: open without truncating
	noBacking    bool   // measurement-only arrays (no data)
	wrapBackend  func(name string, b Backend) Backend
	wal          *walSet // non-nil once EnableWAL configured write-ahead logging

	met *diskMetrics // non-nil once Observe attached a registry
}

// diskMetrics are the registry series the disk feeds when observed:
// call/element counters plus the per-call request-size histogram the
// paper's I/O model is all about (small scattered calls vs few large
// ones).
type diskMetrics struct {
	readCalls, writeCalls *obs.Counter
	readElems, writeElems *obs.Counter
	reqElems              *obs.Histogram
}

// Observe registers the disk's accounting into the sink's metrics
// registry (shared "ooc_io_*" series; several disks may observe the
// same registry and accumulate). A nil sink or registry is a no-op.
// Like the other setup helpers, call it before tile I/O starts. It
// returns d for chaining.
func (d *Disk) Observe(sink *obs.Sink) *Disk {
	reg := sink.MetricsOf()
	if reg == nil {
		return d
	}
	d.met = &diskMetrics{
		readCalls:  reg.Counter("ooc_io_read_calls_total", "backend read calls issued"),
		writeCalls: reg.Counter("ooc_io_write_calls_total", "backend write calls issued"),
		readElems:  reg.Counter("ooc_io_read_elems_total", "elements read from the backend"),
		writeElems: reg.Counter("ooc_io_write_elems_total", "elements written to the backend"),
		reqElems: reg.Histogram("ooc_request_elems",
			"elements moved per backend I/O call", obs.ExpBuckets(1, 4, 10)),
	}
	return d
}

// observeRuns feeds the request-size histogram with the per-call
// lengths the runs split into (mirroring callsFor's cap splitting).
func (d *Disk) observeRuns(runs []layout.Run) {
	m := d.met
	if m == nil {
		return
	}
	for _, r := range runs {
		if d.MaxCallElems <= 0 || r.Len <= d.MaxCallElems {
			m.reqElems.Observe(float64(r.Len))
			continue
		}
		for rem := r.Len; rem > 0; rem -= d.MaxCallElems {
			l := d.MaxCallElems
			if rem < l {
				l = rem
			}
			m.reqElems.Observe(float64(l))
		}
	}
}

// NewDisk returns an empty disk with the given per-call element cap.
func NewDisk(maxCallElems int64) *Disk {
	return &Disk{
		MaxCallElems: maxCallElems,
		PerFile:      map[string]*Stats{},
		arrays:       map[string]*Array{},
	}
}

// ResetStats clears accounting but keeps file contents. Not safe while
// tile I/O is in flight.
func (d *Disk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.Stats = Stats{}
	d.PerFile = map[string]*Stats{}
	d.Trace = nil
}

// Array is an out-of-core array: file-resident data under a layout.
type Array struct {
	Meta    *ir.Array
	Layout  *layout.Layout
	disk    *Disk
	backend Backend
	bmu     sync.RWMutex // readers: ReadTile; writers: WriteTile
	nameSum uint64       // keyhash.String(Meta.Name), the seed of the engine's tile hash
}

// ErrArrayExists is returned (wrapped) by CreateArray when an array of
// the same name is already on the disk; match it with errors.Is.
var ErrArrayExists = errors.New("ooc: array already exists")

// CreateArray allocates the file for an array under the given layout.
// Creating the same array twice is an error. Unlike the data setup
// helpers, creation is mutex-guarded, so a serving layer may create
// arrays while tile I/O on OTHER arrays is in flight; I/O on the array
// being created must still wait for CreateArray to return.
func (d *Disk) CreateArray(a *ir.Array, l *layout.Layout) (*Array, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.arrays[a.Name]; dup {
		return nil, fmt.Errorf("%w: %s", ErrArrayExists, a.Name)
	}
	if l.Size() != a.Len() {
		return nil, fmt.Errorf("ooc: layout size %d != array size %d for %s", l.Size(), a.Len(), a.Name)
	}
	if err := d.CheckKept(a.Name, a.Len()); err != nil {
		return nil, err
	}
	if d.wal != nil {
		if n := len(a.Name); n == 0 || n > MaxNameLen {
			return nil, fmt.Errorf("ooc: array name of %d bytes cannot be framed in a WAL record (1..%d)", n, MaxNameLen)
		}
		// Logs open before the first array so reopen-after-crash adopts
		// them in a deterministic order.
		if err := d.wal.ensureLog(d); err != nil {
			return nil, err
		}
	}
	backend, err := d.newBackend(a.Name, a.Len())
	if err != nil {
		return nil, fmt.Errorf("ooc: creating backing for %s: %w", a.Name, err)
	}
	if d.wal != nil {
		backend = d.wal.attach(a.Name, backend)
	}
	arr := &Array{Meta: a, Layout: l, disk: d, backend: backend, nameSum: keyhash.String(a.Name)}
	d.arrays[a.Name] = arr
	d.PerFile[a.Name] = &Stats{}
	return arr, nil
}

// ArrayOf returns the out-of-core array for a, or nil.
func (d *Disk) ArrayOf(a *ir.Array) *Array { return d.ArrayByName(a.Name) }

// ArrayByName returns the array named name, or nil.
func (d *Disk) ArrayByName(name string) *Array {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.arrays[name]
}

// Arrays returns every array on the disk, sorted by name (serving and
// telemetry; the order is stable for listings).
func (d *Disk) Arrays() []*Array {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sortedArraysLocked()
}

// callsFor splits contiguous runs by the per-call cap.
func (d *Disk) callsFor(runs []layout.Run) int64 {
	var calls int64
	for _, r := range runs {
		if d.MaxCallElems <= 0 {
			calls++
			continue
		}
		calls += (r.Len + d.MaxCallElems - 1) / d.MaxCallElems
	}
	return calls
}

// recordRuns appends per-call trace entries for the runs.
func (d *Disk) recordRuns(name string, runs []layout.Run, write bool) {
	if !d.Record {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, r := range runs {
		if d.MaxCallElems <= 0 {
			d.Trace = append(d.Trace, Request{Array: name, Off: r.Off, Len: r.Len, Write: write})
			continue
		}
		for off := r.Off; off < r.Off+r.Len; off += d.MaxCallElems {
			l := d.MaxCallElems
			if off+l > r.Off+r.Len {
				l = r.Off + r.Len - off
			}
			d.Trace = append(d.Trace, Request{Array: name, Off: off, Len: l, Write: write})
		}
	}
}

// account updates global and per-file stats (atomically, so concurrent
// tile operations may account in parallel).
func (d *Disk) account(name string, calls, elems int64, write bool) {
	d.mu.Lock()
	fs := d.PerFile[name]
	if fs == nil {
		fs = &Stats{}
		d.PerFile[name] = fs
	}
	d.mu.Unlock()
	var delta Stats
	if write {
		delta.WriteCalls, delta.ElemsWritten = calls, elems
	} else {
		delta.ReadCalls, delta.ElemsRead = calls, elems
	}
	d.Stats.Add(delta)
	fs.Add(delta)
	if m := d.met; m != nil {
		if write {
			m.writeCalls.Add(calls)
			m.writeElems.Add(elems)
		} else {
			m.readCalls.Add(calls)
			m.readElems.Add(elems)
		}
	}
}

// setupChunk is the buffer size for whole-array setup helpers.
const setupChunk = 1 << 16

// Fill initializes the whole array in place from a coordinate function
// WITHOUT accounting I/O (test/benchmark setup, not workload I/O). The
// slice f receives is reused from element to element; f must not keep
// it. On a WAL'd disk the set-up helpers (Fill, FromStore, SetAt) write
// through UNLOGGED: the next commit checkpoints before it acknowledges
// anything, and until then the fill promises nothing.
func (ar *Array) Fill(f func(c []int64) float64) {
	size := ar.Layout.Size()
	buf := make([]float64, minI64ooc(setupChunk, size))
	var c []int64
	for base := int64(0); base < size; base += int64(len(buf)) {
		n := minI64ooc(int64(len(buf)), size-base)
		for i := int64(0); i < n; i++ {
			c = ar.Layout.AppendCoord(c[:0], base+i)
			buf[i] = f(c)
		}
		if err := ar.backend.WriteAt(buf[:n], base); err != nil {
			panic(err)
		}
	}
}

// At reads one element directly (no accounting; verification helper).
func (ar *Array) At(c []int64) float64 {
	var buf [1]float64
	if err := ar.backend.ReadAt(buf[:], ar.Layout.Offset(c)); err != nil {
		panic(err)
	}
	return buf[0]
}

// SetAt writes one element directly (no accounting; setup helper).
func (ar *Array) SetAt(c []int64, v float64) {
	buf := [1]float64{v}
	if err := ar.backend.WriteAt(buf[:], ar.Layout.Offset(c)); err != nil {
		panic(err)
	}
}

// ToStore copies the array contents into an in-core store for
// verification against a reference execution.
func (ar *Array) ToStore(s *ir.Store) {
	size := ar.Layout.Size()
	buf := make([]float64, minI64ooc(setupChunk, size))
	var c []int64
	for base := int64(0); base < size; base += int64(len(buf)) {
		n := minI64ooc(int64(len(buf)), size-base)
		if err := ar.backend.ReadAt(buf[:n], base); err != nil {
			panic(err)
		}
		for i := int64(0); i < n; i++ {
			c = ar.Layout.AppendCoord(c[:0], base+i)
			s.Set(ar.Meta, c, buf[i])
		}
	}
}

// FromStore loads the array contents from an in-core store (no
// accounting; setup helper).
func (ar *Array) FromStore(s *ir.Store) {
	size := ar.Layout.Size()
	buf := make([]float64, minI64ooc(setupChunk, size))
	var c []int64
	for base := int64(0); base < size; base += int64(len(buf)) {
		n := minI64ooc(int64(len(buf)), size-base)
		for i := int64(0); i < n; i++ {
			c = ar.Layout.AppendCoord(c[:0], base+i)
			buf[i] = s.Get(ar.Meta, c)
		}
		if err := ar.backend.WriteAt(buf[:n], base); err != nil {
			panic(err)
		}
	}
}

func minI64ooc(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Tile is an in-memory rectangular window of an out-of-core array.
type Tile struct {
	Arr  *Array
	Box  layout.Box
	data []float64 // box-local row-major

	// The mover's scratch, reused by every move of this tile. An engine
	// frame keeps its Tile across the boxes it holds, so a steady stream
	// of misses and write-backs plans and bounces without allocating.
	segs   []layout.Seg
	runs   []layout.Run
	bounce []float64
}

// ReadTile brings the (clipped) box into memory, charging one I/O call
// per contiguous run segment (split by the call cap).
func (ar *Array) ReadTile(box layout.Box) (*Tile, error) {
	t := newTile(ar, box.Clip(ar.Meta.Dims))
	if err := t.read(); err != nil {
		return nil, err
	}
	return t, nil
}

// read fills the tile's buffer (already sized to its box) from the
// backend: one backend read per run, straight into the tile where the
// run is one stretch of it, else scattered from the bounce buffer.
// Concurrent reads overlap; a concurrent write excludes them.
func (t *Tile) read() error {
	ar := t.Arr
	segs, runs := t.plan(false)
	ar.bmu.RLock()
	defer ar.bmu.RUnlock()
	for _, r := range runs {
		var rs []layout.Seg
		rs, segs = cutRun(segs, r)
		buf := t.stretch(rs)
		direct := buf != nil
		if !direct {
			buf = t.bounceFor(runs, r)
		}
		if err := ar.backend.ReadAt(buf, r.Off); err != nil {
			return fmt.Errorf("ooc: reading %s run [%d,%d): %w", ar.Meta.Name, r.Off, r.Off+r.Len, err)
		}
		if !direct {
			t.scatter(rs, buf, r.Off)
		}
	}
	return nil
}

// plan walks the tile's box into its segment and run scratch and
// charges the move to the disk's accounting.
func (t *Tile) plan(write bool) ([]layout.Seg, []layout.Run) {
	ar := t.Arr
	t.segs = ar.Layout.AppendSegments(t.segs[:0], t.Box)
	t.runs = layout.AppendRuns(t.runs[:0], t.segs)
	ar.disk.account(ar.Meta.Name, ar.disk.callsFor(t.runs), t.Box.Size(), write)
	ar.disk.recordRuns(ar.Meta.Name, t.runs, write)
	ar.disk.observeRuns(t.runs)
	return t.segs, t.runs
}

// bounceFor returns the tile's bounce buffer resliced to run r of runs.
// A buffer too short for r is replaced by one that fits the longest of
// runs, so a move allocates it at most once and a recycled tile keeps
// it for the next move.
func (t *Tile) bounceFor(runs []layout.Run, r layout.Run) []float64 {
	if int64(cap(t.bounce)) < r.Len {
		var n int64
		for _, r := range runs {
			n = max(n, r.Len)
		}
		t.bounce = make([]float64, n)
	}
	return t.bounce[:r.Len]
}

// scatter places a run read into buf (file offset base onwards) at its
// segments' tile positions; gather is the inverse, filling buf from the
// tile. Stride-1 segments are block copies, the rest step by Stride.
func (t *Tile) scatter(rs []layout.Seg, buf []float64, base int64) {
	for _, s := range rs {
		src := buf[s.Off-base:][:s.Len]
		if s.Stride == 1 {
			copy(t.data[s.Idx:], src)
			continue
		}
		idx := s.Idx
		for _, v := range src {
			t.data[idx] = v
			idx += s.Stride
		}
	}
}

func (t *Tile) gather(rs []layout.Seg, buf []float64, base int64) {
	for _, s := range rs {
		dst := buf[s.Off-base:][:s.Len]
		if s.Stride == 1 {
			copy(dst, t.data[s.Idx:])
			continue
		}
		idx := s.Idx
		for i := range dst {
			dst[i] = t.data[idx]
			idx += s.Stride
		}
	}
}

// cutRun splits off the leading segments that make up run r.
func cutRun(segs []layout.Seg, r layout.Run) (in, rest []layout.Seg) {
	n := 0
	for n < len(segs) && segs[n].Off < r.Off+r.Len {
		n++
	}
	return segs[:n], segs[n:]
}

// stretch returns the part of the tile buffer a run's segments occupy
// when they are stride-1 and adjacent in the tile as well as in the
// file, so the backend can move the run with no bounce buffer; else
// nil.
func (t *Tile) stretch(rs []layout.Seg) []float64 {
	next := rs[0].Idx
	for _, s := range rs {
		if s.Idx != next || (s.Stride != 1 && s.Len != 1) {
			return nil
		}
		next += s.Len
	}
	return t.data[rs[0].Idx:next]
}

// TouchRead accounts the I/O of reading the box without moving any
// data: the measurement path for dry-run schedule execution, where only
// call counts, bytes and the request trace matter.
func (ar *Array) TouchRead(box layout.Box) {
	(&Tile{Arr: ar, Box: box.Clip(ar.Meta.Dims)}).plan(false)
}

// TouchWrite accounts the I/O of writing the box without moving data.
func (ar *Array) TouchWrite(box layout.Box) {
	(&Tile{Arr: ar, Box: box.Clip(ar.Meta.Dims)}).plan(true)
}

// NewTileZero allocates an in-memory tile without reading (for pure
// output tiles that will be fully overwritten).
func (ar *Array) NewTileZero(box layout.Box) *Tile {
	return newTile(ar, box.Clip(ar.Meta.Dims))
}

// WriteTile flushes the tile back to disk, charging one I/O call per
// contiguous run segment (split by the call cap). On a WAL'd disk it
// is the logged write: the whole tile is appended as one redo record
// before its runs are written through.
func (t *Tile) WriteTile() error {
	ar := t.Arr
	segs, runs := t.plan(true)
	ar.bmu.Lock()
	defer ar.bmu.Unlock()
	if wb, ok := ar.backend.(*walBackend); ok {
		return wb.writeTile(t, segs, runs)
	}
	for _, r := range runs {
		var rs []layout.Seg
		rs, segs = cutRun(segs, r)
		buf := t.stretch(rs)
		if buf == nil {
			buf = t.bounceFor(runs, r)
			t.gather(rs, buf, r.Off)
		}
		if err := ar.backend.WriteAt(buf, r.Off); err != nil {
			return fmt.Errorf("ooc: writing %s run [%d,%d): %w", ar.Meta.Name, r.Off, r.Off+r.Len, err)
		}
	}
	return nil
}

// newTile allocates a tile (zeroed) for an already clipped box.
func newTile(ar *Array, box layout.Box) *Tile {
	return &Tile{Arr: ar, Box: box, data: make([]float64, box.Size())}
}

// Size returns the tile's element count.
func (t *Tile) Size() int64 { return t.Box.Size() }

// Data returns the tile's backing slice in box-local row-major order
// (the serving layer's wire format). Mutating it mutates the tile;
// writers must release the tile dirty so the change is written back.
func (t *Tile) Data() []float64 { return t.data }

// Memory enforces the in-core memory budget the paper imposes (1/128th
// of the out-of-core data size in the experiments). Safe for concurrent
// use.
type Memory struct {
	Capacity int64 // elements
	mu       sync.Mutex
	used     int64
	peak     int64
}

// NewMemory returns a budget of the given element capacity (0 =
// unlimited).
func NewMemory(capacityElems int64) *Memory { return &Memory{Capacity: capacityElems} }

// Alloc reserves n elements, failing when the budget would overflow.
func (m *Memory) Alloc(n int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.Capacity > 0 && m.used+n > m.Capacity {
		return fmt.Errorf("ooc: memory budget exceeded: %d + %d > %d elements", m.used, n, m.Capacity)
	}
	m.used += n
	if m.used > m.peak {
		m.peak = m.used
	}
	return nil
}

// Release returns n elements to the budget.
func (m *Memory) Release(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.used -= n
	if m.used < 0 {
		panic("ooc: memory release underflow")
	}
}

// Used returns the current allocation.
func (m *Memory) Used() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// Peak returns the high-water mark.
func (m *Memory) Peak() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}
