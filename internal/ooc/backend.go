package ooc

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Backend stores an array's file contents. Offsets and lengths are in
// elements. The in-memory backend is the default (simulation and
// tests); the file backend performs real operating-system I/O, one
// ReadAt/WriteAt per runtime request, for running genuinely
// disk-resident workloads.
//
// # Single-writer contract
//
// A file-backed array has exactly one writer: the Disk that created it.
// Nothing in the runtime coordinates two processes (or two Disks in one
// process) mutating the same backing file — their tile caches would
// each believe their own copy is current and silently clobber the
// other's write-backs. The file backend therefore takes an exclusive
// lock (a sibling ".lock" file created O_EXCL) for the lifetime of the
// open and a second open of the same path fails with a clear error
// instead of truncating live data. The lock is released by Close; a
// crash can leave it behind, in which case the error names the stale
// lock file to remove.
type Backend interface {
	// ReadAt fills buf with the elements starting at element offset off.
	ReadAt(buf []float64, off int64) error
	// WriteAt stores buf at element offset off.
	WriteAt(buf []float64, off int64) error
	// Sync forces buffered writes down to stable storage (a no-op for
	// memory-resident backends). The engine calls it on Flush/Close so
	// a drained server loses nothing that was acknowledged.
	Sync() error
	// Size returns the backend capacity in elements.
	Size() int64
	// Close releases resources (syncing first, where that means
	// anything).
	Close() error
}

// memBackend keeps the file contents in memory.
type memBackend struct {
	data []float64
}

func newMemBackend(n int64) *memBackend { return &memBackend{data: make([]float64, n)} }

func (m *memBackend) ReadAt(buf []float64, off int64) error {
	if off < 0 || off+int64(len(buf)) > int64(len(m.data)) {
		return fmt.Errorf("ooc: mem read [%d,%d) out of range %d", off, off+int64(len(buf)), len(m.data))
	}
	copy(buf, m.data[off:])
	return nil
}

func (m *memBackend) WriteAt(buf []float64, off int64) error {
	if off < 0 || off+int64(len(buf)) > int64(len(m.data)) {
		return fmt.Errorf("ooc: mem write [%d,%d) out of range %d", off, off+int64(len(buf)), len(m.data))
	}
	copy(m.data[off:], buf)
	return nil
}

func (m *memBackend) Size() int64 { return int64(len(m.data)) }
func (m *memBackend) Sync() error { return nil }

// Close keeps the contents: like a closed file, they outlive the
// handle, so a fault injector holding the store reopens it intact.
func (m *memBackend) Close() error { return nil }

// fileBackend stores elements as little-endian float64 in a real file.
type fileBackend struct {
	f    *os.File
	lock string // sibling lock file; removed on Close
	size int64
}

// newFileBackend opens the backing file of n elements, locked for
// exclusive use (see the single-writer contract on Backend). With keep
// false the file is created zero-filled, truncating any previous
// contents; with keep true existing contents survive and the file is
// resized to n elements (Disk.CheckKept refuses a kept array file of
// another size before it gets here).
func newFileBackend(path string, n int64, keep bool) (*fileBackend, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	lock := path + ".lock"
	lf, err := os.OpenFile(lock, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("ooc: backing file %s is already open by another engine "+
				"(single-writer contract); if no other process is using it, remove the stale lock %s",
				path, lock)
		}
		return nil, err
	}
	fmt.Fprintf(lf, "%d\n", os.Getpid())
	if err := lf.Close(); err != nil {
		os.Remove(lock)
		return nil, err
	}
	flags := os.O_RDWR | os.O_CREATE
	if !keep {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		os.Remove(lock)
		return nil, err
	}
	fail := func(err error) (*fileBackend, error) {
		f.Close()
		os.Remove(lock)
		return nil, err
	}
	if err := f.Truncate(n * ElemSize); err != nil {
		return fail(err)
	}
	return &fileBackend{f: f, lock: lock, size: n}, nil
}

func (fb *fileBackend) ReadAt(buf []float64, off int64) error {
	raw := GetBuf(len(buf) * ElemSize)
	defer PutBuf(raw)
	if _, err := fb.f.ReadAt(raw, off*ElemSize); err != nil {
		return err
	}
	for i := range buf {
		buf[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*ElemSize:]))
	}
	return nil
}

func (fb *fileBackend) WriteAt(buf []float64, off int64) error {
	raw := GetBuf(len(buf) * ElemSize)
	defer PutBuf(raw)
	for i, v := range buf {
		binary.LittleEndian.PutUint64(raw[i*ElemSize:], math.Float64bits(v))
	}
	_, err := fb.f.WriteAt(raw, off*ElemSize)
	return err
}

func (fb *fileBackend) Size() int64 { return fb.size }
func (fb *fileBackend) Sync() error { return fb.f.Sync() }

func (fb *fileBackend) Close() error {
	err := fb.f.Sync()
	if cerr := fb.f.Close(); err == nil {
		err = cerr
	}
	if rerr := os.Remove(fb.lock); err == nil {
		err = rerr
	}
	return err
}

// nullBackend carries no data: it backs measurement-only (dry-run)
// disks, where only accounting matters. Data access is a programming
// error and fails loudly.
type nullBackend struct{ size int64 }

func (n nullBackend) ReadAt([]float64, int64) error {
	return fmt.Errorf("ooc: data access on a measurement-only (null-backed) array")
}
func (n nullBackend) WriteAt([]float64, int64) error {
	return fmt.Errorf("ooc: data access on a measurement-only (null-backed) array")
}
func (n nullBackend) Size() int64  { return n.size }
func (n nullBackend) Sync() error  { return nil }
func (n nullBackend) Close() error { return nil }

// Dir configures a disk to back arrays with real files under dir.
// Call Close to release the file handles (and the exclusive locks the
// single-writer contract takes per file).
func (d *Disk) Dir(dir string) *Disk {
	d.dir = dir
	return d
}

// KeepExisting configures a file-backed disk to open existing backing
// files without truncating them: reopening a directory a previous
// (cleanly closed) disk wrote sees its data. The default is to create
// arrays zero-filled.
func (d *Disk) KeepExisting() *Disk {
	d.keepExisting = true
	return d
}

// NoBacking configures a disk for measurement-only use: arrays carry no
// data, only accounting. ReadTile/WriteTile fail; TouchRead/TouchWrite
// work.
func (d *Disk) NoBacking() *Disk {
	d.noBacking = true
	return d
}

// WrapBackend installs a hook that wraps every subsequently created
// array's backend — instrumentation (call counting, injected latency,
// fault injection) for tests and the shared-cold-read proofs.
// Like the other setup helpers it must be called before arrays are
// created.
func (d *Disk) WrapBackend(wrap func(name string, b Backend) Backend) *Disk {
	d.wrapBackend = wrap
	return d
}

// sortedArraysLocked returns the arrays in name order. Close and Sync
// walk backends in this order so instrumented backends (fault
// injection, call recording) see a deterministic call sequence — map
// iteration order must never leak into a replayable fault schedule.
func (d *Disk) sortedArraysLocked() []*Array {
	out := make([]*Array, 0, len(d.arrays))
	for _, arr := range d.arrays {
		out = append(out, arr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Meta.Name < out[j].Meta.Name })
	return out
}

// Close releases every array's backend (file handles and locks for
// file-backed disks; no-ops otherwise), in name order. A WAL-enabled
// disk checkpoints first — so the array files are authoritative after a
// clean shutdown — and closes its logs last; if the checkpoint fails
// the logs keep their records and the next open replays them.
func (d *Disk) Close() error {
	var first error
	if d.wal != nil {
		d.wal.stopMaintainer()
		first = d.wal.checkpoint()
	}
	if err := d.Abandon(); first == nil {
		first = err
	}
	return first
}

// Abandon is Close without the checkpoint: it releases every array's
// backend and the WAL log, file handles and locks, and the log keeps
// every record for the next open to replay. A start that refuses to
// serve abandons its disk, since a checkpoint would drop the very
// records the refusal protects.
func (d *Disk) Abandon() error {
	var first error
	if d.wal != nil {
		d.wal.stopMaintainer()
	}
	d.mu.Lock()
	for _, arr := range d.sortedArraysLocked() {
		if err := arr.backend.Close(); err != nil && first == nil {
			first = err
		}
	}
	d.mu.Unlock()
	if d.wal != nil {
		if err := d.wal.closeLog(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Sync forces every array's buffered writes to stable storage, in
// name order. The engine calls it after write-backs on Flush/Close;
// servers call it at drain so acknowledged writes survive the
// process.
func (d *Disk) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var first error
	for _, arr := range d.sortedArraysLocked() {
		if err := arr.backend.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Sync forces this one array's buffered writes to stable storage: the
// durability point for a single-array acknowledgement (the serving
// layer's durable PUTs). On a WAL-enabled disk this is the
// group-committed log fsync — every concurrent caller shares it.
func (ar *Array) Sync() error { return ar.backend.Sync() }

// CheckKept refuses to reopen what a kept directory holds for the
// array name of elems elements when this build cannot serve it: a
// "<name>.dat" of any other non-zero size (written under other dims:
// resizing it would cut off stored elements or serve zeros past them),
// or only the "<name>.s<i>.dat" sub-files a build with striped files
// (occd -stripes) left, beside which the file backend would create a
// fresh zero-filled "<name>.dat" without an error. It opens nothing,
// so a refusal leaves the directory as it found it. CreateArray runs it
// before the WAL log is opened; a caller creating several arrays runs
// it for all of them first, since the first creation opens the log.
func (d *Disk) CheckKept(name string, elems int64) error {
	if d.dir == "" || !d.keepExisting || d.noBacking {
		return nil
	}
	path := filepath.Join(d.dir, name+".dat")
	info, err := os.Stat(path)
	if err == nil && info.Size() != 0 && info.Size() != elems*ElemSize {
		return fmt.Errorf("ooc: kept array file %s holds %d bytes, not the %d this array needs: "+
			"reopen it with the dims that wrote it", path, info.Size(), elems*ElemSize)
	}
	if err != nil {
		sub := name + ".s0.dat"
		if _, err := os.Stat(filepath.Join(d.dir, sub)); err == nil {
			return fmt.Errorf("ooc: %s in %s is striped (%s, written by a build with occd -stripes); this build keeps one file per array: copy the data out with the build that wrote it, then reopen",
				name, d.dir, sub)
		}
	}
	return nil
}

// newBackend picks the backend for a new array per the disk's
// configuration, wrapped by any WrapBackend instrumentation.
func (d *Disk) newBackend(name string, n int64) (Backend, error) {
	var (
		b   Backend
		err error
	)
	switch {
	case d.noBacking:
		b = nullBackend{size: n}
	case d.dir != "":
		b, err = newFileBackend(filepath.Join(d.dir, name+".dat"), n, d.keepExisting)
	default:
		b = newMemBackend(n)
	}
	if err != nil {
		return nil, err
	}
	if d.wrapBackend != nil {
		b = d.wrapBackend(name, b)
	}
	return b, nil
}
