package main

import (
	"fmt"

	"outcore/internal/ooc"
)

// crashStore is the memory backend of the durable single-node
// workload: reads and writes hit cur, Sync copies what was written
// since the last Sync into dur, and a crash puts dur back. It is what
// faultfs.Injector does with a zero-fault profile, minus the injector's
// per-call schedule log and undo allocations, which took 28% of the
// workload's CPU and most of its RSS when it stood here.
type crashStore struct {
	cur, dur []float64
	dirty    []dirtyRun
}

type dirtyRun struct{ off, n int64 }

func (s *crashStore) span(off int64, n int) error {
	if off < 0 || off+int64(n) > int64(len(s.cur)) {
		return fmt.Errorf("crashStore: [%d,%d) outside %d elements", off, off+int64(n), len(s.cur))
	}
	return nil
}

func (s *crashStore) ReadAt(buf []float64, off int64) error {
	if err := s.span(off, len(buf)); err != nil {
		return err
	}
	copy(buf, s.cur[off:])
	return nil
}

func (s *crashStore) WriteAt(buf []float64, off int64) error {
	if err := s.span(off, len(buf)); err != nil {
		return err
	}
	copy(s.cur[off:], buf)
	s.dirty = append(s.dirty, dirtyRun{off, int64(len(buf))})
	return nil
}

func (s *crashStore) settle(dst, src []float64) {
	for _, r := range s.dirty {
		copy(dst[r.off:r.off+r.n], src[r.off:r.off+r.n])
	}
	s.dirty = s.dirty[:0]
}

func (s *crashStore) Sync() error  { s.settle(s.dur, s.cur); return nil }
func (s *crashStore) Size() int64  { return int64(len(s.cur)) }
func (s *crashStore) Close() error { return nil }

// powerSwitch hands one crashStore per backend name to a disk (arrays,
// WAL logs and WAL metadata alike) and gives the same stores back to
// the disk that reboots over them.
type powerSwitch struct {
	stores map[string]*crashStore
}

func newPowerSwitch() *powerSwitch { return &powerSwitch{stores: map[string]*crashStore{}} }

// wrap is the Disk.WrapBackend hook.
func (p *powerSwitch) wrap(name string, inner ooc.Backend) ooc.Backend {
	if s, ok := p.stores[name]; ok {
		return s
	}
	s := &crashStore{cur: make([]float64, inner.Size()), dur: make([]float64, inner.Size())}
	p.stores[name] = s
	return s
}

// cut drops every write no Sync acknowledged.
func (p *powerSwitch) cut() {
	for _, s := range p.stores {
		s.settle(s.cur, s.dur)
	}
}
