package ooc

import (
	"fmt"
	"path/filepath"
)

// DefaultStripeUnit is the striping unit, in elements, used when
// Disk.Stripe is given a non-positive unit: 1024 elements = 8 KiB per
// stripe unit, in the spirit of the paper's PFS stripe sizes.
const DefaultStripeUnit = 1024

// Stripe configures the disk to stripe each subsequently created
// array's backend n ways: elements are distributed round-robin in
// units of unitElems (DefaultStripeUnit when <= 0) across n
// sub-backends — separate files under Dir ("<name>.s<i>.dat", each
// with its own single-writer lock), or separate memory segments
// otherwise. This is the PFS-style layout the paper's arrays live on:
// one logical file served by n I/O nodes. Striping sits below the
// Backend interface, so accounting, fault wrapping (WrapBackend
// applies to the composed backend) and tile semantics are unchanged.
// Like the other setup helpers it must be called before arrays are
// created; reopening striped files with KeepExisting requires the same
// (n, unitElems) the writer used.
func (d *Disk) Stripe(n int, unitElems int64) *Disk {
	d.stripeN = n
	if unitElems <= 0 {
		unitElems = DefaultStripeUnit
	}
	d.stripeUnit = unitElems
	return d
}

// stripedBackend composes n sub-backends into one element space:
// global element g lives in stripe (g/unit) mod n at local offset
// (g/unit)/n*unit + g mod unit. Each sub-backend is over-allocated to
// ceil(units/n) whole units, so every in-range global access maps to
// an in-range local one.
type stripedBackend struct {
	stripes []Backend
	unit    int64
	size    int64 // logical size in elements
}

// newStripedBackend builds the composed backend for size elements.
// make constructs one sub-backend of the given capacity; on failure,
// already-built stripes are closed.
func newStripedBackend(size, unit int64, n int, mk func(i int, elems int64) (Backend, error)) (Backend, error) {
	units := (size + unit - 1) / unit
	perUnits := (units + int64(n) - 1) / int64(n)
	if perUnits < 1 {
		perUnits = 1
	}
	sb := &stripedBackend{unit: unit, size: size}
	for i := 0; i < n; i++ {
		b, err := mk(i, perUnits*unit)
		if err != nil {
			for _, prev := range sb.stripes {
				prev.Close()
			}
			return nil, err
		}
		sb.stripes = append(sb.stripes, b)
	}
	return sb, nil
}

// each splits the access [off, off+len(buf)) into maximal per-stripe
// segments and applies op to every one.
func (sb *stripedBackend) each(buf []float64, off int64, op func(b Backend, seg []float64, local int64) error) error {
	if off < 0 || off+int64(len(buf)) > sb.size {
		return fmt.Errorf("ooc: striped access [%d,%d) out of range %d", off, off+int64(len(buf)), sb.size)
	}
	n := int64(len(sb.stripes))
	for done := int64(0); done < int64(len(buf)); {
		g := off + done
		u := g / sb.unit
		within := g % sb.unit
		run := sb.unit - within
		if rem := int64(len(buf)) - done; run > rem {
			run = rem
		}
		local := (u/n)*sb.unit + within
		if err := op(sb.stripes[u%n], buf[done:done+run], local); err != nil {
			return err
		}
		done += run
	}
	return nil
}

func (sb *stripedBackend) ReadAt(buf []float64, off int64) error {
	return sb.each(buf, off, func(b Backend, seg []float64, local int64) error {
		return b.ReadAt(seg, local)
	})
}

func (sb *stripedBackend) WriteAt(buf []float64, off int64) error {
	return sb.each(buf, off, func(b Backend, seg []float64, local int64) error {
		return b.WriteAt(seg, local)
	})
}

func (sb *stripedBackend) Size() int64 { return sb.size }

func (sb *stripedBackend) Sync() error {
	var first error
	for _, b := range sb.stripes {
		if err := b.Sync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (sb *stripedBackend) Close() error {
	var first error
	for _, b := range sb.stripes {
		if err := b.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// newStripedDiskBackend builds the striped backend a configured disk
// gives a new array: file stripes under dir when set, memory stripes
// otherwise.
func (d *Disk) newStripedDiskBackend(name string, n int64) (Backend, error) {
	return newStripedBackend(n, d.stripeUnit, d.stripeN, func(i int, elems int64) (Backend, error) {
		if d.dir != "" {
			path := filepath.Join(d.dir, fmt.Sprintf("%s.s%d.dat", name, i))
			return newFileBackend(path, elems, d.keepExisting, true)
		}
		return newMemBackend(elems), nil
	})
}
