// Package suite defines the paper's ten benchmark kernels (Table 1) in
// the affine loop-nest IR, plus the six program versions of Section 4
// (col, row, l-opt, d-opt, c-opt, h-opt).
//
// The original Fortran sources are not part of the paper; each kernel
// here reproduces the Table-1 inventory (number and dimensionality of
// arrays, outer timing-loop count) and the access-pattern structure
// that drives the optimizations — transposed references, sweeps along
// conflicting dimensions, reductions — which is all the optimizer ever
// sees. DESIGN.md records this substitution.
package suite

import (
	"fmt"

	"outcore/internal/core"
	"outcore/internal/ir"
	"outcore/internal/layout"
	"outcore/internal/tiling"
)

// Config sets array extents per rank. The paper sets every dimension to
// 4096 doubles; that is impractical to simulate in full, so extents are
// parameters and experiments report the same normalized quantities the
// paper does.
type Config struct {
	N2 int64 // extent of each 2-D dimension (1-D vectors follow the loop they feed)
	N3 int64 // extent of each 3-D dimension
	N4 int64 // extent of each 4-D dimension
}

// SmallConfig keeps unit tests fast.
func SmallConfig() Config { return Config{N2: 24, N3: 8, N4: 4} }

// Kernel is one benchmark program generator.
type Kernel struct {
	Name   string
	Source string // provenance per Table 1
	Iter   int    // outermost timing-loop count per Table 1
	Build  func(cfg Config) *ir.Program
}

// Kernels lists the Table-1 programs in the paper's order.
var Kernels = []Kernel{
	{Name: "mat", Source: "-", Iter: 2, Build: buildMat},
	{Name: "mxm", Source: "Spec92", Iter: 3, Build: buildMxm},
	{Name: "adi", Source: "Livermore", Iter: 5, Build: buildAdi},
	{Name: "vpenta", Source: "Spec92", Iter: 3, Build: buildVpenta},
	{Name: "btrix", Source: "Spec92", Iter: 2, Build: buildBtrix},
	{Name: "emit", Source: "Spec92", Iter: 2, Build: buildEmit},
	{Name: "syr2k", Source: "BLAS", Iter: 2, Build: buildSyr2k},
	{Name: "htribk", Source: "Eispack", Iter: 3, Build: buildHtribk},
	{Name: "gfunp", Source: "Hompack", Iter: 3, Build: buildGfunp},
	{Name: "trans", Source: "Nwchem", Iter: 3, Build: buildTrans},
}

// ByName returns the kernel with the given name.
func ByName(name string) (Kernel, bool) {
	for _, k := range Kernels {
		if k.Name == name {
			return k, true
		}
	}
	return Kernel{}, false
}

// KernelNames returns the kernel names in Table-1 order; command-line
// tools list them in -kernel validation errors.
func KernelNames() []string {
	names := make([]string, len(Kernels))
	for i, k := range Kernels {
		names[i] = k.Name
	}
	return names
}

// Version names one of the paper's six program versions.
type Version string

// The six versions of Section 4.
const (
	Col  Version = "col"   // fixed column-major layouts, no loop transforms
	Row  Version = "row"   // fixed row-major layouts, no loop transforms
	LOpt Version = "l-opt" // loop transformations only
	DOpt Version = "d-opt" // file layout transformations only
	COpt Version = "c-opt" // the paper's integrated algorithm
	HOpt Version = "h-opt" // c-opt plus hand chunking/interleaving
)

// Versions lists all six in the paper's column order.
var Versions = []Version{Col, Row, LOpt, DOpt, COpt, HOpt}

// VersionNames returns the six version names in the paper's order.
func VersionNames() []string {
	names := make([]string, len(Versions))
	for i, v := range Versions {
		names[i] = string(v)
	}
	return names
}

// ParseVersion maps a command-line value to a Version; ok is false for
// anything that is not one of the six.
func ParseVersion(s string) (Version, bool) {
	for _, v := range Versions {
		if string(v) == s {
			return v, true
		}
	}
	return "", false
}

// PlanFor derives the optimization plan for a version.
func PlanFor(p *ir.Program, v Version) (*core.Plan, error) {
	var o core.Optimizer
	switch v {
	case Col:
		return core.FixedLayouts(p, func(d []int64) *layout.Layout { return layout.ColMajor(d...) }), nil
	case Row:
		return core.FixedLayouts(p, func(d []int64) *layout.Layout { return layout.RowMajor(d...) }), nil
	case LOpt:
		return o.OptimizeLoopOnly(p), nil
	case DOpt:
		return o.OptimizeDataOnly(p), nil
	case COpt, HOpt:
		return o.OptimizeCombined(p), nil
	default:
		return nil, fmt.Errorf("suite: unknown version %q", v)
	}
}

// StrategyFor returns the tiling strategy used when measuring a
// version. All six versions use the Section-3.3 out-of-core strategy
// (tile all but the innermost loop): under a shared tiling discipline
// the versions differ exactly in how many references the innermost
// loop serves with spatial locality — the paper's own Section-3.1
// analysis of why layouts and loop transforms matter. The paper tiled
// its baselines with the traditional cache-style scheme; that contrast
// is reproduced separately by the Figure-3 experiment and the tiling
// ablation (see DESIGN.md's substitution table).
func StrategyFor(v Version) tiling.Strategy {
	return tiling.OutOfCore
}

// TotalElems sums the program's array sizes: the paper's memory budget
// is 1/128 of this.
func TotalElems(p *ir.Program) int64 {
	var total int64
	for _, a := range p.Arrays {
		total += a.Len()
	}
	return total
}

// MemBudget returns the paper's memory discipline: total data size
// divided by `frac` (128 in the experiments).
func MemBudget(p *ir.Program, frac int64) int64 {
	if frac <= 0 {
		return 0
	}
	return TotalElems(p) / frac
}
