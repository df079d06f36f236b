package codegen

import (
	"fmt"
	"strings"

	"outcore/internal/ir"
)

// String renders the schedule as the paper's tiled pseudo-Fortran
// (Section 3.3 listings): tile loops over the transformed space, the
// tile read set, element loops, the statements, and the write-back
// set.
func (s *Schedule) String() string {
	var b strings.Builder
	k := s.Spec.Depth()
	fmt.Fprintf(&b, "! nest %d: %s\n", s.Nest.ID, s.Spec)
	if !s.Plan.Identity() {
		fmt.Fprintf(&b, "! loop transformation T =\n")
		for r := 0; r < k; r++ {
			fmt.Fprintf(&b, "!   %v\n", s.Plan.T.Row(r))
		}
	}
	indent := 0
	writeIndent := func() {
		for i := 0; i < indent; i++ {
			b.WriteString("  ")
		}
	}
	// Tile loops (levels whose size does not cover the whole extent).
	tiled := make([]bool, k)
	for lvl := 0; lvl < k; lvl++ {
		ext := s.Spec.Hi[lvl] - s.Spec.Lo[lvl] + 1
		tiled[lvl] = s.Spec.Sizes[lvl] < ext
		if tiled[lvl] {
			writeIndent()
			fmt.Fprintf(&b, "do %sT = %d, %d, %d\n", tileIndexName(lvl), s.Spec.Lo[lvl], s.Spec.Hi[lvl], s.Spec.Sizes[lvl])
			indent++
		}
	}
	// Tile I/O.
	writeIndent()
	var names []string
	for _, g := range s.groups {
		names = append(names, g.arr.Name)
	}
	fmt.Fprintf(&b, "< read data tiles for %s >\n", strings.Join(dedupStrings(names), ", "))
	// Element loops.
	for lvl := 0; lvl < k; lvl++ {
		writeIndent()
		name := tileIndexName(lvl)
		if tiled[lvl] {
			fmt.Fprintf(&b, "do %s' = %sT, min(%sT+%d-1, %d)\n", name, name, name, s.Spec.Sizes[lvl], s.Spec.Hi[lvl])
		} else {
			fmt.Fprintf(&b, "do %s' = %d, %d\n", name, s.Spec.Lo[lvl], s.Spec.Hi[lvl])
		}
		indent++
	}
	for _, st := range s.stmts {
		writeIndent()
		b.WriteString(st.st.String())
		b.WriteByte('\n')
	}
	for lvl := k - 1; lvl >= 0; lvl-- {
		indent--
		writeIndent()
		b.WriteString("end do\n")
	}
	// Write-back (deterministic order).
	var written []string
	for _, st := range s.stmts {
		written = append(written, st.st.Out.Array.Name)
	}
	writeIndent()
	fmt.Fprintf(&b, "< write data tiles for %s >\n", strings.Join(dedupStrings(written), ", "))
	for lvl := k - 1; lvl >= 0; lvl-- {
		if tiled[lvl] {
			indent--
			writeIndent()
			b.WriteString("end do\n")
		}
	}
	return b.String()
}

func tileIndexName(level int) string {
	return strings.ToUpper(ir.IndexName(level))
}

func dedupStrings(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
