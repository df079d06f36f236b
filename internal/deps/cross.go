package deps

import (
	"slices"

	"outcore/internal/ir"
)

// CrossNestBackward decides whether loop distribution may reorder a
// conflict between two references that end up in different nests
// sharing their first `common` loops.
//
// Context: an imperfect loop executes, per common iteration c, first
// the "earlier" group (containing refE) then the "later" group
// (containing refL). Distribution runs ALL earlier-group iterations
// before any later-group ones. That is illegal exactly when some
// later-group instance at common iteration c1 conflicts with an
// earlier-group instance at a strictly later common iteration c2 ≻ c1
// (originally L(c1) ran before E(c2); after distribution the order
// flips).
//
// The conflicts are the dependence polyhedron of refL at I_L and refE
// at I_E, without loop bounds, and the question is whether one of its
// cells of the common-prefix difference I_E − I_L is lexicographically
// positive. It returns true (conservatively: "a backward conflict may
// exist") unless no such cell is feasible. Callers must pass references
// to the SAME array, at least one of which is a write.
func CrossNestBackward(refL, refE ir.Ref, common int) bool {
	kL := refL.Depth()
	s := newSolver(kL+refE.Depth(), common, nil)
	for l := 0; l < common; l++ {
		f := s.form(l)
		f[l], f[kL+l] = -1, 1
	}
	backward := false
	s.cells(refL, refE, func(dirs []Dir, _ []int64) {
		backward = backward || dirs[slices.IndexFunc(dirs, func(d Dir) bool { return d != Zero })] == Pos
	})
	return backward
}
