package deps

import "outcore/internal/matrix"

// signSet is the over-approximated set of achievable signs of a value.
type signSet struct{ neg, zero, pos bool }

// signOfDir is the sign of coef·x for x in direction d.
func signOfDir(d Dir, coef int64) signSet {
	v := d.sign() * coef
	return signSet{neg: v < 0, zero: v == 0, pos: v > 0}
}

// sumSigns over-approximates the achievable signs of a sum of terms of
// unbounded magnitudes.
func sumSigns(terms []signSet) signSet {
	var s signSet
	allExactlyZero := true
	everyCanZero := true
	for _, t := range terms {
		if t.pos {
			s.pos = true
		}
		if t.neg {
			s.neg = true
		}
		if !t.zero {
			everyCanZero = false
		}
		if t.pos || t.neg {
			allExactlyZero = false
		}
	}
	if allExactlyZero {
		return signSet{zero: true}
	}
	s.zero = everyCanZero || (s.pos && s.neg)
	return s
}

// LegalTransform reports whether applying the loop transformation T
// (new iteration vector = T * old) keeps every dependence
// lexicographically positive. The check is exact for pinned distances
// and conservatively sound for cells: it never accepts an illegal
// transformation, but may reject a legal one.
func LegalTransform(t *matrix.Int, ds []Dependence) bool {
	for _, d := range ds {
		if d.Uniform && !lexPositive(t.MulVec(d.Distance)) || !d.Uniform && !legalDirs(t, d.Dirs) {
			return false
		}
	}
	return true
}

func lexPositive(v []int64) bool {
	for _, x := range v {
		if x > 0 {
			return true
		}
		if x < 0 {
			return false
		}
	}
	return false // a transformed genuine dependence must not vanish
}

// legalDirs checks T·d ≻ 0 for every d consistent with a star-free
// direction vector, using sign-set reasoning row by row: a row whose
// sign is guaranteed positive proves the rest; a row that can be
// negative disproves; a row that may be zero defers to later rows.
func legalDirs(t *matrix.Int, dirs []Dir) bool {
	for row := 0; row < t.Rows(); row++ {
		terms := make([]signSet, len(dirs))
		for j, d := range dirs {
			terms[j] = signOfDir(d, t.At(row, j))
		}
		s := sumSigns(terms)
		if s.neg {
			return false
		}
		if s.pos && !s.zero {
			return true // strictly positive: decided for every consistent d
		}
		// s ⊆ {0}: defer entirely. s ⊆ {0,+}: the zero cases defer; the
		// positive cases are already satisfied, so deferring is sound.
	}
	return false
}

// FullyPermutable reports whether the loops in levels [lo, hi) form a
// fully permutable band: every dependence not already satisfied by an
// outer level has non-negative components at all levels of the band.
// Rectangular tiling of the band is legal exactly in that case.
func FullyPermutable(ds []Dependence, lo, hi int) bool {
	for _, d := range ds {
		if !bandNonNegative(d.Dirs, lo, hi) {
			return false
		}
	}
	return true
}

// bandNonNegative checks one cell: satisfied by a positive component
// before the band, or non-negative throughout it.
func bandNonNegative(dirs []Dir, lo, hi int) bool {
	for lvl := 0; lvl < lo && lvl < len(dirs); lvl++ {
		if dirs[lvl] == Pos {
			return true
		}
	}
	for lvl := lo; lvl < hi && lvl < len(dirs); lvl++ {
		if dirs[lvl] == Neg {
			return false
		}
	}
	return true
}
