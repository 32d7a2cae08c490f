package pool

import (
	"repro/internal/mring"
)

// This file holds the vectorized eval kernels (Sec. 5.2.2): filter a
// predicate over one typed column into a selection vector, gather/multiply
// value columns over a selection, hash selected group keys column-wise,
// and fold the result into a hash-native group table. Each kernel touches
// one contiguous array per pass; eval's prepared plans route covered
// aggregates here and run their row sub-plans otherwise.
//
// Comparison semantics are pinned to the row-wise oracle
// (expr.EvalCmp via mring.Value.Equal/Less), including its edge cases:
// int/int compares exactly (values beyond 2^53 do not round), mixed
// numeric kinds compare as float64, strings compare only to strings
// (mixed string/numeric ordering is constant: numbers sort before
// strings), and <=/>= are the row path's !(r<l)/!(l<r) — which differs
// from a direct <=/>= when NaN is involved.

// Sel is a selection vector: row indices into a ColBatch, strictly
// ascending. A nil Sel means "all rows" where documented.
type Sel []int32

// NewSel returns the identity selection [0, n).
func NewSel(n int) Sel {
	s := make(Sel, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// PredOp enumerates the comparison operators of filter predicates.
type PredOp uint8

// Predicate operators, mirroring expr's comparison set.
const (
	PEq PredOp = iota
	PNe
	PLt
	PLe
	PGt
	PGe
)

// Pred is one static filter condition over a batch: column Op literal.
type Pred struct {
	Col int
	Op  PredOp
	Lit mring.Value
}

// FilterPred refines sel to the rows satisfying p, writing the survivors
// into sel's prefix and returning it (no allocation). A nil sel means all
// rows and allocates the result. The outcome row-for-row matches
// evaluating the comparison on materialized row values.
func (b *ColBatch) FilterPred(p Pred, sel Sel) Sel {
	if sel == nil {
		sel = NewSel(b.Len())
	}
	c := &b.Cols[p.Col]
	switch c.Kind {
	case mring.KInt:
		switch p.Lit.K {
		case mring.KInt:
			return filterInts(c.Ints, p.Lit.I, p.Op, sel)
		case mring.KFloat:
			return filterIntsFloat(c.Ints, p.Lit.F, p.Op, sel)
		default:
			return filterConst(numVsStr(p.Op), sel)
		}
	case mring.KFloat:
		switch p.Lit.K {
		case mring.KString:
			return filterConst(numVsStr(p.Op), sel)
		default:
			return filterFloats(c.Flts, p.Lit.AsFloat(), p.Op, sel)
		}
	default:
		if p.Lit.K != mring.KString {
			return filterConst(strVsNum(p.Op), sel)
		}
		return filterStrs(c.Strs, p.Lit.S, p.Op, sel)
	}
}

// numVsStr gives the constant outcome of (numeric value Op string
// literal): strings sort after all numbers and never equal them.
func numVsStr(op PredOp) bool {
	switch op {
	case PNe, PLt, PLe:
		return true
	default:
		return false
	}
}

// strVsNum gives the constant outcome of (string value Op numeric literal).
func strVsNum(op PredOp) bool {
	switch op {
	case PNe, PGt, PGe:
		return true
	default:
		return false
	}
}

func filterConst(keep bool, sel Sel) Sel {
	if keep {
		return sel
	}
	return sel[:0]
}

func filterInts(xs []int64, v int64, op PredOp, sel Sel) Sel {
	out := sel[:0]
	switch op {
	case PEq:
		for _, i := range sel {
			if xs[i] == v {
				out = append(out, i)
			}
		}
	case PNe:
		for _, i := range sel {
			if xs[i] != v {
				out = append(out, i)
			}
		}
	case PLt:
		for _, i := range sel {
			if xs[i] < v {
				out = append(out, i)
			}
		}
	case PLe:
		for _, i := range sel {
			if xs[i] <= v {
				out = append(out, i)
			}
		}
	case PGt:
		for _, i := range sel {
			if xs[i] > v {
				out = append(out, i)
			}
		}
	default:
		for _, i := range sel {
			if xs[i] >= v {
				out = append(out, i)
			}
		}
	}
	return out
}

func filterIntsFloat(xs []int64, f float64, op PredOp, sel Sel) Sel {
	out := sel[:0]
	switch op {
	case PEq:
		for _, i := range sel {
			if float64(xs[i]) == f {
				out = append(out, i)
			}
		}
	case PNe:
		for _, i := range sel {
			if float64(xs[i]) != f {
				out = append(out, i)
			}
		}
	case PLt:
		for _, i := range sel {
			if float64(xs[i]) < f {
				out = append(out, i)
			}
		}
	case PLe:
		// The row path computes <= as !(lit < x); keep its NaN behavior.
		for _, i := range sel {
			if !(f < float64(xs[i])) {
				out = append(out, i)
			}
		}
	case PGt:
		for _, i := range sel {
			if float64(xs[i]) > f {
				out = append(out, i)
			}
		}
	default:
		for _, i := range sel {
			if !(float64(xs[i]) < f) {
				out = append(out, i)
			}
		}
	}
	return out
}

func filterFloats(xs []float64, f float64, op PredOp, sel Sel) Sel {
	out := sel[:0]
	switch op {
	case PEq:
		for _, i := range sel {
			if xs[i] == f {
				out = append(out, i)
			}
		}
	case PNe:
		for _, i := range sel {
			if xs[i] != f {
				out = append(out, i)
			}
		}
	case PLt:
		for _, i := range sel {
			if xs[i] < f {
				out = append(out, i)
			}
		}
	case PLe:
		for _, i := range sel {
			if !(f < xs[i]) {
				out = append(out, i)
			}
		}
	case PGt:
		for _, i := range sel {
			if xs[i] > f {
				out = append(out, i)
			}
		}
	default:
		for _, i := range sel {
			if !(xs[i] < f) {
				out = append(out, i)
			}
		}
	}
	return out
}

func filterStrs(xs []string, s string, op PredOp, sel Sel) Sel {
	out := sel[:0]
	switch op {
	case PEq:
		for _, i := range sel {
			if xs[i] == s {
				out = append(out, i)
			}
		}
	case PNe:
		for _, i := range sel {
			if xs[i] != s {
				out = append(out, i)
			}
		}
	case PLt:
		for _, i := range sel {
			if xs[i] < s {
				out = append(out, i)
			}
		}
	case PLe:
		for _, i := range sel {
			if xs[i] <= s {
				out = append(out, i)
			}
		}
	case PGt:
		for _, i := range sel {
			if xs[i] > s {
				out = append(out, i)
			}
		}
	default:
		for _, i := range sel {
			if xs[i] >= s {
				out = append(out, i)
			}
		}
	}
	return out
}

// FloatsSel gathers column col as float64 over sel (Value.AsFloat
// semantics — string columns parse, unparsable strings read as 0) into
// dst, which is grown as needed and returned.
func (b *ColBatch) FloatsSel(col int, sel Sel, dst []float64) []float64 {
	dst = growFloats(dst, len(sel))
	c := &b.Cols[col]
	switch c.Kind {
	case mring.KInt:
		for k, i := range sel {
			dst[k] = float64(c.Ints[i])
		}
	case mring.KFloat:
		for k, i := range sel {
			dst[k] = c.Flts[i]
		}
	default:
		for k, i := range sel {
			dst[k] = mring.Str(c.Strs[i]).AsFloat()
		}
	}
	return dst
}

// MultsSel gathers the multiplicity column over sel into dst, which is
// grown as needed and returned.
func (b *ColBatch) MultsSel(sel Sel, dst []float64) []float64 {
	dst = growFloats(dst, len(sel))
	for k, i := range sel {
		dst[k] = b.Mults[i]
	}
	return dst
}

func growFloats(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// HashSel computes the canonical group-key hash of each selected row's
// projection onto pos — the column-wise hash kernel: every column folds
// into all selected row states in one pass over its contiguous value
// array. A nil sel hashes all rows. The result equals the row-wise
// mring.Tuple.HashCols of the same values exactly.
func (b *ColBatch) HashSel(pos []int, sel Sel) []uint64 {
	n := b.Len()
	if sel != nil {
		n = len(sel)
	}
	hs := make([]uint64, n)
	for i := range hs {
		hs[i] = mring.HashInit()
	}
	for _, j := range pos {
		c := &b.Cols[j]
		switch c.Kind {
		case mring.KInt:
			if sel == nil {
				for i, v := range c.Ints {
					hs[i] = mring.HashInt64(hs[i], v)
				}
			} else {
				for k, i := range sel {
					hs[k] = mring.HashInt64(hs[k], c.Ints[i])
				}
			}
		case mring.KFloat:
			if sel == nil {
				for i, v := range c.Flts {
					hs[i] = mring.HashFloat64(hs[i], v)
				}
			} else {
				for k, i := range sel {
					hs[k] = mring.HashFloat64(hs[k], c.Flts[i])
				}
			}
		default:
			if sel == nil {
				for i, s := range c.Strs {
					hs[i] = mring.HashStr(hs[i], s)
				}
			} else {
				for k, i := range sel {
					hs[k] = mring.HashStr(hs[k], c.Strs[i])
				}
			}
		}
	}
	for i := range hs {
		hs[i] = mring.HashFinish(hs[i])
	}
	return hs
}

// FoldSel folds the selected rows into gt: row sel[k] contributes its
// projection onto pos with multiplicity ms[k] under precomputed hash
// hs[k], in selection order through a reused key buffer. Zero
// multiplicities are skipped, matching the row path's refusal to emit
// zero-valued factors.
func (b *ColBatch) FoldSel(gt *mring.GroupTable, pos []int, sel Sel, hs []uint64, ms []float64) {
	key := make(mring.Tuple, len(pos))
	for k, i := range sel {
		m := ms[k]
		if m == 0 {
			continue
		}
		for j, p := range pos {
			key[j] = b.Cols[p].value(int(i))
		}
		gt.AddPrehashed(hs[k], key, m)
	}
}
