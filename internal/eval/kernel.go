package eval

import (
	"math"

	"repro/internal/expr"
	"repro/internal/mring"
	"repro/internal/pool"
)

// This file routes covered aggregate statements to the vectorized
// columnar kernels of internal/pool instead of the row-wise interpreter.
// A statement is covered when its RHS is Sum_[gb](R(...) * f1 * ... * fk)
// where R is the single scanned relation (all columns distinct), every fi
// is either a static comparison (column vs literal, either order), a
// value term over R's columns and literals, or a constant, and every
// group-by column is one of R's columns. Everything else — joins, slices,
// correlated aggregates (non-empty outer binding), lifted assignments,
// Exists — falls back to the row path, as do covered statements whose
// relation has mixed-kind columns (no columnar mirror) or is too small to
// be worth vectorizing.
//
// The kernel result is bit-for-bit the row path's: rows fold in the same scan order, value
// factors multiply in the same factor order (comparisons contribute the
// exact factor 1), zero-valued factors drop rows exactly where the row
// path refuses to emit them, and group hashes come from the same
// streaming hash kernel.

// kernelMinRows is the scan size below which the row path wins; tiny
// batches (single-tuple mode) skip mirror construction entirely.
const kernelMinRows = 8

// kstep is one post-scan factor: exactly one of pred/val is set.
type kstep struct {
	pred *pool.Pred
	val  vnode
}

// kernelPlan is the lowered form of a covered aggregate.
type kernelPlan struct {
	env      string   // environment name of the scanned relation
	cols     []string // its column variables, in schema order
	steps    []kstep  // post-scan factors, in factor order
	groupPos []int    // group-by positions into cols
}

// Kernels is a lowered plan table: the covered aggregates of one set of
// expression trees, keyed by node. Its owner is whatever owns the trees —
// a compiled program's executor, or one prepared cluster block — so the
// table and the trees it points into are released together.
type Kernels map[*expr.Agg]*kernelPlan

// LowerKernels lowers every covered aggregate node found anywhere in es,
// nested aggregates included, into a plan table.
func LowerKernels(es ...expr.Expr) Kernels {
	k := Kernels{}
	for _, e := range es {
		expr.Walk(e, func(n expr.Expr) bool {
			if a, ok := n.(*expr.Agg); ok {
				if p := analyzeAgg(a); p != nil {
					k[a] = p
				}
			}
			return true
		})
	}
	return k
}

// Scans reports whether rhs is an aggregate the table covers, and the
// environment name of the relation its kernel scans. The compiler
// records covered statements next to its access-path analysis.
func (k Kernels) Scans(rhs expr.Expr) (string, bool) {
	a, ok := rhs.(*expr.Agg)
	if !ok {
		return "", false
	}
	p := k[a]
	if p == nil {
		return "", false
	}
	return p.env, true
}

func analyzeAgg(a *expr.Agg) *kernelPlan {
	var factors []expr.Expr
	switch b := a.Body.(type) {
	case *expr.Rel:
		factors = []expr.Expr{b}
	case *expr.Mul:
		factors = b.Factors
	default:
		return nil
	}
	if len(factors) == 0 {
		return nil
	}
	r0, ok := factors[0].(*expr.Rel)
	if !ok {
		return nil
	}
	colPos := make(map[string]int, len(r0.Cols))
	for i, c := range r0.Cols {
		if _, dup := colPos[c]; dup {
			// A repeated column variable is a self-equality constraint the
			// row path implements through rebinding; not covered.
			return nil
		}
		colPos[c] = i
	}
	plan := &kernelPlan{env: RelEnvName(r0), cols: r0.Cols}
	for _, f := range factors[1:] {
		switch x := f.(type) {
		case *expr.Cmp:
			p := lowerPred(x, colPos)
			if p == nil {
				return nil
			}
			plan.steps = append(plan.steps, kstep{pred: p})
		case *expr.Val:
			v := lowerVal(x.E, colPos)
			if v == nil {
				return nil
			}
			plan.steps = append(plan.steps, kstep{val: v})
		case *expr.Const:
			plan.steps = append(plan.steps, kstep{val: vlit{f: x.V}})
		default:
			return nil
		}
	}
	plan.groupPos = make([]int, len(a.GroupBy))
	for i, g := range a.GroupBy {
		j, ok := colPos[g]
		if !ok {
			return nil
		}
		plan.groupPos[i] = j
	}
	return plan
}

// lowerPred turns a static comparison into a column predicate. A literal
// on the left flips the operator; EvalCmp defines <= as !(r<l) and >= as
// !(l<r), so the flipped form calls the exact same Less the row path does.
func lowerPred(c *expr.Cmp, colPos map[string]int) *pool.Pred {
	if vr, ok := c.L.(expr.VarRef); ok {
		if lit, ok := c.R.(expr.Lit); ok {
			if j, ok := colPos[vr.Name]; ok {
				return &pool.Pred{Col: j, Op: predOp(c.Op), Lit: lit.V}
			}
		}
	}
	if lit, ok := c.L.(expr.Lit); ok {
		if vr, ok := c.R.(expr.VarRef); ok {
			if j, ok := colPos[vr.Name]; ok {
				return &pool.Pred{Col: j, Op: predOp(flipCmp(c.Op)), Lit: lit.V}
			}
		}
	}
	return nil
}

func predOp(op expr.CmpOp) pool.PredOp {
	switch op {
	case expr.CEq:
		return pool.PEq
	case expr.CNe:
		return pool.PNe
	case expr.CLt:
		return pool.PLt
	case expr.CLe:
		return pool.PLe
	case expr.CGt:
		return pool.PGt
	default:
		return pool.PGe
	}
}

func flipCmp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.CLt:
		return expr.CGt
	case expr.CLe:
		return expr.CGe
	case expr.CGt:
		return expr.CLt
	case expr.CGe:
		return expr.CLe
	default: // equality is symmetric
		return op
	}
}

// vnode is a vectorized value expression producing one float64 per
// selected row, with the row path's Value.AsFloat/Arith semantics.
type vnode interface {
	eval(b *pool.ColBatch, sel pool.Sel) []float64
}

type vcol struct{ pos int }

func (v vcol) eval(b *pool.ColBatch, sel pool.Sel) []float64 {
	return b.FloatsSel(v.pos, sel, nil)
}

type vlit struct{ f float64 }

func (v vlit) eval(_ *pool.ColBatch, sel pool.Sel) []float64 {
	out := make([]float64, len(sel))
	for i := range out {
		out[i] = v.f
	}
	return out
}

type vbin struct {
	op   expr.VOp
	l, r vnode
}

func (v vbin) eval(b *pool.ColBatch, sel pool.Sel) []float64 {
	ls := v.l.eval(b, sel)
	rs := v.r.eval(b, sel)
	switch v.op {
	case expr.VAdd:
		for i := range ls {
			ls[i] += rs[i]
		}
	case expr.VSub:
		for i := range ls {
			ls[i] -= rs[i]
		}
	case expr.VMul:
		for i := range ls {
			ls[i] *= rs[i]
		}
	case expr.VDiv:
		for i := range ls {
			if rs[i] == 0 {
				ls[i] = 0
			} else {
				ls[i] /= rs[i]
			}
		}
	default: // VFloorDiv: Arith.EvalV's Int(int64(math.Floor(l/r))) as float
		for i := range ls {
			if rs[i] == 0 {
				ls[i] = 0
			} else {
				ls[i] = float64(int64(math.Floor(ls[i] / rs[i])))
			}
		}
	}
	return ls
}

func lowerVal(e expr.VExpr, colPos map[string]int) vnode {
	switch x := e.(type) {
	case expr.VarRef:
		if j, ok := colPos[x.Name]; ok {
			return vcol{pos: j}
		}
		return nil
	case *expr.VarRef:
		return lowerVal(*x, colPos)
	case expr.Lit:
		return vlit{f: x.V.AsFloat()}
	case *expr.Lit:
		return lowerVal(*x, colPos)
	case expr.Arith:
		l := lowerVal(x.L, colPos)
		if l == nil {
			return nil
		}
		r := lowerVal(x.R, colPos)
		if r == nil {
			return nil
		}
		return vbin{op: x.Op, l: l, r: r}
	case *expr.Arith:
		return lowerVal(*x, colPos)
	default:
		return nil
	}
}

// tryKernelAgg attempts the vectorized fold of a into gt, returning false
// when the context's plan table does not cover a, or the runtime relation
// or the context state is not covered — the caller then runs the row-wise
// path. It requires an empty outer binding (correlated aggregates rebind
// per outer row) and no tracer (the kernels never materialize per-row
// tuples to hash for it).
func (c *Ctx) tryKernelAgg(a *expr.Agg, b *Binding, gt *mring.GroupTable) bool {
	plan := c.Kernels[a]
	if plan == nil || c.Tracer != nil || len(b.vals) != 0 {
		return false
	}
	rel := c.Env.Rel(plan.env)
	if rel == nil || rel.Len() < kernelMinRows || len(rel.Schema()) != len(plan.cols) {
		return false
	}
	batch := pool.MirrorOf(rel)
	if batch == nil {
		return false
	}
	c.foldBatch(plan, batch, gt)
	c.Stats.KernelFolds++
	return true
}

// foldBatch runs the kernel pipeline over a relation's columnar mirror:
// predicates refine the selection vector in factor order, value factors
// multiply into the row weights (dropping rows whose factor value is
// exactly zero, as the row path does), then the surviving rows hash and
// fold into the group table in row order.
func (c *Ctx) foldBatch(plan *kernelPlan, batch *pool.ColBatch, gt *mring.GroupTable) {
	n := batch.Len()
	c.Stats.Scans += int64(n)
	c.Stats.Emits += int64(n)
	sel := pool.NewSel(n)
	for _, st := range plan.steps {
		if st.pred == nil {
			continue
		}
		sel = batch.FilterPred(*st.pred, sel)
		c.Stats.Emits += int64(len(sel))
		if len(sel) == 0 {
			return
		}
	}
	ms := batch.MultsSel(sel, nil)
	for _, st := range plan.steps {
		if st.val == nil {
			continue
		}
		if lit, ok := st.val.(vlit); ok {
			if lit.f == 0 {
				return
			}
			for k := range ms {
				ms[k] *= lit.f
			}
			c.Stats.Emits += int64(len(sel))
			continue
		}
		vec := st.val.eval(batch, sel)
		out := 0
		for k := range ms {
			if v := vec[k]; v != 0 {
				sel[out] = sel[k]
				ms[out] = ms[k] * v
				out++
			}
		}
		sel, ms = sel[:out], ms[:out]
		c.Stats.Emits += int64(out)
		if out == 0 {
			return
		}
	}
	hs := batch.HashSel(plan.groupPos, sel)
	batch.FoldSel(gt, plan.groupPos, sel, hs, ms)
}
