package eval

import (
	"math"

	"repro/internal/expr"
	"repro/internal/mring"
	"repro/internal/pool"
)

// This file routes covered aggregates to the vectorized columnar kernels
// of internal/pool instead of the row path. An aggregate is covered when
// it is Sum_[gb](R(...) * f1 * ... * fk) where R is the single scanned
// relation (all columns distinct), every fi is either a static comparison
// (column vs literal, either order), a value term over R's columns and
// literals, or a constant, and every group-by column is one of R's
// columns. Lowering (plan.go) attaches the kernel plan to a covered
// aggregate reached with no variable bound, beside its row sub-plan;
// everything else — joins, slices, correlated aggregates, lifted
// assignments, Exists — has only the row path. At run time the kernel
// still yields to the row sub-plan when the relation has mixed-kind
// columns (no columnar mirror), is too small to be worth vectorizing, or
// a tracer is watching.
//
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
			// A repeated column variable is a self-equality constraint,
			// which the row path checks per tuple; not covered.
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

// foldKernel attempts the vectorized fold of a covered aggregate into gt,
// returning false when the relation or the context is not covered at run
// time — the caller then runs the row sub-plan. It yields to a tracer,
// because the kernels never materialize per-row tuples to hash for it.
func (c *Ctx) foldKernel(n *aggNode, gt *mring.GroupTable) bool {
	if c.Tracer != nil {
		return false
	}
	rel := c.rels[n.krel]
	if rel == nil || rel.Len() < kernelMinRows || len(rel.Schema()) != len(n.kernel.cols) {
		return false
	}
	batch := pool.MirrorOf(rel)
	if batch == nil {
		return false
	}
	foldBatch(&c.Stats, n.kernel, batch, gt)
	c.Stats.KernelFolds++
	return true
}

// foldBatch runs the kernel pipeline over a relation's columnar mirror:
// predicates refine the selection vector in factor order, value factors
// multiply into the row weights (dropping rows whose factor value is
// exactly zero, as the row path does), then the surviving rows hash and
// fold into the group table in row order.
func foldBatch(stats *Stats, plan *kernelPlan, batch *pool.ColBatch, gt *mring.GroupTable) {
	n := batch.Len()
	stats.Scans += int64(n)
	stats.Emits += int64(n)
	sel := pool.NewSel(n)
	for _, st := range plan.steps {
		if st.pred == nil {
			continue
		}
		sel = batch.FilterPred(*st.pred, sel)
		stats.Emits += int64(len(sel))
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
			stats.Emits += int64(len(sel))
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
		stats.Emits += int64(out)
		if out == 0 {
			return
		}
	}
	hs := batch.HashSel(plan.groupPos, sel)
	batch.FoldSel(gt, plan.groupPos, sel, hs, ms)
}
