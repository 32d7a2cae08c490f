package eval

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/mring"
)

// This file keeps the map-binding interpreter the prepared plans
// replaced, as a test-only reference: every relational term dispatches on
// which of its columns a name-keyed binding holds when it is reached, and
// value terms read the binding through a lookup closure. The one change
// from the interpreter as it ran is the repeated-column fix: a variable
// that occurs twice among a term's free columns binds at its first
// occurrence and compares (by key identity, as get and slice probes
// match) at later ones. TestPreparedMatchesReference and the scan-fold
// parity tests hold the prepared evaluator to it bit for bit.

// Reference is one reference evaluation context.
type Reference struct {
	Env   *Env
	Stats Stats
	// Tracer, when non-nil, observes every relation memory touch.
	Tracer    func(rel string, tupleHash uint64)
	groupHash func(mring.Tuple) uint64
}

// NewReference returns a reference context over env.
func NewReference(env *Env) *Reference { return &Reference{Env: env} }

// bindFree binds the free columns of r to t's values, first occurrence
// first; a later occurrence of an already-bound variable is an equality
// check. It reports whether t satisfies the checks.
func bindFree(b *refBinding, r *expr.Rel, freeCols []int, t mring.Tuple) bool {
	for k, i := range freeCols {
		first := i
		for _, j := range freeCols[:k] {
			if r.Cols[j] == r.Cols[i] {
				first = j
				break
			}
		}
		if first == i {
			b.set(r.Cols[i], t[i])
		} else if !t[i].KeyEqual(t[first]) {
			return false
		}
	}
	return true
}

// refBinding tracks the variables bound during evaluation. Binding an
// already-bound variable degrades to an equality check, which is exactly
// the natural-join semantics of repeated column names.
type refBinding struct {
	vals map[string]mring.Value
}

// newRefBinding returns an empty binding.
func newRefBinding() *refBinding { return &refBinding{vals: make(map[string]mring.Value)} }

// Lookup returns the value bound to name; it panics when unbound, because
// compiled programs guarantee boundness of value-term variables.
func (b *refBinding) Lookup(name string) mring.Value {
	v, ok := b.vals[name]
	if !ok {
		panic(fmt.Sprintf("eval: variable %q unbound", name))
	}
	return v
}

// Get returns the value and whether name is bound.
func (b *refBinding) Get(name string) (mring.Value, bool) {
	v, ok := b.vals[name]
	return v, ok
}

// Set binds name to v unconditionally. Callers use the returned prior
// state to restore.
func (b *refBinding) set(name string, v mring.Value) {
	b.vals[name] = v
}

func (b *refBinding) unset(name string) { delete(b.vals, name) }

// Tuple projects the binding onto the schema.
func (b *refBinding) Tuple(schema mring.Schema) mring.Tuple {
	t := make(mring.Tuple, len(schema))
	for i, c := range schema {
		t[i] = b.Lookup(c)
	}
	return t
}

// eval evaluates e under binding b, invoking emit once per produced tuple
// extension with its multiplicity. After each emit, the schema columns of
// e are bound in b; bindings are restored before Eval returns.
func (c *Reference) eval(e expr.Expr, b *refBinding, emit func(m float64)) {
	switch x := e.(type) {
	case *expr.Const:
		if x.V != 0 {
			c.Stats.Emits++
			emit(x.V)
		}
	case *expr.Val:
		v := x.E.EvalV(b.Lookup).AsFloat()
		if v != 0 {
			c.Stats.Emits++
			emit(v)
		}
	case *expr.Cmp:
		if expr.EvalCmp(x.Op, x.L.EvalV(b.Lookup), x.R.EvalV(b.Lookup)) {
			c.Stats.Emits++
			emit(1)
		}
	case *expr.Rel:
		c.evalRel(x, b, emit)
	case *expr.Mul:
		c.evalMul(x.Factors, b, 1, emit)
	case *expr.Plus:
		// Downstream operators are linear in multiplicity, so streaming
		// each term is equivalent to materializing the union first.
		for _, t := range x.Terms {
			c.eval(t, b, emit)
		}
	case *expr.Agg:
		c.evalAgg(x, b, emit)
	case *expr.Assign:
		c.evalAssign(x, b, emit)
	case *expr.Exists:
		c.evalExists(x, b, emit)
	default:
		panic(fmt.Sprintf("eval: unknown node %T", e))
	}
}

func (c *Reference) evalMul(factors []expr.Expr, b *refBinding, acc float64, emit func(m float64)) {
	if len(factors) == 0 {
		emit(acc)
		return
	}
	head, rest := factors[0], factors[1:]
	c.eval(head, b, func(m float64) {
		c.evalMul(rest, b, acc*m, emit)
	})
}

// evalRel dispatches on which columns are already bound.
func (c *Reference) evalRel(r *expr.Rel, b *refBinding, emit func(m float64)) {
	rel := c.Env.MustRel(RelEnvName(r))
	var boundCols, freeCols []int
	for i, col := range r.Cols {
		if _, ok := b.Get(col); ok {
			boundCols = append(boundCols, i)
		} else {
			freeCols = append(freeCols, i)
		}
	}
	switch {
	case len(freeCols) == 0:
		// get: all columns bound — single lookup.
		key := make(mring.Tuple, len(r.Cols))
		for i, col := range r.Cols {
			key[i] = b.Lookup(col)
		}
		c.Stats.Lookups++
		if c.Tracer != nil {
			c.Tracer(r.Name, key.Hash())
		}
		if m := rel.Get(key); m != 0 {
			c.Stats.Emits++
			emit(m)
		}
	case len(boundCols) == 0:
		// foreach: scan the whole collection.
		rel.Foreach(func(t mring.Tuple, m float64) {
			c.Stats.Scans++
			if c.Tracer != nil {
				c.Tracer(r.Name, t.Hash())
			}
			if len(t) != len(r.Cols) {
				panic(fmt.Sprintf("eval: arity mismatch scanning %s", r.Name))
			}
			if !bindFree(b, r, freeCols, t) {
				return
			}
			c.Stats.Emits++
			emit(m)
		})
		for _, i := range freeCols {
			b.unset(r.Cols[i])
		}
	default:
		// slice: some bound — probe the relation's persistent secondary
		// index for the bound-column mask.
		c.evalSlice(r, rel, b, boundCols, freeCols, emit)
	}
}

func (c *Reference) evalSlice(r *expr.Rel, rel *mring.Relation, b *refBinding, boundCols, freeCols []int, emit func(m float64)) {
	if !mring.Indexable(boundCols) {
		// Bound columns beyond the index bitmask width (>64-column
		// relation): degrade to a filtered scan rather than failing.
		c.evalSliceScan(r, rel, b, boundCols, freeCols, emit)
		return
	}
	idx, built := rel.EnsureIndex(boundCols)
	if built {
		c.Stats.IndexOps++
	}
	probe := make(mring.Tuple, len(boundCols))
	for j, i := range boundCols {
		probe[j] = b.Lookup(r.Cols[i])
	}
	c.Stats.Lookups++
	idx.Probe(probe, func(t mring.Tuple, m float64) {
		c.Stats.Scans++
		if c.Tracer != nil {
			c.Tracer(r.Name, t.Hash())
		}
		if !bindFree(b, r, freeCols, t) {
			return
		}
		c.Stats.Emits++
		emit(m)
	})
	for _, i := range freeCols {
		b.unset(r.Cols[i])
	}
}

// evalSliceScan is the slice path for bound columns no index can cover
// (!mring.Indexable): scan everything, filter on the bound columns.
func (c *Reference) evalSliceScan(r *expr.Rel, rel *mring.Relation, b *refBinding, boundCols, freeCols []int, emit func(m float64)) {
	probe := make(mring.Tuple, len(boundCols))
	for j, i := range boundCols {
		probe[j] = b.Lookup(r.Cols[i])
	}
	c.Stats.Lookups++
	rel.Foreach(func(t mring.Tuple, m float64) {
		c.Stats.Scans++
		if !t.EqualAt(boundCols, probe) {
			return
		}
		if c.Tracer != nil {
			c.Tracer(r.Name, t.Hash())
		}
		if !bindFree(b, r, freeCols, t) {
			return
		}
		c.Stats.Emits++
		emit(m)
	})
	for _, i := range freeCols {
		b.unset(r.Cols[i])
	}
}

// aggGroups evaluates Sum_[gb](body) under b into a hash-native group
// table: one streaming hash probe per produced tuple through a reused key
// buffer — no string keys, no per-emit tuple allocation. Groups whose
// ring value cancels to zero are removed inside the table (Relation.Add
// semantics), so canceled groups never reach emission or downstream
// views.
func (c *Reference) aggGroups(a *expr.Agg, b *refBinding) *mring.GroupTable {
	gt := mring.NewGroupTable(mring.Schema(a.GroupBy))
	if c.groupHash != nil {
		gt.SetHashFnForTest(c.groupHash)
	}
	key := make(mring.Tuple, len(a.GroupBy))
	c.eval(a.Body, b, func(m float64) {
		for i, col := range a.GroupBy {
			key[i] = b.Lookup(col)
		}
		gt.Add(key, m)
	})
	return gt
}

// evalAgg materializes Sum_[gb](body): groups body results by the group-by
// columns in a hash-native group table and emits one tuple per live group
// with the accumulated multiplicity, in first-insertion order.
func (c *Reference) evalAgg(a *expr.Agg, b *refBinding, emit func(m float64)) {
	gt := c.aggGroups(a, b)
	var wasBound []int
	var savedVals []mring.Value
	for i, col := range a.GroupBy {
		if v, ok := b.Get(col); ok {
			wasBound = append(wasBound, i)
			savedVals = append(savedVals, v)
		}
	}
	gt.Foreach(func(t mring.Tuple, m float64) {
		for i, col := range a.GroupBy {
			b.set(col, t[i])
		}
		c.Stats.Emits++
		emit(m)
	})
	for _, col := range a.GroupBy {
		b.unset(col)
	}
	for j, i := range wasBound {
		b.set(a.GroupBy[i], savedVals[j])
	}
}

// evalAssign handles both assignment forms.
func (c *Reference) evalAssign(a *expr.Assign, b *refBinding, emit func(m float64)) {
	if a.Q == nil {
		// var := value.
		v := a.ValE.EvalV(b.Lookup)
		if prev, ok := b.Get(a.Var); ok {
			// Bound variable: acts as an equality filter.
			if prev.Equal(v) {
				c.Stats.Emits++
				emit(1)
			}
			return
		}
		b.set(a.Var, v)
		c.Stats.Emits++
		emit(1)
		b.unset(a.Var)
		return
	}
	// var := Q. Lifting is not linear in Q's multiplicities, so Q is
	// materialized under the current (correlated) bindings.
	qs := a.Q.Schema()
	if len(qs) == 0 {
		// Scalar nested aggregate: always defined, 0 when Q is empty
		// (COUNT over the empty set).
		var total float64
		c.eval(a.Q, b, func(m float64) { total += m })
		c.bindLifted(a.Var, mring.Float(total), b, emit)
		return
	}
	rel := c.evalToRelation(a.Q, b)
	// Remember outer bindings of Q's schema columns so they are restored.
	var saved []struct {
		col string
		v   mring.Value
		ok  bool
	}
	for _, col := range qs {
		v, ok := b.Get(col)
		saved = append(saved, struct {
			col string
			v   mring.Value
			ok  bool
		}{col, v, ok})
	}
	rel.Foreach(func(t mring.Tuple, m float64) {
		for i, col := range qs {
			b.set(col, t[i])
		}
		c.bindLifted(a.Var, mring.Float(m), b, emit)
	})
	for _, s := range saved {
		if s.ok {
			b.set(s.col, s.v)
		} else {
			b.unset(s.col)
		}
	}
}

func (c *Reference) bindLifted(v string, val mring.Value, b *refBinding, emit func(m float64)) {
	if prev, ok := b.Get(v); ok {
		if prev.Equal(val) {
			c.Stats.Emits++
			emit(1)
		}
		return
	}
	b.set(v, val)
	c.Stats.Emits++
	emit(1)
	b.unset(v)
}

// evalExists materializes the body and emits each distinct tuple with
// multiplicity 1. Exists is not linear, so the body must be materialized
// (duplicate emissions for one tuple collapse to a single 1).
func (c *Reference) evalExists(e *expr.Exists, b *refBinding, emit func(m float64)) {
	s := e.Body.Schema()
	if len(s) == 0 {
		// Inline single-group accumulator with the group table's
		// in-table cancellation semantics, bit for bit: zero
		// contributions are skipped, a fresh contribution starts the
		// group (tiny values survive), and accumulating into
		// (-Eps, Eps) cancels it. Scalar Exists thereby agrees with
		// the grouped shape (TestExistsScalarMatchesGrouped pins the
		// agreement) without allocating a table on this per-binding
		// path.
		var total float64
		alive := false
		c.eval(e.Body, b, func(m float64) {
			if m == 0 {
				return
			}
			if !alive {
				total, alive = m, true
				return
			}
			total += m
			if total > -mring.Eps && total < mring.Eps {
				alive = false
			}
		})
		if alive {
			c.Stats.Emits++
			emit(1)
		}
		return
	}
	rel := c.evalToRelation(e.Body, b)
	var saved []struct {
		v  mring.Value
		ok bool
	}
	for _, col := range s {
		v, ok := b.Get(col)
		saved = append(saved, struct {
			v  mring.Value
			ok bool
		}{v, ok})
	}
	rel.Foreach(func(t mring.Tuple, _ float64) {
		for i, col := range s {
			b.set(col, t[i])
		}
		c.Stats.Emits++
		emit(1)
	})
	for i, col := range s {
		if saved[i].ok {
			b.set(col, saved[i].v)
		} else {
			b.unset(col)
		}
	}
}

// evalToRelation materializes e under the current binding. Aggregates
// take the hash-native fast path: the group table converts straight into
// a relation with its stored hashes, skipping the bind/emit/re-hash round
// trip through the generic path.
func (c *Reference) evalToRelation(e expr.Expr, b *refBinding) *mring.Relation {
	if a, ok := e.(*expr.Agg); ok {
		gt := c.aggGroups(a, b)
		c.Stats.Emits += int64(gt.Len())
		return gt.ToRelation()
	}
	s := e.Schema()
	out := mring.NewRelation(s)
	c.eval(e, b, func(m float64) {
		out.Add(b.Tuple(s), m)
	})
	return out
}

// Materialize evaluates e with no outer bindings into a fresh relation
// whose schema is e.Schema().
func (c *Reference) Materialize(e expr.Expr) *mring.Relation {
	return c.evalToRelation(e, newRefBinding())
}

// MaterializeGroups evaluates an aggregate with no outer bindings into a
// hash-native group table. Executors fold the table straight into target
// views (AppendTo/FillRelation), reusing its hashes instead of rebuilding
// a scratch relation.
func (c *Reference) MaterializeGroups(a *expr.Agg) *mring.GroupTable {
	gt := c.aggGroups(a, newRefBinding())
	c.Stats.Emits += int64(gt.Len())
	return gt
}

// FoldStmt evaluates rhs with no outer bindings and folds it into target
// under op, as the evaluator's fold does (capture sinks aside).
func (c *Reference) FoldStmt(target *mring.Relation, op AssignOp, rhs expr.Expr) {
	if a, ok := rhs.(*expr.Agg); ok {
		gt := c.MaterializeGroups(a)
		if op == OpSet {
			target.Clear()
			gt.FillRelation(target)
		} else {
			gt.AppendTo(target)
		}
		return
	}
	tmp := c.Materialize(rhs)
	if op == OpSet {
		target.Clear()
	}
	target.Merge(tmp)
}
