// Package eval implements the paper's model of computation (Sec. 3.2.1):
// expressions are trees of operators evaluated left to right, bottom up,
// with information about bound variables flowing left to right through
// products. Relational terms dispatch on the bound-variable set to the
// three access paths the code generator specializes in Sec. 5.1:
//
//   - foreach (no variables bound): scan every stored tuple, binding all
//     columns — a hash-map traversal of the relation's primary storage.
//   - get (all variables bound): a single hash lookup of the probe tuple
//     in the primary storage; no iteration, no allocation.
//   - slice (some variables bound): probe a persistent secondary index
//     owned by the relation, keyed by the bound-column projection. The
//     indexes are registered per (relation, bound-column mask) — at
//     compile time from the access patterns the compiler extracts, or
//     lazily on first use — and are maintained incrementally by the
//     relation on every mutation, so per-update maintenance is constant
//     time and nothing is ever rebuilt or invalidated between batches.
package eval

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/mring"
)

// Env maps relation names (base tables, delta batches, materialized views)
// to their current contents. One Env backs one engine instance.
type Env struct {
	rels map[string]*mring.Relation
}

// NewEnv returns an empty environment.
func NewEnv() *Env { return &Env{rels: make(map[string]*mring.Relation)} }

// Define registers (or replaces) relation name with the given schema and
// returns its empty contents.
func (e *Env) Define(name string, schema mring.Schema) *mring.Relation {
	r := mring.NewRelation(schema)
	e.rels[name] = r
	return r
}

// Bind registers an existing relation under name.
func (e *Env) Bind(name string, r *mring.Relation) { e.rels[name] = r }

// Rel returns the relation registered under name, or nil.
func (e *Env) Rel(name string) *mring.Relation { return e.rels[name] }

// MustRel returns the relation or panics; evaluation of compiled programs
// treats missing relations as programming errors.
func (e *Env) MustRel(name string) *mring.Relation {
	r := e.rels[name]
	if r == nil {
		panic(fmt.Sprintf("eval: relation %q not defined", name))
	}
	return r
}

// Names returns all registered relation names (unordered).
func (e *Env) Names() []string {
	out := make([]string, 0, len(e.rels))
	for n := range e.rels {
		out = append(out, n)
	}
	return out
}

// Binding tracks the variables bound during evaluation. Binding an
// already-bound variable degrades to an equality check, which is exactly
// the natural-join semantics of repeated column names.
type Binding struct {
	vals map[string]mring.Value
}

// NewBinding returns an empty binding.
func NewBinding() *Binding { return &Binding{vals: make(map[string]mring.Value)} }

// Lookup returns the value bound to name; it panics when unbound, because
// compiled programs guarantee boundness of value-term variables.
func (b *Binding) Lookup(name string) mring.Value {
	v, ok := b.vals[name]
	if !ok {
		panic(fmt.Sprintf("eval: variable %q unbound", name))
	}
	return v
}

// Get returns the value and whether name is bound.
func (b *Binding) Get(name string) (mring.Value, bool) {
	v, ok := b.vals[name]
	return v, ok
}

// Set binds name to v unconditionally. Callers use the returned prior
// state to restore.
func (b *Binding) set(name string, v mring.Value) {
	b.vals[name] = v
}

func (b *Binding) unset(name string) { delete(b.vals, name) }

// Tuple projects the binding onto the schema.
func (b *Binding) Tuple(schema mring.Schema) mring.Tuple {
	t := make(mring.Tuple, len(schema))
	for i, c := range schema {
		t[i] = b.Lookup(c)
	}
	return t
}

// Stats accumulates operation counts during evaluation. They feed the
// distributed cost model and the cache-locality experiment.
type Stats struct {
	Lookups  int64 // get operations on relations
	Scans    int64 // tuples visited by foreach/slice
	Emits    int64 // tuples produced
	IndexOps int64 // secondary-index builds (first registration only)
	// KernelFolds counts aggregate folds served by the columnar kernels.
	KernelFolds int64
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Lookups += o.Lookups
	s.Scans += o.Scans
	s.Emits += o.Emits
	s.IndexOps += o.IndexOps
	s.KernelFolds += o.KernelFolds
}

// Ctx is one evaluation context. Slice access paths probe persistent
// secondary indexes owned by the relations themselves (maintained
// incrementally on mutation), so a Ctx carries no cached index state and
// may be reused across statements and batches freely.
type Ctx struct {
	Env   *Env
	Stats Stats
	// Tracer, when non-nil, observes every relation memory touch for the
	// cache-locality experiment.
	Tracer func(rel string, tupleHash uint64)
	// Kernels is the plan table of the trees this context evaluates:
	// aggregates it covers fold through the vectorized columnar kernels,
	// everything else takes the row-wise path — every aggregate when nil.
	Kernels Kernels
	// groupHash overrides group-table key hashing in tests (forcing
	// collision chains on the aggregation path); nil means Tuple.Hash.
	groupHash func(mring.Tuple) uint64
	// foldSinks maps watched fold targets to delta sinks (CaptureFolds);
	// nil when nothing is watched.
	foldSinks map[*mring.Relation]*mring.Relation
}

// NewCtx returns a fresh evaluation context over env.
func NewCtx(env *Env) *Ctx {
	return &Ctx{Env: env}
}

// Eval evaluates e under binding b, invoking emit once per produced tuple
// extension with its multiplicity. After each emit, the schema columns of
// e are bound in b; bindings are restored before Eval returns.
func (c *Ctx) Eval(e expr.Expr, b *Binding, emit func(m float64)) {
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
			c.Eval(t, b, emit)
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

func (c *Ctx) evalMul(factors []expr.Expr, b *Binding, acc float64, emit func(m float64)) {
	if len(factors) == 0 {
		emit(acc)
		return
	}
	head, rest := factors[0], factors[1:]
	c.Eval(head, b, func(m float64) {
		c.evalMul(rest, b, acc*m, emit)
	})
}

// DeltaName returns the environment name under which the update batch of
// base relation name is registered ("ΔR" for base table "R").
func DeltaName(name string) string { return "Δ" + name }

// RelEnvName returns the environment key a relational term resolves to.
func RelEnvName(r *expr.Rel) string {
	if r.Kind == expr.RDelta {
		return DeltaName(r.Name)
	}
	return r.Name
}

// evalRel dispatches on which columns are already bound.
func (c *Ctx) evalRel(r *expr.Rel, b *Binding, emit func(m float64)) {
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
			for i, col := range r.Cols {
				b.set(col, t[i])
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

func (c *Ctx) evalSlice(r *expr.Rel, rel *mring.Relation, b *Binding, boundCols, freeCols []int, emit func(m float64)) {
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
		for _, i := range freeCols {
			b.set(r.Cols[i], t[i])
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
func (c *Ctx) evalSliceScan(r *expr.Rel, rel *mring.Relation, b *Binding, boundCols, freeCols []int, emit func(m float64)) {
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
		for _, i := range freeCols {
			b.set(r.Cols[i], t[i])
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
func (c *Ctx) aggGroups(a *expr.Agg, b *Binding) *mring.GroupTable {
	gt := mring.NewGroupTable(mring.Schema(a.GroupBy))
	if c.groupHash != nil {
		gt.SetHashFnForTest(c.groupHash)
	}
	if c.tryKernelAgg(a, b, gt) {
		return gt
	}
	key := make(mring.Tuple, len(a.GroupBy))
	c.Eval(a.Body, b, func(m float64) {
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
func (c *Ctx) evalAgg(a *expr.Agg, b *Binding, emit func(m float64)) {
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
func (c *Ctx) evalAssign(a *expr.Assign, b *Binding, emit func(m float64)) {
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
		c.Eval(a.Q, b, func(m float64) { total += m })
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

func (c *Ctx) bindLifted(v string, val mring.Value, b *Binding, emit func(m float64)) {
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
func (c *Ctx) evalExists(e *expr.Exists, b *Binding, emit func(m float64)) {
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
		c.Eval(e.Body, b, func(m float64) {
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
func (c *Ctx) evalToRelation(e expr.Expr, b *Binding) *mring.Relation {
	if a, ok := e.(*expr.Agg); ok {
		gt := c.aggGroups(a, b)
		c.Stats.Emits += int64(gt.Len())
		return gt.ToRelation()
	}
	s := e.Schema()
	out := mring.NewRelation(s)
	c.Eval(e, b, func(m float64) {
		out.Add(b.Tuple(s), m)
	})
	return out
}

// Materialize evaluates e with no outer bindings into a fresh relation
// whose schema is e.Schema().
func (c *Ctx) Materialize(e expr.Expr) *mring.Relation {
	return c.evalToRelation(e, NewBinding())
}

// MaterializeGroups evaluates an aggregate with no outer bindings into a
// hash-native group table. Executors fold the table straight into target
// views (AppendTo/FillRelation), reusing its hashes instead of rebuilding
// a scratch relation.
func (c *Ctx) MaterializeGroups(a *expr.Agg) *mring.GroupTable {
	gt := c.aggGroups(a, NewBinding())
	c.Stats.Emits += int64(gt.Len())
	return gt
}

// CaptureFolds registers sink as the delta observer of target: every
// subsequent FoldStmt into target additionally folds the applied change
// into sink (the changefeed's delta emission hook). An OpAdd fold mirrors
// the folded groups exactly — the same float values, in the same order —
// so captured deltas are bitwise what the target received; an OpSet fold
// records new-minus-old contents. Sinks accumulate across statements
// (Relation.Add semantics), so contributions that cancel within one
// transaction never surface.
func (c *Ctx) CaptureFolds(target, sink *mring.Relation) {
	if c.foldSinks == nil {
		c.foldSinks = make(map[*mring.Relation]*mring.Relation, 1)
	}
	c.foldSinks[target] = sink
}

// FoldStmt evaluates rhs with no outer bindings and folds it into target
// under op — the one statement fold shared by the local executor and the
// cluster workers. A top-level aggregate (every pre-aggregation
// statement and most maintenance statements) evaluates into a
// hash-native group table and folds with its stored hashes: OpSet
// blind-fills the cleared target, OpAdd accumulates group deltas. Any
// other shape materializes a scratch relation and merges. The RHS is
// fully materialized before target mutates, so self-references observe a
// consistent pre-statement state.
func (c *Ctx) FoldStmt(target *mring.Relation, op AssignOp, rhs expr.Expr) {
	sink := c.foldSinks[target]
	var old *mring.Relation
	if sink != nil && op == OpSet {
		// Replacement folds (the re-evaluation policy) record the diff; the
		// pre-statement clone is paid only on watched targets.
		old = target.Clone()
	}
	if a, ok := rhs.(*expr.Agg); ok {
		gt := c.MaterializeGroups(a)
		if op == OpSet {
			target.Clear()
			gt.FillRelation(target)
		} else {
			gt.AppendTo(target)
			if sink != nil {
				gt.AppendTo(sink)
			}
		}
	} else {
		tmp := c.Materialize(rhs)
		if op == OpSet {
			target.Clear()
		}
		target.Merge(tmp)
		if sink != nil && op == OpAdd {
			sink.Merge(tmp)
		}
	}
	if old != nil {
		sink.Merge(target)
		sink.MergeScaled(old, -1)
	}
}

// EvalIntoOp applies op to target for every tuple produced by e.
type AssignOp uint8

// Statement operators.
const (
	OpAdd AssignOp = iota // target += e
	OpSet                 // target := e (replace contents)
)

func (op AssignOp) String() string {
	if op == OpAdd {
		return "+="
	}
	return ":="
}

// Apply evaluates e and folds it into target using op: an arity-checked
// wrapper over FoldStmt, so view initialization and the trigger
// statements share one fold (materialize-first, group-table fast path
// for aggregates). Target's schema must match e's output schema
// column-for-column (by position; names may differ for views).
func (c *Ctx) Apply(target *mring.Relation, op AssignOp, e expr.Expr) {
	if len(e.Schema()) != len(target.Schema()) {
		panic(fmt.Sprintf("eval: schema arity mismatch applying %v to %v", e.Schema(), target.Schema()))
	}
	c.FoldStmt(target, op, e)
}
