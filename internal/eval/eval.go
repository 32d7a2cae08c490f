// Package eval implements the paper's model of computation (Sec. 3.2.1):
// expressions are trees of operators evaluated left to right, bottom up,
// with information about bound variables flowing left to right through
// products. Because that flow is static, each tree is lowered once into a
// prepared plan (plan.go) that fixes, as the paper's code generator does
// (Sec. 5.1), every relational term's access path:
//
//   - foreach (no variables bound): scan every stored tuple, binding all
//     columns — a hash-map traversal of the relation's primary storage.
//   - get (all variables bound): a single hash lookup of the probe tuple
//     in the primary storage; no iteration, no allocation.
//   - slice (some variables bound): probe a persistent secondary index
//     owned by the relation, keyed by the bound-column projection. The
//     indexes are registered per (relation, bound-column mask) — at
//     compile time from the plans' access paths, or lazily on first use —
//     and are maintained incrementally by the relation on every mutation,
//     so per-update maintenance is constant time and nothing is ever
//     rebuilt or invalidated between batches.
//
// Variables live in slot-indexed frames and value terms read slots; every
// aggregate folds its body tuple at a time into a scratch relation keyed
// by its group-by columns.
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

// EnvOf returns an environment over rels that shares the map: a relation
// added to, replaced in or deleted from either shows in both.
func EnvOf(rels map[string]*mring.Relation) *Env { return &Env{rels: rels} }

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

// Stats accumulates operation counts during evaluation. They feed the
// distributed cost model and the counted-work experiment (Table 2).
type Stats struct {
	Lookups  int64 // get operations on relations
	Scans    int64 // tuples visited by foreach/slice
	Emits    int64 // tuples produced
	IndexOps int64 // secondary-index builds (first registration only)
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Lookups += o.Lookups
	s.Scans += o.Scans
	s.Emits += o.Emits
	s.IndexOps += o.IndexOps
}

// Ctx is one evaluation context: the environment the plans it runs
// resolve their relations from, the statistics they count, and the
// scratch one plan execution works in — a frame of variable slots, probe
// and group keys, and per-node state. The scratch is reused across
// tuples, statements and batches, so a Ctx must not run two plans at
// once; plans themselves are immutable and may be shared between
// contexts. Slice access paths probe persistent secondary indexes owned
// by the relations themselves, so a Ctx caches no index state.
type Ctx struct {
	Env   *Env
	Stats Stats
	// Plans is the plan table of the trees this context evaluates; a
	// tree without a plan is lowered on the spot, every time it runs.
	Plans Plans
	// groupHash overrides the hashing of scratch relations in tests
	// (forcing collision chains on the aggregation path); nil means
	// Tuple.Hash.
	groupHash func(mring.Tuple) uint64
	// foldSinks maps watched fold targets to delta sinks (CaptureFolds);
	// nil when nothing is watched.
	foldSinks map[*mring.Relation]*mring.Relation

	// Scratch of the running plan, sized by begin.
	rels  []*mring.Relation
	frame []mring.Value
	keys  []mring.Value
	cells []cell
	// spare[a] holds released scratch relations of arity a. They are
	// taken in nested order, so each stack is no deeper than the nesting
	// of materializations of its arity, however many plans the context
	// runs.
	spare [][]*mring.Relation
}

// NewCtx returns a fresh evaluation context over env.
func NewCtx(env *Env) *Ctx {
	return &Ctx{Env: env}
}

// plan returns e's prepared plan, lowering e when the table has none.
func (c *Ctx) plan(e expr.Expr) *Plan {
	if p := c.Plans[e]; p != nil {
		return p
	}
	p, err := prepare(e)
	if err != nil {
		panic(err)
	}
	return p
}

// begin readies the scratch for one execution of p: the relations its
// terms read are resolved from the environment (nil when undefined; the
// term that reads one panics), and the frame, keys and cells are sized.
func (c *Ctx) begin(p *Plan) {
	c.rels = resize(c.rels, len(p.rels))
	for i, name := range p.rels {
		c.rels[i] = c.Env.Rel(name)
	}
	c.frame = resize(c.frame, p.slots)
	c.keys = resize(c.keys, p.keys)
	c.cells = resize(c.cells, p.cells)
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// table returns an empty scratch relation for schema, reusing a
// released one of the same arity when there is one.
func (c *Ctx) table(schema mring.Schema) *mring.Relation {
	var r *mring.Relation
	if a := len(schema); a < len(c.spare) && len(c.spare[a]) > 0 {
		s := c.spare[a]
		r, c.spare[a] = s[len(s)-1], s[:len(s)-1]
		r.Reset(schema)
	} else {
		r = mring.NewRelation(schema)
	}
	if c.groupHash != nil {
		r.SetHashFnForTest(c.groupHash)
	}
	return r
}

// release returns a scratch relation its consumer has finished reading;
// nothing may read it afterwards.
func (c *Ctx) release(r *mring.Relation) {
	a := len(r.Schema())
	for len(c.spare) <= a {
		c.spare = append(c.spare, nil)
	}
	c.spare[a] = append(c.spare[a], r)
}

// key returns the scratch key of n values at offset off.
func (c *Ctx) key(off, n int) mring.Tuple { return c.keys[off : off+n : off+n] }

// Materialize evaluates e with no outer bindings into a fresh relation
// whose schema is e.Schema().
func (c *Ctx) Materialize(e expr.Expr) *mring.Relation {
	p := c.plan(e)
	c.begin(p)
	return p.root.relation(c)
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

// CaptureFolds registers sink as the delta observer of target: every
// subsequent FoldStmt into target additionally folds the applied change
// into sink (the changefeed's delta emission hook); a nil sink stops
// watching target. An OpAdd fold mirrors the folded rows exactly — the
// same float values, in the same order — so captured deltas are bitwise
// what the target received; an OpSet fold records new-minus-old
// contents. Sinks accumulate across statements (Relation.Add semantics),
// so contributions that cancel within one transaction never surface.
func (c *Ctx) CaptureFolds(target, sink *mring.Relation) {
	if sink == nil {
		delete(c.foldSinks, target)
		return
	}
	if c.foldSinks == nil {
		c.foldSinks = make(map[*mring.Relation]*mring.Relation, 1)
	}
	c.foldSinks[target] = sink
}

// FoldStmt evaluates rhs with no outer bindings and folds it into target
// under op — the one statement fold shared by the local executor and the
// cluster workers. The RHS evaluates into a scratch relation, fully,
// before target mutates, so self-references observe a consistent
// pre-statement state; the fold then merges it with its stored hashes,
// and OpSet's merge into the cleared target does no lookups.
func (c *Ctx) FoldStmt(target *mring.Relation, op AssignOp, rhs expr.Expr) {
	sink := c.foldSinks[target]
	var old *mring.Relation
	if sink != nil && op == OpSet {
		// Replacement folds (the re-evaluation policy) record the diff; the
		// pre-statement clone is paid only on watched targets.
		old = target.Clone()
	}
	p := c.plan(rhs)
	c.begin(p)
	tmp := p.root.relation(c)
	if op == OpSet {
		target.Clear()
	}
	target.Merge(tmp)
	if sink != nil && op == OpAdd {
		sink.Merge(tmp)
	}
	c.release(tmp)
	if old != nil {
		sink.Merge(target)
		sink.MergeScaled(old, -1)
	}
}

// AssignOp is a statement operator.
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
