package bench

// The two comparison strategies of the paper's Fig. 8 and Table 1 (run
// there on PostgreSQL; DESIGN.md §3 records the substitution):
//
//   - ReEval: refresh the materialized result by recomputing the query
//     over the stored base tables on every batch;
//   - ClassicalIVM: first-order incremental view maintenance — evaluate
//     one delta query per updated relation against the stored base tables
//     (no recursive auxiliary materialization).
//
// Both maintain the base tables themselves and share the generic
// evaluator, so the measured gaps isolate the maintenance strategy.

import (
	"fmt"

	"repro/internal/delta"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
)

// Engine is the common interface of all maintenance strategies.
type Engine interface {
	// ApplyBatch ingests one update batch for a base relation.
	ApplyBatch(rel string, batch *mring.Relation)
	// Result returns the maintained query result.
	Result() *mring.Relation
	// Name identifies the strategy in reports.
	Name() string
}

// ReEval recomputes the query from scratch on every batch.
type ReEval struct {
	query expr.Expr
	ctx   *eval.Ctx
	bases map[string]*mring.Relation
	res   *mring.Relation
	// Stats accumulates evaluation statistics.
	Stats eval.Stats
}

// NewReEval creates a re-evaluation engine over empty base tables.
func NewReEval(query expr.Expr, bases map[string]mring.Schema) *ReEval {
	env := eval.NewEnv()
	e := &ReEval{query: query, ctx: planCtx(env, query), bases: map[string]*mring.Relation{}}
	for n, s := range bases {
		e.bases[n] = env.Define(n, s)
	}
	e.res = mring.NewRelation(query.Schema())
	return e
}

// Name implements Engine.
func (e *ReEval) Name() string { return "reeval" }

// LoadBase preloads a base table (static dimensions).
func (e *ReEval) LoadBase(rel string, r *mring.Relation) {
	e.bases[rel].Merge(r)
	e.refresh()
}

// ApplyBatch implements Engine.
func (e *ReEval) ApplyBatch(rel string, batch *mring.Relation) {
	b, ok := e.bases[rel]
	if !ok {
		panic(fmt.Sprintf("bench: unknown relation %q", rel))
	}
	b.Merge(batch)
	e.refresh()
}

func (e *ReEval) refresh() {
	e.res = materialize(e.ctx, e.query, &e.Stats)
}

// planCtx returns an evaluation context over env that runs the prepared
// plans of es, lowered once for the engine's lifetime.
func planCtx(env *eval.Env, es ...expr.Expr) *eval.Ctx {
	plans, err := eval.Prepare(es...)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	ctx := eval.NewCtx(env)
	ctx.Plans = plans
	return ctx
}

// materialize evaluates q through ctx, adding the work to stats.
func materialize(ctx *eval.Ctx, q expr.Expr, stats *eval.Stats) *mring.Relation {
	ctx.Stats = eval.Stats{}
	r := ctx.Materialize(q)
	stats.Add(ctx.Stats)
	return r
}

// Result implements Engine.
func (e *ReEval) Result() *mring.Relation { return e.res }

// ClassicalIVM evaluates first-order deltas against the stored base
// tables: ΔQ references (n−1) base tables for an n-way join (Sec. 2.1),
// with no recursive materialization of the update-independent parts.
type ClassicalIVM struct {
	query  expr.Expr
	env    *eval.Env
	ctx    *eval.Ctx
	bases  map[string]*mring.Relation
	deltas map[string]expr.Expr
	res    *mring.Relation
	// Stats accumulates evaluation statistics.
	Stats eval.Stats
}

// NewClassicalIVM creates a first-order IVM engine. Delta queries are
// derived once at construction (with domain extraction, which the paper
// also grants the PostgreSQL implementation for Fig. 8).
func NewClassicalIVM(query expr.Expr, bases map[string]mring.Schema) *ClassicalIVM {
	e := &ClassicalIVM{
		query:  query,
		env:    eval.NewEnv(),
		bases:  map[string]*mring.Relation{},
		deltas: map[string]expr.Expr{},
	}
	for n, s := range bases {
		e.bases[n] = e.env.Define(n, s)
	}
	es := []expr.Expr{query}
	for n := range bases {
		e.deltas[n] = delta.Derive(query, n, delta.Options{DomainExtraction: true})
		es = append(es, e.deltas[n])
	}
	e.ctx = planCtx(e.env, es...)
	e.res = mring.NewRelation(query.Schema())
	return e
}

// Name implements Engine.
func (e *ClassicalIVM) Name() string { return "classical-ivm" }

// LoadBase preloads a base table and refreshes the result from scratch
// (initial load only).
func (e *ClassicalIVM) LoadBase(rel string, r *mring.Relation) {
	e.bases[rel].Merge(r)
	e.res = materialize(e.ctx, e.query, &e.Stats)
}

// ApplyBatch implements Engine: evaluate the delta query against the
// pre-update base tables, fold it into the result, then apply the batch
// to the stored base table.
func (e *ClassicalIVM) ApplyBatch(rel string, batch *mring.Relation) {
	dq, ok := e.deltas[rel]
	if !ok {
		panic(fmt.Sprintf("bench: unknown relation %q", rel))
	}
	e.env.Bind(eval.DeltaName(rel), batch)
	if !expr.IsZero(dq) {
		e.res.Merge(materialize(e.ctx, dq, &e.Stats))
	}
	e.bases[rel].Merge(batch)
}

// Result implements Engine.
func (e *ClassicalIVM) Result() *mring.Relation { return e.res }
