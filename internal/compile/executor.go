package compile

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/mring"
)

// Executor runs a compiled maintenance program locally: it owns the
// materialized view contents and applies update batches through the
// program's triggers. The stream starts from an empty database, as in the
// paper's streaming experiments; InitFromBases supports warm starts.
type Executor struct {
	prog  *Program
	env   *eval.Env
	views map[string]*mring.Relation
	// deltaIdx holds, per Δ-delta env name, the index masks the triggers
	// slice update batches with; ApplyBatch registers them on each batch.
	deltaIdx map[string][][]int
	// deltas holds each triggered base relation's Δ env name, built once
	// so applying a batch concatenates no strings.
	deltas map[string]string
	// ctx evaluates every trigger through the program's plans; its
	// scratch is reused across statements and batches.
	ctx *eval.Ctx
	// Stats accumulates evaluation statistics across batches.
	Stats eval.Stats
}

// NewExecutor creates an executor with empty view contents. The secondary
// indexes declared by the compiler's access-path analysis are registered
// on the views up front; the relations maintain them incrementally from
// then on. The executor runs the plans the compiler prepared with the
// program (a program built by other means is prepared here, once).
func NewExecutor(prog *Program) *Executor {
	if prog.plans == nil {
		if err := preparePlans(prog); err != nil {
			panic(err)
		}
	}
	env := eval.NewEnv()
	ex := &Executor{
		prog:     prog,
		env:      env,
		views:    make(map[string]*mring.Relation),
		deltaIdx: make(map[string][][]int),
		deltas:   make(map[string]string, len(prog.Triggers)),
		ctx:      eval.NewCtx(env),
	}
	ex.ctx.Plans = prog.plans
	for rel := range prog.Triggers {
		ex.deltas[rel] = eval.DeltaName(rel)
	}
	for _, v := range prog.Views {
		ex.views[v.Name] = ex.env.Define(v.Name, v.Schema)
	}
	for _, spec := range prog.Indexes {
		if r, ok := ex.views[spec.Rel]; ok {
			r.EnsureIndex(spec.Pos)
		} else {
			// Δ-delta (registered per batch) or base table (registered by
			// InitFromBases when a warm start supplies contents).
			ex.deltaIdx[spec.Rel] = append(ex.deltaIdx[spec.Rel], spec.Pos)
		}
	}
	return ex
}

// Program returns the compiled program backing the executor.
func (ex *Executor) Program() *Program { return ex.prog }

// View returns the contents of a materialized view (the query result
// lives under the program's query name).
func (ex *Executor) View(name string) *mring.Relation {
	r := ex.views[name]
	if r == nil {
		panic(fmt.Sprintf("compile: unknown view %q", name))
	}
	return r
}

// Result returns the top-level query result view.
func (ex *Executor) Result() *mring.Relation { return ex.View(ex.prog.QueryName) }

// InitFromBases loads non-empty initial base tables by evaluating every
// view definition from scratch.
func (ex *Executor) InitFromBases(bases map[string]*mring.Relation) {
	env := eval.NewEnv()
	for n, r := range bases {
		env.Bind(n, r)
		for _, pos := range ex.deltaIdx[n] {
			r.EnsureIndex(pos)
		}
	}
	ctx := eval.NewCtx(env)
	ctx.Plans = ex.prog.plans
	for _, v := range ex.prog.Views {
		if warmStart(v) {
			ctx.Apply(ex.views[v.Name], eval.OpSet, v.Def)
		}
	}
}

// TableBatch pairs one base relation with its update batch. A slice of
// them is a multi-table transaction, folded in slice order.
type TableBatch struct {
	Table string
	Batch *mring.Relation
}

// ApplyBatch runs the trigger for base relation rel with the given update
// batch (insertions have positive multiplicities, deletions negative).
func (ex *Executor) ApplyBatch(rel string, batch *mring.Relation) {
	trg := ex.prog.Triggers[rel]
	if trg == nil {
		panic(fmt.Sprintf("compile: no trigger for relation %q", rel))
	}
	ex.applyBatch(trg, rel, batch, nil)
}

// ApplyTx folds one multi-table transaction into all maintained views:
// each table's trigger runs in transaction order, and every change the
// triggers fold into the top-level result view is captured (via the
// evaluation layer's fold sinks) into the returned delta relation — the
// exact per-group result change of this transaction. Applying a
// transaction is equivalent to applying its batches as sequential
// single-table batches; the transaction boundary determines what one
// changefeed delta covers.
func (ex *Executor) ApplyTx(tx []TableBatch) (*mring.Relation, error) {
	sink := mring.NewRelation(ex.Result().Schema())
	if err := ex.ApplyTxCapture(tx, map[string]*mring.Relation{ex.prog.QueryName: sink}); err != nil {
		return nil, err
	}
	return sink, nil
}

// ApplyTxCapture folds one multi-table transaction like ApplyTx, but
// captures the per-group change of every view named in sinks — the
// multi-view serving path, where one shared program maintains several
// top views and each subscriber-backed view needs its own delta. A nil
// or empty sinks map folds without any capture work.
func (ex *Executor) ApplyTxCapture(tx []TableBatch, sinks map[string]*mring.Relation) error {
	for _, tb := range tx {
		if ex.prog.Triggers[tb.Table] == nil {
			return fmt.Errorf("compile: no trigger for relation %q", tb.Table)
		}
	}
	for name := range sinks {
		if ex.views[name] == nil {
			return fmt.Errorf("compile: cannot capture unknown view %q", name)
		}
	}
	for _, tb := range tx {
		ex.applyBatch(ex.prog.Triggers[tb.Table], tb.Table, tb.Batch, sinks)
	}
	return nil
}

func (ex *Executor) applyBatch(trg *Trigger, rel string, batch *mring.Relation, sinks map[string]*mring.Relation) {
	dn := ex.deltas[rel]
	for _, pos := range ex.deltaIdx[dn] {
		batch.EnsureIndex(pos)
	}
	ex.env.Bind(dn, batch)
	ctx := ex.ctx
	ctx.Stats = eval.Stats{}
	for name, sink := range sinks {
		ctx.CaptureFolds(ex.views[name], sink)
	}
	for _, s := range trg.Stmts {
		// FoldStmt materializes the RHS before the target mutates (so
		// self-references observe a consistent pre-statement state) and
		// routes aggregate statements through the hash-native group
		// table; the views' secondary indexes are maintained
		// incrementally by the folds, so no invalidation is needed
		// between statements.
		ctx.FoldStmt(ex.views[s.LHS], s.Op, s.RHS)
	}
	for name := range sinks {
		ctx.CaptureFolds(ex.views[name], nil)
	}
	ex.Stats.Add(ctx.Stats)
}

// ForEachViewAll visits every program view INCLUDING transient ones, in
// program order. Durability snapshots use it: transient views are
// re-derived per transaction, but their retained table capacity shapes
// later layouts, so exact recovery must capture them too.
func (ex *Executor) ForEachViewAll(f func(name string, r *mring.Relation)) {
	for _, v := range ex.prog.Views {
		f(v.Name, ex.views[v.Name])
	}
}

// LookupView returns a view's relation, or nil when the program has no
// such view (the non-panicking form of View, for restore-path validation
// of names read from disk).
func (ex *Executor) LookupView(name string) *mring.Relation {
	return ex.views[name]
}

// MemoryFootprint returns the total number of tuples held across all
// non-transient materialized views (the Sec. 6.1 memory discussion).
func (ex *Executor) MemoryFootprint() int {
	n := 0
	for _, v := range ex.prog.Views {
		if v.Transient {
			continue
		}
		n += ex.views[v.Name].Len()
	}
	return n
}
