package eval_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/compile"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
	"repro/internal/tpcds"
	"repro/internal/tpch"
)

// TestPreparedMatchesReference holds the prepared plans to the map-binding
// interpreter they replaced (eval.Reference, reference_test.go) over every
// trigger statement and view definition of the TPC-H and TPC-DS programs
// compiled with the default options, and over every compute statement of
// the TPC-H programs' O3 distributed blocks run on one node. Each side
// keeps its own copy of the database and folds its own results, so index
// builds count on both. Per statement and batch, both sides must produce
// identical group tables or relations — the same rows in the same order
// with the same multiplicity bits — and equal eval.Stats. Every other
// batch runs with a tracer on both sides, which must observe the same
// (relation, hash) sequence.
func TestPreparedMatchesReference(t *testing.T) {
	for _, q := range tpch.Queries() {
		gen := tpch.NewGenerator(0.1, 3)
		init := map[string]*mring.Relation{}
		for _, tbl := range q.Tables {
			if tbl == tpch.Nation || tbl == tpch.Region {
				init[tbl] = gen.Static(tbl)
			}
		}
		stream := tpch.NewStream(gen, q.Tables)
		var batches []tpch.Batch
		for i := 0; i < 6; i++ {
			batches = append(batches, stream.NextBatches(100)...)
		}
		prog := compileQuery(t, q.Name, q.Def, q.BaseSchemas())
		t.Run(q.Name, func(t *testing.T) { compareLocal(t, prog, init, batches) })
		t.Run(q.Name+"/O3", func(t *testing.T) {
			parts := dist.ChoosePartitioning(prog, tpch.PrimaryKeyRanks)
			compareDist(t, prog, dist.CompileProgram(prog, parts, dist.O3), batches)
		})
	}
	for _, q := range tpcds.Queries() {
		gen := tpcds.NewGenerator(0.02, 3)
		init := map[string]*mring.Relation{}
		for _, tbl := range q.Tables {
			if tbl != tpcds.StoreSales {
				init[tbl] = gen.Static(tbl)
			}
		}
		next := gen.FactBatches(64)
		var batches []tpch.Batch
		for b := next(); b != nil && len(batches) < 6; b = next() {
			batches = append(batches, tpch.Batch{Table: tpcds.StoreSales, Rel: b})
		}
		prog := compileQuery(t, q.Name, q.Def, q.BaseSchemas())
		t.Run(q.Name, func(t *testing.T) { compareLocal(t, prog, init, batches) })
	}
}

func compileQuery(t *testing.T, name string, def expr.Expr, schemas map[string]mring.Schema) *compile.Program {
	prog, err := compile.Compile(name, def, schemas, compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// compareLocal runs the program's warm start over init, its triggers over
// the batches, and finally every warm-start view definition again over
// the accumulated base tables.
func compareLocal(t *testing.T, prog *compile.Program, init map[string]*mring.Relation, batches []tpch.Batch) {
	var trees []expr.Expr
	for _, trg := range prog.Triggers {
		for _, s := range trg.Stmts {
			trees = append(trees, s.RHS)
		}
	}
	var warm []*compile.ViewDef
	for _, v := range prog.Views {
		if !v.Transient && !expr.HasDelta(v.Def) {
			warm = append(warm, v)
			trees = append(trees, v.Def)
		}
	}
	h := newHarness(t, trees, func(env *eval.Env) {
		for _, v := range prog.Views {
			env.Define(v.Name, v.Schema)
		}
		for n, schema := range prog.Bases {
			r := env.Define(n, schema)
			if init[n] != nil {
				r.Merge(init[n])
			}
		}
	})
	for _, v := range warm {
		h.step("warm start "+v.Name, v.Def, v.Name, eval.OpSet)
	}
	for bi, b := range batches {
		h.batch(bi, b)
		for _, st := range prog.Triggers[b.Table].Stmts {
			h.step(fmt.Sprintf("batch %d trigger %s stmt %s", bi, b.Table, st.LHS), st.RHS, st.LHS, st.Op)
		}
		for _, s := range h.sides {
			s.env.MustRel(b.Table).Merge(b.Rel)
		}
	}
	h.checkTraces()
	for _, v := range warm {
		h.step("final "+v.Name, v.Def, "", 0)
	}
}

// compareDist runs the distributed programs' blocks on one node: a
// transformer folds a copy of its source into its target, and every
// compute statement is compared.
func compareDist(t *testing.T, prog *compile.Program, dps map[string]*dist.DistProgram, batches []tpch.Batch) {
	var trees []expr.Expr
	for _, dp := range dps {
		for _, b := range dp.Blocks {
			for _, s := range b.Stmts {
				if !s.IsXform() {
					trees = append(trees, s.RHS)
				}
			}
		}
	}
	h := newHarness(t, trees, func(env *eval.Env) {
		for n, schema := range dist.ViewSchemas(prog) {
			env.Define(n, schema)
		}
	})
	for bi, b := range batches {
		h.batch(bi, b)
		for _, blk := range dps[b.Table].Blocks {
			for _, st := range blk.Stmts {
				if x, ok := st.RHS.(*dist.Xform); ok {
					src := eval.RelEnvName(x.Body.(*expr.Rel))
					for _, s := range h.sides {
						s.ensure(st.LHS, x.Schema())
						s.fold(st.LHS, st.Op, s.ensure(src, x.Schema()).Clone())
					}
					continue
				}
				h.step(fmt.Sprintf("batch %d %v", bi, st), st.RHS, st.LHS, st.Op)
			}
		}
	}
	h.checkTraces()
}

// side is one evaluator with its own copy of the database.
type side struct {
	env    *eval.Env
	plans  eval.Plans
	stats  *eval.Stats
	tracer func(func(string, uint64))
	groups func(*expr.Agg) *mring.GroupTable
	rel    func(expr.Expr) *mring.Relation
}

// ensure returns relation name, defining it empty when missing.
func (s side) ensure(name string, schema mring.Schema) *mring.Relation {
	if r := s.env.Rel(name); r != nil {
		return r
	}
	return s.env.Define(name, schema)
}

func (s side) fold(target string, op eval.AssignOp, r *mring.Relation) {
	dst := s.env.MustRel(target)
	if op == eval.OpSet {
		dst.Clear()
	}
	dst.Merge(r)
}

// harness runs the prepared side and the reference side in lockstep.
type harness struct {
	t      *testing.T
	sides  [2]side
	traces [2]traceLog
}

func newHarness(t *testing.T, trees []expr.Expr, setup func(*eval.Env)) *harness {
	plans, err := eval.Prepare(trees...)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{t: t}
	for i := range h.sides {
		env := eval.NewEnv()
		setup(env)
		if i == 0 {
			ctx := eval.NewCtx(env)
			ctx.Plans = plans
			h.sides[i] = side{env: env, plans: plans, stats: &ctx.Stats,
				tracer: func(f func(string, uint64)) { ctx.Tracer = f },
				groups: ctx.MaterializeGroups, rel: ctx.Materialize}
		} else {
			rc := eval.NewReference(env)
			h.sides[i] = side{env: env, plans: plans, stats: &rc.Stats,
				tracer: func(f func(string, uint64)) { rc.Tracer = f },
				groups: rc.MaterializeGroups, rel: rc.Materialize}
		}
	}
	return h
}

// batch binds batch bi as its table's Δ relation on both sides, with the
// tracers on for odd batches.
func (h *harness) batch(bi int, b tpch.Batch) {
	for i, s := range h.sides {
		s.env.Bind(eval.DeltaName(b.Table), b.Rel.Clone())
		if bi%2 == 1 {
			s.tracer(h.traces[i].add)
		} else {
			s.tracer(nil)
		}
	}
}

func (h *harness) checkTraces() {
	for _, s := range h.sides {
		s.tracer(nil)
	}
	if h.traces[0] != h.traces[1] {
		h.t.Fatalf("tracers saw %+v prepared, %+v reference", h.traces[0], h.traces[1])
	}
	if h.traces[0].n == 0 {
		h.t.Fatal("no traced relation touch")
	}
}

// step evaluates rhs on both sides, compares, and folds each side's result
// into its own target (none when target is empty). Relations rhs reads
// that do not exist yet are defined empty, as a cluster node creates its
// fragments on first use.
func (h *harness) step(label string, rhs expr.Expr, target string, op eval.AssignOp) {
	var outs [2][]row
	var stats [2]eval.Stats
	for i, s := range h.sides {
		for _, a := range s.plans[rhs].Accesses() {
			s.ensure(a.Env, a.Rel.Cols)
		}
		if target != "" {
			s.ensure(target, rhs.Schema())
		}
		*s.stats = eval.Stats{}
		var r *mring.Relation
		if a, ok := rhs.(*expr.Agg); ok {
			gt := s.groups(a)
			gt.Foreach(func(k mring.Tuple, m float64) { outs[i] = append(outs[i], row{k.Clone(), m}) })
			r = gt.ToRelation()
		} else {
			r = s.rel(rhs)
			r.Foreach(func(k mring.Tuple, m float64) { outs[i] = append(outs[i], row{k.Clone(), m}) })
		}
		stats[i] = *s.stats
		if target != "" {
			s.fold(target, op, r)
		}
	}
	if stats[0] != stats[1] {
		h.t.Fatalf("%s: prepared stats %+v, reference %+v\n%v", label, stats[0], stats[1], rhs)
	}
	if len(outs[0]) != len(outs[1]) {
		h.t.Fatalf("%s: prepared %d rows, reference %d\n%v", label, len(outs[0]), len(outs[1]), rhs)
	}
	for j := range outs[0] {
		p, r := outs[0][j], outs[1][j]
		if !p.t.KeyEqual(r.t) || math.Float64bits(p.m) != math.Float64bits(r.m) {
			h.t.Fatalf("%s: row %d is %v=%v prepared, %v=%v reference\n%v", label, j, p.t, p.m, r.t, r.m, rhs)
		}
	}
}

type row struct {
	t mring.Tuple
	m float64
}

// traceLog folds a tracer's (relation, hash) sequence into a count and an
// order-sensitive digest.
type traceLog struct {
	n   int
	sum uint64
}

func (l *traceLog) add(rel string, h uint64) {
	l.n++
	for i := 0; i < len(rel); i++ {
		l.sum = l.sum*1099511628211 ^ uint64(rel[i])
	}
	l.sum = l.sum*1099511628211 ^ h
}
