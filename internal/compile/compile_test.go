package compile

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
	"repro/internal/tpch"
)

func tup(vs ...int) mring.Tuple {
	t := make(mring.Tuple, len(vs))
	for i, v := range vs {
		t[i] = mring.Int(int64(v))
	}
	return t
}

// triJoinQuery is Example 2.1/2.2: Sum_[B](R(A,B) ⋈ S(B,C) ⋈ T(C,D)).
func triJoinQuery() (expr.Expr, map[string]mring.Schema) {
	q := expr.Sum([]string{"B"}, expr.Join(
		expr.Base("R", "A", "B"), expr.Base("S", "B", "C"), expr.Base("T", "C", "D")))
	bases := map[string]mring.Schema{
		"R": {"A", "B"}, "S": {"B", "C"}, "T": {"C", "D"},
	}
	return q, bases
}

func TestCompileExample22Structure(t *testing.T) {
	q, bases := triJoinQuery()
	prog, err := Compile("Q", q, bases, Options{DomainExtraction: true})
	if err != nil {
		t.Fatal(err)
	}
	// The paper materializes: M_Q, M_RS(B,C), M_ST(B), M_R(B), M_S(B,C),
	// M_T(C) — six views at three levels. Check count and key schemas.
	if len(prog.Views) != 6 {
		t.Fatalf("got %d views, want 6:\n%s", len(prog.Views), prog)
	}
	schemas := map[string]int{}
	for _, v := range prog.Views {
		schemas[strings.Join(v.Schema, ",")]++
	}
	// One single-column B view for M_ST and one for M_R, one B,C view for
	// M_RS and one for M_S, one C view for M_T, plus the top B view.
	if schemas["B"] != 3 || schemas["B,C"] != 2 || schemas["C"] != 1 {
		t.Fatalf("unexpected view schemas %v:\n%s", schemas, prog)
	}
	// The R-trigger must have exactly 3 statements (M_Q, M_RS, M_R) in
	// decreasing complexity.
	trg := prog.Triggers["R"]
	if len(trg.Stmts) != 3 {
		t.Fatalf("R trigger has %d stmts, want 3:\n%s", len(trg.Stmts), trg)
	}
	if trg.Stmts[0].LHS != "Q" {
		t.Fatalf("top view must be refreshed first:\n%s", trg)
	}
	degs := make([]int, len(trg.Stmts))
	for i, s := range trg.Stmts {
		degs[i] = prog.View(s.LHS).Degree()
	}
	for i := 1; i < len(degs); i++ {
		if degs[i] > degs[i-1] {
			t.Fatalf("statements not in decreasing complexity %v:\n%s", degs, trg)
		}
	}
	// No statement may reference a base relation: everything is views+deltas.
	for _, trg := range prog.Triggers {
		for _, s := range trg.Stmts {
			if len(expr.Relations(s.RHS, expr.RBase)) > 0 {
				t.Fatalf("statement references base relation: %s", s)
			}
		}
	}
}

// checkAgainstRecompute compiles q's recursive program and checks it
// with checkStream.
func checkAgainstRecompute(t *testing.T, name string, q expr.Expr, bases map[string]mring.Schema,
	opts Options, seed int64, nBatches, batchSize, domain int) {
	t.Helper()
	prog, err := Compile(name, q, bases, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkStream(t, prog, seed, nBatches, batchSize, domain)
}

// checkStream streams nBatches random batches, deletions included, into
// an executor of prog and holds its result to the oracle over every
// change so far after every batch.
func checkStream(t *testing.T, prog *Program, seed int64, nBatches, batchSize, domain int) {
	t.Helper()
	q, bases := prog.Query, prog.Bases
	ex := NewExecutor(prog)
	rng := rand.New(rand.NewSource(seed))

	accum := map[string]*mring.Relation{} // decides which deletions are valid
	changes := baseline.Changes{}
	var relNames []string
	for n, s := range bases {
		accum[n] = mring.NewRelation(s)
		changes[n] = nil
		relNames = append(relNames, n)
	}
	// Deterministic relation order for reproducibility.
	for i := 1; i < len(relNames); i++ {
		for j := i; j > 0 && relNames[j] < relNames[j-1]; j-- {
			relNames[j], relNames[j-1] = relNames[j-1], relNames[j]
		}
	}
	for b := 0; b < nBatches; b++ {
		rel := relNames[rng.Intn(len(relNames))]
		batch := mring.NewRelation(bases[rel])
		for i := 0; i < batchSize; i++ {
			tp := make(mring.Tuple, len(bases[rel]))
			for j := range tp {
				tp[j] = mring.Int(int64(rng.Intn(domain)))
			}
			m := float64(1 + rng.Intn(2))
			if rng.Intn(5) == 0 && accum[rel].Get(tp) > 0 {
				m = -1 // deletion of an existing tuple
			}
			batch.Add(tp, m)
			changes.Row(rel, tp, m)
		}
		ex.ApplyBatch(rel, batch)
		accum[rel].Merge(batch)

		want := mring.NewRelation(q.Schema())
		for _, r := range baseline.Eval(q, baseline.Of(changes)) {
			want.Add(r.Tuple, r.M)
		}
		if !ex.Result().EqualApprox(want, 1e-6) {
			t.Fatalf("%s (opts=%+v): batch %d on %s diverged\n got: %v\nwant: %v\nprogram:\n%s",
				prog.QueryName, prog.Opts, b, rel, ex.Result(), want, prog)
		}
	}
}

func allOptionCombos() []Options {
	return []Options{
		{},
		{DomainExtraction: true},
		{DomainExtraction: true, PreAggregate: true},
		{DomainExtraction: true, PreAggregate: true, ReEvalUncorrelated: true},
		{PreAggregate: true},
	}
}

func TestExecutorTriJoin(t *testing.T) {
	q, bases := triJoinQuery()
	for i, opts := range allOptionCombos() {
		checkAgainstRecompute(t, "Q", q, bases, opts, int64(100+i), 12, 6, 4)
	}
}

// TestExecutorTriJoinSingleTuple runs the tuple-at-a-time mode of Sec.
// 3.3, which is a stream of one-tuple batches.
func TestExecutorTriJoinSingleTuple(t *testing.T) {
	q, bases := triJoinQuery()
	checkAgainstRecompute(t, "Q", q, bases, DefaultOptions(), 7, 32, 1, 4)
}

func TestExecutorFilterAndValue(t *testing.T) {
	// SELECT B, SUM(A) FROM R WHERE A > 1 GROUP BY B
	q := expr.Sum([]string{"B"}, expr.Join(
		expr.Base("R", "A", "B"),
		expr.CmpE(expr.CGt, expr.V("A"), expr.LitI(1)),
		expr.ValE(expr.V("A"))))
	bases := map[string]mring.Schema{"R": {"A", "B"}}
	for i, opts := range allOptionCombos() {
		checkAgainstRecompute(t, "QF", q, bases, opts, int64(200+i), 10, 8, 5)
	}
}

func TestExecutorTwoWayJoin(t *testing.T) {
	// COUNT grouped: Sum_[C](R(A,B) ⋈ S(B,C))
	q := expr.Sum([]string{"C"}, expr.Join(expr.Base("R", "A", "B"), expr.Base("S", "B", "C")))
	bases := map[string]mring.Schema{"R": {"A", "B"}, "S": {"B", "C"}}
	for i, opts := range allOptionCombos() {
		checkAgainstRecompute(t, "Q2", q, bases, opts, int64(300+i), 12, 6, 4)
	}
}

func TestExecutorNestedCorrelated(t *testing.T) {
	// Example 3.1 / Q17-shape: COUNT(*) FROM R WHERE R.A < (SELECT COUNT(*)
	// FROM S WHERE R.B = S.B)
	inner := expr.Sum(nil, expr.Join(expr.Base("S", "B2", "C"), expr.Eq(expr.V("B"), expr.V("B2"))))
	q := expr.Sum(nil, expr.Join(
		expr.Base("R", "A", "B"),
		expr.LiftQ("X", inner),
		expr.CmpE(expr.CLt, expr.V("A"), expr.V("X"))))
	bases := map[string]mring.Schema{"R": {"A", "B"}, "S": {"B2", "C"}}
	for i, opts := range allOptionCombos() {
		checkAgainstRecompute(t, "QN", q, bases, opts, int64(400+i), 10, 5, 4)
	}
	checkAgainstRecompute(t, "QN", q, bases, DefaultOptions(), 401, 18, 1, 4)
}

func TestExecutorDistinct(t *testing.T) {
	// Example 3.2: SELECT DISTINCT A FROM R WHERE B > 1.
	q := expr.ExistsE(expr.Sum([]string{"A"}, expr.Join(
		expr.Base("R", "A", "B"),
		expr.CmpE(expr.CGt, expr.V("B"), expr.LitI(1)))))
	bases := map[string]mring.Schema{"R": {"A", "B"}}
	for i, opts := range allOptionCombos() {
		checkAgainstRecompute(t, "QD", q, bases, opts, int64(500+i), 10, 5, 4)
	}
}

func TestExecutorUncorrelatedNested(t *testing.T) {
	// Example 3.3: COUNT(*) FROM R WHERE R.A < (SELECT COUNT(*) FROM S)
	// AND R.B = 1 — uncorrelated nesting, re-evaluation strategy.
	inner := expr.Sum(nil, expr.Base("S", "E"))
	q := expr.Sum(nil, expr.Join(
		expr.Base("R", "A", "B"),
		expr.Eq(expr.V("B"), expr.LitI(1)),
		expr.LiftQ("X", inner),
		expr.CmpE(expr.CLt, expr.V("A"), expr.V("X"))))
	bases := map[string]mring.Schema{"R": {"A", "B"}, "S": {"E"}}
	for i, opts := range allOptionCombos() {
		checkAgainstRecompute(t, "QU", q, bases, opts, int64(600+i), 10, 4, 4)
	}
}

func TestExecutorUnionQuery(t *testing.T) {
	q := expr.Sum([]string{"A"}, expr.Add(
		expr.Base("R", "A", "B"),
		expr.Base("S", "A", "C")))
	bases := map[string]mring.Schema{"R": {"A", "B"}, "S": {"A", "C"}}
	for i, opts := range allOptionCombos() {
		checkAgainstRecompute(t, "QUN", q, bases, opts, int64(700+i), 12, 5, 4)
	}
}

func TestExecutorSelfJoin(t *testing.T) {
	q := expr.Sum([]string{"B"}, expr.Join(expr.Base("R", "A", "B"), expr.Base("R", "B", "C")))
	bases := map[string]mring.Schema{"R": {"A", "B"}}
	// Self-join schema note: both references use R's physical schema but
	// different variable names; declare via a single base schema of arity 2.
	for i, opts := range allOptionCombos() {
		checkAgainstRecompute(t, "QS", q, bases, opts, int64(800+i), 10, 4, 3)
	}
}

func TestPreAggregateStatementInserted(t *testing.T) {
	// A filter on the batch relation shared by all statements must move
	// into the pre-aggregation.
	q := expr.Sum([]string{"B"}, expr.Join(
		expr.Base("R", "A", "B"),
		expr.CmpE(expr.CGt, expr.V("A"), expr.LitI(2))))
	prog, err := Compile("QP", q, map[string]mring.Schema{"R": {"A", "B"}},
		Options{DomainExtraction: true, PreAggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	trg := prog.Triggers["R"]
	if len(trg.Stmts) < 2 {
		t.Fatalf("expected preagg statement:\n%s", trg)
	}
	first := trg.Stmts[0]
	if first.Op != eval.OpSet || !strings.HasSuffix(first.LHS, "_R_DELTA") {
		t.Fatalf("first statement is not a pre-aggregation: %s", first)
	}
	v := prog.View(first.LHS)
	if v == nil || !v.Transient {
		t.Fatalf("preagg view must be transient:\n%s", prog)
	}
	// The statement body must carry the static condition.
	if !strings.Contains(first.RHS.String(), "(A > 2)") {
		t.Fatalf("static condition not absorbed: %s", first.RHS)
	}
}

func TestInitFromBases(t *testing.T) {
	q, bases := triJoinQuery()
	prog, err := Compile("Q", q, bases, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Build initial contents, init executor, then stream more updates.
	init := map[string]*mring.Relation{}
	changes := baseline.Changes{}
	rng := rand.New(rand.NewSource(42))
	for n, s := range bases {
		r := mring.NewRelation(s)
		for i := 0; i < 10; i++ {
			tp := tup(rng.Intn(3), rng.Intn(3))
			r.Add(tp, 1)
			changes.Row(n, tp, 1)
		}
		init[n] = r
	}
	ex := NewExecutor(prog)
	ex.InitFromBases(init)

	batch := mring.NewRelation(bases["R"])
	batch.Add(tup(1, 2), 1)
	ex.ApplyBatch("R", batch)
	changes.Add("R", batch)

	want := mring.NewRelation(q.Schema())
	for _, r := range baseline.Eval(q, baseline.Of(changes)) {
		want.Add(r.Tuple, r.M)
	}
	if !ex.Result().EqualApprox(want, 1e-6) {
		t.Fatalf("warm start diverged:\n got %v\nwant %v", ex.Result(), want)
	}
}

func TestCompileUndeclaredBase(t *testing.T) {
	q := expr.Sum(nil, expr.Base("R", "A"))
	if _, err := Compile("Q", q, map[string]mring.Schema{}, Options{}); err == nil {
		t.Fatal("expected error for undeclared base relation")
	}
}

func TestMemoryFootprint(t *testing.T) {
	q, bases := triJoinQuery()
	prog, _ := Compile("Q", q, bases, DefaultOptions())
	ex := NewExecutor(prog)
	if ex.MemoryFootprint() != 0 {
		t.Fatal("fresh executor should be empty")
	}
	batch := mring.NewRelation(bases["R"])
	batch.Add(tup(1, 2), 1)
	ex.ApplyBatch("R", batch)
	if ex.MemoryFootprint() == 0 {
		t.Fatal("footprint should grow after updates")
	}
}

func TestPreAggregatePerAlias(t *testing.T) {
	// Q17 shape: the nested alias uses only its correlation key and the
	// aggregated quantity — the price column is projected away by that
	// alias's pre-aggregation (the paper's Q17/Q20-class win).
	inner := expr.Sum(nil, expr.Join(
		expr.Base("L", "pk2", "qty2", "price2"),
		expr.Eq(expr.V("pk2"), expr.V("pk")),
		expr.ValE(expr.V("qty2"))))
	q := expr.Sum(nil, expr.Join(
		expr.Base("L", "pk", "qty", "price"),
		expr.LiftQ("avgq", inner),
		expr.CmpE(expr.CLt, expr.V("qty"), expr.V("avgq")),
		expr.ValE(expr.V("price"))))
	bases := map[string]mring.Schema{"L": {"pk", "qty", "price"}}
	prog, err := Compile("Q17S", q, bases,
		Options{DomainExtraction: true, PreAggregate: true})
	if err != nil {
		t.Fatal(err)
	}
	trg := prog.Triggers["L"]
	preaggs := 0
	narrow := false
	for _, s := range trg.Stmts {
		if strings.Contains(s.LHS, "_L_DELTA") {
			preaggs++
			if len(prog.View(s.LHS).Schema) < 3 {
				narrow = true
			}
		}
	}
	if preaggs == 0 {
		t.Fatalf("expected per-alias pre-aggregations:\n%s", trg)
	}
	if !narrow {
		t.Fatalf("nested alias pre-aggregation should project columns away:\n%s", prog)
	}
	// The nested alias must be fully substituted (the outer alias uses
	// all columns and legitimately keeps the raw delta).
	for _, s := range trg.Stmts {
		if strings.Contains(s.LHS, "_L_DELTA") {
			continue
		}
		expr.Walk(s.RHS, func(n expr.Expr) bool {
			if r, ok := n.(*expr.Rel); ok && r.Kind == expr.RDelta && r.Cols.Contains("pk2") {
				t.Fatalf("nested alias delta survived substitution: %s", s)
			}
			return true
		})
	}
	// And it must still be correct.
	checkAgainstRecompute(t, "Q17S", q, bases,
		Options{DomainExtraction: true, PreAggregate: true}, 31, 10, 5, 4)
}

// tpchBases returns q's base tables before its stream: the static
// dimensions filled, every other table empty.
func tpchBases(gen *tpch.Generator, q tpch.Query) map[string]*mring.Relation {
	out := map[string]*mring.Relation{}
	for _, tbl := range q.Tables {
		if tbl == tpch.Nation || tbl == tpch.Region {
			out[tbl] = gen.Static(tbl)
		} else {
			out[tbl] = mring.NewRelation(tpch.Schemas[tbl])
		}
	}
	return out
}

// TestKeptViewsMatchOracle holds every view the local executor keeps for
// a TPC-H program — not only its result, which the stream leaves empty
// for most queries — to the oracle: after an SF 0.1 stream of six rounds
// of 100-event batches, each non-transient, delta-free view must equal
// the oracle's evaluation of its definition over every change to the
// base tables.
func TestKeptViewsMatchOracle(t *testing.T) {
	views, nonEmpty := 0, 0
	for _, q := range tpch.Queries() {
		prog, err := Compile(q.Name, q.Def, q.BaseSchemas(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		gen := tpch.NewGenerator(0.1, 3)
		init := tpchBases(gen, q)
		accum := baseline.ChangesOf(init)
		ex := NewExecutor(prog)
		ex.InitFromBases(init)
		stream := tpch.NewStream(gen, q.Tables)
		for i := 0; i < 6; i++ {
			for _, b := range stream.NextBatches(100) {
				ex.ApplyBatch(b.Table, b.Rel)
				accum.Add(b.Table, b.Rel)
			}
		}
		db := baseline.Of(accum)
		for _, v := range prog.Views {
			if v.Transient || expr.HasDelta(v.Def) {
				continue
			}
			got := ex.View(v.Name)
			if d := baseline.Diff(got, baseline.Eval(v.Def, db)); d != "" {
				t.Fatalf("%s view %s diverges from the oracle: %s\n%v", q.Name, v.Name, d, v.Def)
			}
			views++
			if got.Len() > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty < views/2 {
		t.Fatalf("only %d of %d kept views are non-empty: the stream tests too little", nonEmpty, views)
	}
	t.Logf("%d kept views equal the oracle, %d of them non-empty", views, nonEmpty)
}
