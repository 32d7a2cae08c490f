package compile

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
	"repro/internal/tpch"
)

// strategies are the two comparison constructors, by name.
var strategies = []struct {
	name string
	mk   func(string, expr.Expr, map[string]mring.Schema) (*Program, error)
}{{"reeval", ReEvalProgram}, {"first-order", FirstOrderProgram}}

// build compiles strategy i, failing the test on an error.
func build(t *testing.T, i int, name string, q expr.Expr, bases map[string]mring.Schema) *Program {
	t.Helper()
	prog, err := strategies[i].mk(name, q, bases)
	if err != nil {
		t.Fatalf("%s: %v", strategies[i].name, err)
	}
	return prog
}

func flatJoin() (expr.Expr, map[string]mring.Schema) {
	q := expr.Sum([]string{"B"}, expr.Join(expr.Base("R", "A", "B"), expr.Base("S", "B", "C")))
	return q, map[string]mring.Schema{"R": {"A", "B"}, "S": {"B", "C"}}
}

// TestStrategiesMatchOracle holds both strategies to the oracle after
// every batch of a random stream with deletions, on a flat join, a
// nested lift compared with its outer row, and a self-join.
func TestStrategiesMatchOracle(t *testing.T) {
	fq, fb := flatJoin()
	inner := expr.Sum(nil, expr.Join(expr.Base("S", "B2", "C"), expr.Eq(expr.V("B"), expr.V("B2"))))
	shapes := []struct {
		name  string
		q     expr.Expr
		bases map[string]mring.Schema
	}{
		{"flat-join", fq, fb},
		{"nested-lift", expr.Sum(nil, expr.Join(expr.Base("R", "A", "B"), expr.LiftQ("X", inner),
			expr.CmpE(expr.CLt, expr.V("A"), expr.V("X")))),
			map[string]mring.Schema{"R": {"A", "B"}, "S": {"B2", "C"}}},
		{"self-join", expr.Sum([]string{"B"}, expr.Join(expr.Base("R", "A", "B"), expr.Base("R", "B", "C"))),
			map[string]mring.Schema{"R": {"A", "B"}}},
	}
	for i, sh := range shapes {
		for j, s := range strategies {
			t.Run(sh.name+"/"+s.name, func(t *testing.T) {
				checkStream(t, build(t, j, "Q", sh.q, sh.bases), int64(900+i), 30, 6, 4)
			})
		}
	}
}

// TestStrategiesMatchOracleTPCH holds both strategies to the oracle on
// every TPC-H query after each round of a short stream.
func TestStrategiesMatchOracleTPCH(t *testing.T) {
	nonEmpty := 0
	for _, q := range tpch.Queries() {
		gen := tpch.NewGenerator(0.02, 5)
		init := tpchBases(gen, q)
		accum := baseline.ChangesOf(init)
		var exs []*Executor
		for i := range strategies {
			ex := NewExecutor(build(t, i, q.Name, q.Def, q.BaseSchemas()))
			ex.InitFromBases(init)
			exs = append(exs, ex)
		}
		stream := tpch.NewStream(gen, q.Tables)
		for round := 0; round < 10; round++ {
			for _, b := range stream.NextBatches(100) {
				for _, ex := range exs {
					ex.ApplyBatch(b.Table, b.Rel)
				}
				accum.Add(b.Table, b.Rel)
			}
			want := baseline.Eval(q.Def, baseline.Of(accum))
			for i, ex := range exs {
				if d := baseline.Diff(ex.Result(), want); d != "" {
					t.Fatalf("%s %s round %d diverges from the oracle: %s", q.Name, strategies[i].name, round, d)
				}
			}
		}
		if exs[0].Result().Len() > 0 {
			nonEmpty++
		}
	}
	if n := len(tpch.Queries()); nonEmpty < n/3 {
		t.Fatalf("only %d of %d results are non-empty: the stream tests too little", nonEmpty, n)
	}
	t.Logf("%d of %d results are non-empty", nonEmpty, len(tpch.Queries()))
}

// TestStrategiesWarmStart checks that a warm start through InitFromBases
// fills the result and the base-table copies the next batch updates.
func TestStrategiesWarmStart(t *testing.T) {
	q, bases := flatJoin()
	rng := rand.New(rand.NewSource(3))
	init := map[string]*mring.Relation{}
	before := baseline.Changes{}
	for n, s := range bases {
		init[n] = mring.NewRelation(s)
		for i := 0; i < 10; i++ {
			tp := tup(rng.Intn(3), rng.Intn(3))
			init[n].Add(tp, 1)
			before.Row(n, tp, 1)
		}
	}
	batch := mring.NewRelation(bases["S"])
	batch.Add(tup(1, 2), 1)
	batch.Add(tup(0, 0), -1)
	after := baseline.ChangesOf(before)
	after.Add("S", batch)
	for i, s := range strategies {
		ex := NewExecutor(build(t, i, "Q", q, bases))
		ex.InitFromBases(init)
		if d := baseline.Diff(ex.Result(), baseline.Eval(q, baseline.Of(before))); d != "" {
			t.Fatalf("%s: warm start diverges from the oracle: %s", s.name, d)
		}
		ex.ApplyBatch("S", batch)
		if d := baseline.Diff(ex.Result(), baseline.Eval(q, baseline.Of(after))); d != "" {
			t.Fatalf("%s: the batch after the warm start diverges from the oracle: %s", s.name, d)
		}
	}
}

// TestFirstOrderScansLessThanReEval is the point of IVM: for small
// batches over grown tables, the first-order delta visits far fewer
// tuples than recomputation.
func TestFirstOrderScansLessThanReEval(t *testing.T) {
	q, bases := flatJoin()
	var scans []int64
	for i := range strategies {
		ex := NewExecutor(build(t, i, "Q", q, bases))
		rng := rand.New(rand.NewSource(1))
		grow := func(rel string, n int) *mring.Relation {
			b := mring.NewRelation(bases[rel])
			for i := 0; i < n; i++ {
				b.Add(tup(rng.Intn(50), rng.Intn(50)), 1)
			}
			return b
		}
		ex.ApplyBatch("R", grow("R", 2000))
		ex.ApplyBatch("S", grow("S", 2000))
		ex.Stats = eval.Stats{}
		for i := 0; i < 10; i++ {
			ex.ApplyBatch("R", grow("R", 2))
		}
		scans = append(scans, ex.Stats.Scans)
	}
	if scans[1] >= scans[0] {
		t.Fatalf("first-order scans (%d) should be below re-evaluation scans (%d)", scans[1], scans[0])
	}
}
