package tpcds

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/mring"
)

func TestGeneratorDeterministic(t *testing.T) {
	a, b := NewGenerator(0.1, 3), NewGenerator(0.1, 3)
	for i := 0; i < 50; i++ {
		if !a.Tuple(StoreSales).Equal(b.Tuple(StoreSales)) {
			t.Fatal("generator not deterministic")
		}
	}
}

func TestGeneratorArities(t *testing.T) {
	g := NewGenerator(0.1, 1)
	for table, schema := range Schemas {
		if got := g.Tuple(table); len(got) != len(schema) {
			t.Errorf("%s arity %d != %d", table, len(got), len(schema))
		}
	}
}

func TestFactBatchesCoverStream(t *testing.T) {
	g := NewGenerator(0.1, 2)
	next := g.FactBatches(128)
	total := 0
	for b := next(); b != nil; b = next() {
		b.Foreach(func(_ mring.Tuple, m float64) { total += int(m) })
	}
	if want := Cardinality(StoreSales, 0.1); total != want {
		t.Fatalf("streamed %d, want %d", total, want)
	}
}

func TestAllQueriesCompile(t *testing.T) {
	for _, q := range Queries() {
		if _, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions()); err != nil {
			t.Errorf("%s: %v", q.Name, err)
		}
	}
}

// TestQueriesIncrementalMatchesRecompute: every TPC-DS query streamed
// through the executor must match recomputation at end of stream.
func TestQueriesIncrementalMatchesRecompute(t *testing.T) {
	const sf = 0.05
	for _, q := range Queries() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			ex := compile.NewExecutor(prog)
			gen := NewGenerator(sf, 9)
			accum := baseline.Changes{}
			init := map[string]*mring.Relation{}
			for _, tbl := range q.Tables {
				if tbl == StoreSales {
					init[tbl] = mring.NewRelation(Schemas[tbl])
				} else {
					init[tbl] = gen.Static(tbl)
				}
				accum.Add(tbl, init[tbl])
			}
			ex.InitFromBases(init)
			next := gen.FactBatches(64)
			for b := next(); b != nil; b = next() {
				ex.ApplyBatch(StoreSales, b)
				accum.Add(StoreSales, b)
			}
			want := mring.NewRelation(q.Def.Schema())
			for _, r := range baseline.Eval(q.Def, baseline.Of(accum)) {
				want.Add(r.Tuple, r.M)
			}
			if !ex.Result().EqualApprox(want, 1e-4) {
				t.Fatalf("%s diverged\nprogram:\n%s", q.Name, prog)
			}
		})
	}
}

func TestQueryByName(t *testing.T) {
	if _, err := QueryByName("DS42"); err != nil {
		t.Fatal(err)
	}
	if _, err := QueryByName("nope"); err == nil {
		t.Fatal("expected error")
	}
}
