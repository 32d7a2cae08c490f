package tpch

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/mring"
)

func TestGeneratorDeterministic(t *testing.T) {
	g1 := NewGenerator(0.1, 7)
	g2 := NewGenerator(0.1, 7)
	for i := 0; i < 100; i++ {
		a := g1.Tuple(Lineitem)
		b := g2.Tuple(Lineitem)
		if !a.Equal(b) {
			t.Fatalf("tuple %d differs: %v vs %v", i, a, b)
		}
	}
	// Different seeds differ.
	g3 := NewGenerator(0.1, 8)
	same := 0
	g1b := NewGenerator(0.1, 7)
	for i := 0; i < 50; i++ {
		if g1b.Tuple(Orders).Equal(g3.Tuple(Orders)) {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestGeneratorArities(t *testing.T) {
	g := NewGenerator(0.05, 1)
	for table, schema := range Schemas {
		tp := g.Tuple(table)
		if len(tp) != len(schema) {
			t.Errorf("%s: tuple arity %d != schema arity %d", table, len(tp), len(schema))
		}
		kinds := Kinds[table]
		if len(kinds) != len(schema) {
			t.Errorf("%s: kinds arity mismatch", table)
		}
		for i, v := range tp {
			if v.Kind() != kinds[i] {
				t.Errorf("%s col %s: kind %v != declared %v", table, schema[i], v.Kind(), kinds[i])
			}
		}
	}
}

func TestForeignKeysInRange(t *testing.T) {
	g := NewGenerator(0.1, 3)
	maxOrder := int64(Cardinality(Orders, 0.1))
	maxPart := int64(Cardinality(Part, 0.1))
	for i := 0; i < 500; i++ {
		tp := g.Tuple(Lineitem)
		if tp[0].AsInt() < 1 || tp[0].AsInt() > maxOrder {
			t.Fatalf("l_orderkey %d out of range [1,%d]", tp[0].AsInt(), maxOrder)
		}
		if tp[1].AsInt() < 1 || tp[1].AsInt() > maxPart {
			t.Fatalf("l_partkey %d out of range", tp[1].AsInt())
		}
	}
}

func TestStreamCoversAllTables(t *testing.T) {
	g := NewGenerator(0.05, 2)
	s := NewStream(g, StreamTables)
	counts := map[string]int{}
	for {
		ev, ok := s.Next()
		if !ok {
			break
		}
		counts[ev.Table]++
	}
	for _, tbl := range StreamTables {
		want := Cardinality(tbl, 0.05)
		if counts[tbl] != want {
			t.Errorf("%s: streamed %d rows, want %d", tbl, counts[tbl], want)
		}
	}
}

func TestStreamBatches(t *testing.T) {
	g := NewGenerator(0.05, 2)
	s := NewStream(g, []string{Lineitem, Orders})
	total := 0
	for {
		bs := s.NextBatches(64)
		if len(bs) == 0 {
			break
		}
		for _, b := range bs {
			total += countRows(b.Rel)
			if !b.Rel.Schema().Equal(Schemas[b.Table]) {
				t.Fatalf("batch schema mismatch for %s", b.Table)
			}
		}
	}
	want := Cardinality(Lineitem, 0.05) + Cardinality(Orders, 0.05)
	if total != want {
		t.Fatalf("batched %d rows, want %d", total, want)
	}
}

func countRows(r *mring.Relation) int {
	n := 0
	r.Foreach(func(_ mring.Tuple, m float64) { n += int(m) })
	return n
}

func TestAllQueriesCompile(t *testing.T) {
	for _, q := range Queries() {
		for _, opts := range []compile.Options{
			{},
			compile.DefaultOptions(),
		} {
			if _, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), opts); err != nil {
				t.Errorf("%s (opts %+v): %v", q.Name, opts, err)
			}
		}
	}
}

// TestQueriesIncrementalMatchesRecompute is the workload-level
// correctness gate: every query, streamed at tiny scale through the
// compiled executor, must match recomputation from the accumulated base
// tables at the end of the stream.
func TestQueriesIncrementalMatchesRecompute(t *testing.T) {
	const sf = 0.02
	for _, q := range Queries() {
		q := q
		t.Run(q.Name, func(t *testing.T) {
			prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			ex := compile.NewExecutor(prog)

			gen := NewGenerator(sf, 11)
			// Preload static dimensions and empty stream tables.
			accum := baseline.Changes{}
			init := map[string]*mring.Relation{}
			for _, tbl := range q.Tables {
				if tbl == Nation || tbl == Region {
					init[tbl] = gen.Static(tbl)
				} else {
					init[tbl] = mring.NewRelation(Schemas[tbl])
				}
				accum.Add(tbl, init[tbl])
			}
			ex.InitFromBases(init)

			stream := NewStream(gen, q.Tables)
			for {
				bs := stream.NextBatches(50)
				if len(bs) == 0 {
					break
				}
				for _, b := range bs {
					ex.ApplyBatch(b.Table, b.Rel)
					accum.Add(b.Table, b.Rel)
				}
			}
			want := mring.NewRelation(q.Def.Schema())
			for _, r := range baseline.Eval(q.Def, baseline.Of(accum)) {
				want.Add(r.Tuple, r.M)
			}
			got := ex.Result()
			if !got.EqualApprox(want, 1e-4) {
				t.Fatalf("%s diverged after stream\n got (%d tuples)\nwant (%d tuples)\nprogram:\n%s",
					q.Name, got.Len(), want.Len(), prog)
			}
		})
	}
}

func TestQueryByName(t *testing.T) {
	if _, err := QueryByName("Q17"); err != nil {
		t.Fatal(err)
	}
	if _, err := QueryByName("Q99"); err == nil {
		t.Fatal("expected error for unknown query")
	}
}

func TestCardinalityScaling(t *testing.T) {
	if Cardinality(Lineitem, 1) != 6000 || Cardinality(Lineitem, 0.5) != 3000 {
		t.Fatal("lineitem scaling wrong")
	}
	if Cardinality(Nation, 10) != 25 {
		t.Fatal("dimension tables must not scale")
	}
	if Cardinality(Supplier, 0.001) != 1 {
		t.Fatal("cardinality must be at least 1")
	}
}
