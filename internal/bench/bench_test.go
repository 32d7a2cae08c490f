package bench

import (
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/mring"
	"repro/internal/tpch"
)

// tiny configurations keep the harness smoke tests fast.
func tinyLocal() LocalConfig {
	return LocalConfig{SF: 0.05, Seed: 1, Queries: []string{"Q1", "Q3", "Q6", "Q17", "DS42"}}
}

func tinyDist() DistConfig {
	return DistConfig{
		Seed:            1,
		WeakWorkers:     []int{2, 4},
		PerWorkerBatch:  50,
		StrongWorkers:   []int{2, 4},
		StrongBatches:   []int{200, 400},
		BatchesPerPoint: 1,
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "T",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Notes:   "n",
	}
	out := tab.Render()
	for _, want := range []string{"== T ==", "a", "bb", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFig7Smoke(t *testing.T) {
	tab, err := Fig7(tinyLocal())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 { // Q1, Q3, Q6, Q17
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	if len(tab.Columns) != 1+len(BatchSizes) {
		t.Fatalf("columns = %d", len(tab.Columns))
	}
}

func TestFig8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warm-up is expensive")
	}
	tab, err := Fig8(LocalConfig{SF: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 { // three engines for Q17
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
}

// TestTable1Smoke runs the full engine grid on the two scan queries
// only: re-evaluating Q3 and Q17 over the warmed database takes a minute.
func TestTable1Smoke(t *testing.T) {
	tab, err := Table1(LocalConfig{SF: 0.05, Seed: 1, Queries: []string{"Q1", "Q6"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2*3 { // Q1, Q6 x three engines
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
}

func TestFig12Smoke(t *testing.T) {
	tab, err := Fig12(tinyLocal())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 { // DS42
		t.Fatalf("rows = %d, want 1", len(tab.Rows))
	}
}

func TestTable2Smoke(t *testing.T) {
	tab, err := Table2(LocalConfig{SF: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(BatchSizes) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestTable3Smoke(t *testing.T) {
	tab, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 15 {
		t.Fatalf("expected a row per TPC-H query, got %d", len(tab.Rows))
	}
	// Q6 must be the simplest: 1 job, 1 stage.
	for _, r := range tab.Rows {
		if r[0] == "Q6" && (r[1] != "1" || r[2] != "1") {
			t.Fatalf("Q6 should be 1 job / 1 stage: %v", r)
		}
	}
}

func TestFig5Smoke(t *testing.T) {
	tab, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 triggers", len(tab.Rows))
	}
	// Fusion must not increase block counts.
	for _, r := range tab.Rows {
		if r[3] > r[1] && len(r[3]) >= len(r[1]) {
			t.Fatalf("local blocks grew after fusion: %v", r)
		}
	}
}

func TestFig9Smoke(t *testing.T) {
	tab, err := Fig9(tinyDist())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(WeakQueries)*2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestFig10Smoke(t *testing.T) {
	cfg := tinyDist()
	tab, err := Fig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(WeakQueries)*len(cfg.StrongWorkers) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if len(tab.Columns) != 3+len(cfg.StrongBatches) { // query, workers, batches, reeval
		t.Fatalf("columns = %d", len(tab.Columns))
	}
}

func TestFig13Smoke(t *testing.T) {
	tab, err := Fig13(tinyDist())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestAblationsSmoke(t *testing.T) {
	if _, err := AblationPreAgg(tinyLocal()); err != nil {
		t.Fatal(err)
	}
	if _, err := AblationColumnarShuffle(tinyDist()); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAggGroupUpdate measures the grouped-aggregate maintenance hot
// path end to end: TPC-H Q1 (pricing summary, the Q1-style group-by) fed
// pre-generated lineitem batches through the compiled executor, so every
// iteration exercises the batch pre-aggregation and view-update group
// tables.
func BenchmarkAggGroupUpdate(b *testing.B) {
	q, err := tpch.QueryByName("Q1")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	gen := tpch.NewGenerator(0.5, 1)
	stream := tpch.NewStream(gen, q.Tables)
	var batches []*mring.Relation
	for {
		bs := stream.NextBatches(1000)
		if len(bs) == 0 {
			break
		}
		for _, bb := range bs {
			batches = append(batches, bb.Rel)
		}
	}
	ex := compile.NewExecutor(prog)
	init := map[string]*mring.Relation{}
	for _, tbl := range q.Tables {
		init[tbl] = mring.NewRelation(tpch.Schemas[tbl])
	}
	ex.InitFromBases(init)
	tuples := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := batches[i%len(batches)]
		tuples += batch.Len()
		ex.ApplyBatch(tpch.Lineitem, batch)
	}
	b.ReportMetric(float64(tuples)/b.Elapsed().Seconds(), "tuples/sec")
}
