package bench

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/mring"
	"repro/internal/tpch"
)

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
