package dist_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
)

// Q = Sum_[B](Exists(Sum_[B](R(A,B)))): distinct-B count style query.
// Partition the maintained R-view on A; the inner Agg drops A, so
// per-worker Exists over partial groups must not run distributed.
func TestAggDropsAnchorSafety(t *testing.T) {
	q := expr.Sum([]string{"B"}, expr.ExistsE(expr.Sum([]string{"B"}, expr.Base("R", "A", "B"))))
	bases := map[string]mring.Schema{"R": {"A", "B"}}
	prog, err := compile.Compile("Q", q, bases, compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range prog.Views {
		t.Logf("view %s schema=%v transient=%v", v.Name, v.Schema, v.Transient)
	}
	for rel, trg := range prog.Triggers {
		t.Logf("trigger %s:", rel)
		for _, s := range trg.Stmts {
			t.Logf("  %s %s %s", s.LHS, s.Op, s.RHS)
		}
	}
	parts := dist.PartInfo{eval.DeltaName("R"): dist.Random}
	for _, v := range prog.Views {
		if v.Transient {
			parts[v.Name] = dist.Random
		} else {
			parts[v.Name] = dist.Indiff
		}
	}
	for n, l := range parts {
		t.Logf("part %s -> %s", n, l)
	}
	dprogs := dist.CompileProgram(prog, parts, dist.O1)
	t.Logf("%s", dprogs["R"])
	const workers = 3
	cl := cluster.New(cluster.DefaultConfig(workers), dist.ViewSchemas(prog), parts)
	local := compile.NewExecutor(prog)
	for b := 0; b < 2; b++ {
		batch := mring.NewRelation(bases["R"])
		for i := 0; i < 12; i++ {
			batch.Add(mring.Tuple{mring.Int(int64(b*12 + i)), mring.Int(int64(i % 3))}, 1)
		}
		local.ApplyBatch("R", batch.Clone())
		if _, err := cl.RunPartitionedBatch(dprogs["R"], batch); err != nil {
			t.Fatal(err)
		}
		if got, want := cl.ViewContents("Q"), local.Result(); !got.EqualApprox(want, 1e-9) {
			t.Fatalf("batch %d diverged:\n got %v\nwant %v", b, got, want)
		}
	}
}
