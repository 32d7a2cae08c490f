package cluster

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
	"repro/internal/tpch"
)

// TestStagePlansAcrossQueries runs every TPC-H trigger at every
// optimization level on three in-process shards and on three process
// workers behind a loopback transport, so every shape of plan runs:
// steps per distributed block, transfer-only steps for a leading driver
// block that reads worker state, a closing step (Q11's supplier trigger
// at O0), chained gathers and repartitions, and broadcasts of driver
// views written before they land. Each batch costs every process worker
// exactly one request per planned step; every view the process cluster
// holds is bitwise the simulator's, and the simulator's equal the local
// executor's.
func TestStagePlansAcrossQueries(t *testing.T) {
	const workers = 3
	for _, q := range tpch.Queries() {
		prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		parts := dist.ChoosePartitioning(prog, tpch.PrimaryKeyRanks)
		for _, level := range []dist.OptLevel{dist.O0, dist.O1, dist.O2, dist.O3} {
			dprogs := dist.CompileProgram(prog, parts, level)
			sim := New(DefaultConfig(workers), dist.ViewSchemas(prog), parts)
			lb := newLoopback(workers)
			proc, err := Connect(lb, lb.addrs(), dist.ViewSchemas(prog), parts)
			if err != nil {
				t.Fatal(err)
			}
			local := compile.NewExecutor(prog)
			stream := tpch.NewStream(tpch.NewGenerator(0.05, 3), q.Tables)
			for chunk := 0; chunk < 3; chunk++ {
				for _, b := range stream.NextBatches(60) {
					dp := dprogs[b.Table]
					local.ApplyBatch(b.Table, b.Rel.Clone())
					if _, err := sim.RunPartitionedBatch(dp, b.Rel.Clone()); err != nil {
						t.Fatalf("%s O%d %s: %v", q.Name, level, b.Table, err)
					}
					before := append([]int(nil), lb.requests...)
					// Equal clones deal equally: the deal follows the batch's
					// Foreach order.
					if _, err := proc.RunPartitionedBatch(dp, b.Rel.Clone()); err != nil {
						t.Fatalf("%s O%d %s on process workers: %v", q.Name, level, b.Table, err)
					}
					steps := len(proc.plans[dp].outputs)
					for i := range before {
						if got := lb.requests[i] - before[i]; got != steps {
							t.Fatalf("%s O%d %s: worker %d served %d requests for %d steps", q.Name, level, b.Table, i, got, steps)
						}
					}
				}
			}
			for _, v := range prog.Views {
				if v.Transient {
					continue
				}
				want := sim.ViewContents(v.Name)
				if !want.EqualApprox(local.View(v.Name), 1e-6) {
					t.Fatalf("%s O%d: simulated %s diverged from the local executor", q.Name, level, v.Name)
				}
				got := proc.ViewContents(v.Name)
				if got.Len() != want.Len() {
					t.Fatalf("%s O%d: process workers hold %d rows of %s, the simulator %d", q.Name, level, got.Len(), v.Name, want.Len())
				}
				want.Foreach(func(tp mring.Tuple, m float64) {
					if g := got.Get(tp); g != m {
						t.Fatalf("%s O%d: %s%v = %g on process workers, %g simulated", q.Name, level, v.Name, tp, g, m)
					}
				})
			}
		}
	}
}

// TestTransferOnlySteps pins the two transfers no block's step carries.
// A gather of what a scatter moved earlier in the same driver block can
// neither ride the last step's response nor be chained: it goes out in a
// transfer-only step after the scatter lands, never before it. A scatter
// after the last distributed block goes out in a closing step. So each
// worker serves four requests for the program's two blocks, the gather
// reads the scattered rows, and the closing scatter lands.
func TestTransferOnlySteps(t *testing.T) {
	xf := func(kind dist.XformKind, key []string, src string) *dist.Xform {
		return &dist.Xform{Kind: kind, Key: key, Body: expr.View(src, "a")}
	}
	prog := &dist.DistProgram{Relations: []string{"R"}, Blocks: []dist.Block{
		{Mode: dist.LDist, Stmts: []dist.Stmt{
			{LHS: "T", Op: eval.OpSet, RHS: expr.Sum([]string{"a"}, expr.Delta("R", "a", "b"))}}},
		{Mode: dist.LLocal, Stmts: []dist.Stmt{
			{LHS: "G0", Op: eval.OpSet, RHS: xf(dist.XGather, nil, "T")},
			{LHS: "S", Op: eval.OpSet, RHS: xf(dist.XScatter, []string{"a"}, "G0")},
			{LHS: "G", Op: eval.OpSet, RHS: xf(dist.XGather, nil, "S")}}},
		{Mode: dist.LDist, Stmts: []dist.Stmt{
			{LHS: "V", Op: eval.OpAdd, RHS: expr.View("S", "a")}}},
		{Mode: dist.LLocal, Stmts: []dist.Stmt{
			{LHS: "W", Op: eval.OpSet, RHS: xf(dist.XScatter, []string{"a"}, "G")}}},
	}, Schemas: map[string]mring.Schema{eval.DeltaName("R"): {"a", "b"}, "T": {"a"}, "G0": {"a"},
		"S": {"a"}, "G": {"a"}, "V": {"a"}, "W": {"a"}}}
	parts := dist.PartInfo{eval.DeltaName("R"): dist.Random, "T": dist.Random, "G0": dist.Local,
		"S": dist.Dist("a"), "G": dist.Local, "V": dist.Dist("a"), "W": dist.Dist("a")}
	lb := newLoopback(2)
	cl, err := Connect(lb, lb.addrs(), map[string]mring.Schema{"V": {"a"}, "G": {"a"}, "W": {"a"}}, parts)
	if err != nil {
		t.Fatal(err)
	}
	batch := mring.NewRelation(mring.Schema{"a", "b"})
	for i := 0; i < 40; i++ {
		batch.Add(tup(i%7, i), 1)
	}
	if _, err := cl.RunPartitionedBatch(prog, batch); err != nil {
		t.Fatal(err)
	}
	for i, n := range lb.requests {
		if n != 5 { // setup, then four steps
			t.Fatalf("worker %d served %d requests, want setup and 4 steps", i, n)
		}
	}
	want := batch.ProjectSum(mring.Schema{"a"})
	for _, name := range []string{"G", "V", "W"} {
		if got := cl.ViewContents(name); !got.Equal(want) {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
}
