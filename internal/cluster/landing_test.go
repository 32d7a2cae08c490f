package cluster

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
)

// landingBatch is the update batch the landing tests feed: seven keys
// spread over forty rows.
func landingBatch() *mring.Relation {
	batch := mring.NewRelation(mring.Schema{"a", "b"})
	for i := 0; i < 40; i++ {
		batch.Add(tup(i%7, i), 1)
	}
	return batch
}

// runOnBothKinds runs prog over batch on two in-process shards and on
// two loopback process workers, and returns both clusters.
func runOnBothKinds(t *testing.T, prog *dist.DistProgram, parts dist.PartInfo, schemas func() map[string]mring.Schema) (sim, proc *Cluster) {
	t.Helper()
	sim = New(DefaultConfig(2), schemas(), parts)
	lb := newLoopback(2)
	proc, err := Connect(lb, lb.addrs(), schemas(), parts)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []*Cluster{sim, proc} {
		if _, err := c.RunPartitionedBatch(prog, landingBatch()); err != nil {
			t.Fatal(err)
		}
	}
	return sim, proc
}

// checkViews asserts each named view holds want on both clusters, and
// that the process workers' contents are bitwise the simulator's.
func checkViews(t *testing.T, sim, proc *Cluster, want map[string]*mring.Relation) {
	t.Helper()
	for name, w := range want {
		got, fromProc := sim.ViewContents(name), proc.ViewContents(name)
		if !got.Equal(w) {
			t.Fatalf("simulated %s = %v, want %v", name, got, w)
		}
		if fromProc.Len() != got.Len() {
			t.Fatalf("process workers hold %d rows of %s, the simulator %d", fromProc.Len(), name, got.Len())
		}
		got.Foreach(func(tp mring.Tuple, m float64) {
			if g := fromProc.Get(tp); g != m {
				t.Fatalf("%s%v = %g on process workers, %g simulated", name, tp, g, m)
			}
		})
	}
}

// TestExchangeLandsBeforeBlocks pins the in-process landing order. An
// exchange's pieces alias the fragments they were dealt from, and the
// step that lands them here also overwrites that source in its block:
// each shard's block rewrites T with other values, so a piece of T
// landed after its sender's block would carry them. Every install lands
// on every shard before any shard runs its block, so U and V hold the
// batch summed by a, bitwise as on process workers, whose pieces travel
// encoded.
func TestExchangeLandsBeforeBlocks(t *testing.T) {
	prog := &dist.DistProgram{Relations: []string{"R"}, Blocks: []dist.Block{
		{Mode: dist.LDist, Stmts: []dist.Stmt{
			{LHS: "T", Op: eval.OpSet, RHS: expr.Sum([]string{"a"}, expr.Delta("R", "a", "b"))}}},
		{Mode: dist.LLocal, Stmts: []dist.Stmt{
			{LHS: "U", Op: eval.OpSet, RHS: &dist.Xform{Kind: dist.XRepart, Key: []string{"a"}, Body: expr.View("T", "a")}}}},
		{Mode: dist.LDist, Stmts: []dist.Stmt{
			{LHS: "T", Op: eval.OpSet, RHS: expr.Sum([]string{"a"}, expr.Delta("R", "b", "a"))},
			{LHS: "V", Op: eval.OpAdd, RHS: expr.View("U", "a")}}},
	}, Schemas: map[string]mring.Schema{eval.DeltaName("R"): {"a", "b"}, "T": {"a"}, "U": {"a"}, "V": {"a"}}}
	parts := dist.PartInfo{eval.DeltaName("R"): dist.Random, "T": dist.Random, "U": dist.Dist("a"), "V": dist.Dist("a")}
	schemas := func() map[string]mring.Schema { return map[string]mring.Schema{"U": {"a"}, "V": {"a"}} }
	sim, proc := runOnBothKinds(t, prog, parts, schemas)
	sum := landingBatch().ProjectSum(mring.Schema{"a"})
	checkViews(t, sim, proc, map[string]*mring.Relation{"U": sum, "V": sum})
}

// TestExchangeInPlace pins an exchange whose target is its own source:
// landing it clears the fragments its pieces were dealt from, so the
// driver copies those pieces out first.
func TestExchangeInPlace(t *testing.T) {
	prog := &dist.DistProgram{Relations: []string{"R"}, Blocks: []dist.Block{
		{Mode: dist.LDist, Stmts: []dist.Stmt{
			{LHS: "T", Op: eval.OpSet, RHS: expr.Sum([]string{"a"}, expr.Delta("R", "a", "b"))}}},
		{Mode: dist.LLocal, Stmts: []dist.Stmt{
			{LHS: "T", Op: eval.OpSet, RHS: &dist.Xform{Kind: dist.XRepart, Key: []string{"a"}, Body: expr.View("T", "a")}}}},
		{Mode: dist.LDist, Stmts: []dist.Stmt{
			{LHS: "V", Op: eval.OpAdd, RHS: expr.View("T", "a")}}},
	}, Schemas: map[string]mring.Schema{eval.DeltaName("R"): {"a", "b"}, "T": {"a"}, "V": {"a"}}}
	parts := dist.PartInfo{eval.DeltaName("R"): dist.Random, "T": dist.Dist("a"), "V": dist.Dist("a")}
	schemas := func() map[string]mring.Schema { return map[string]mring.Schema{"T": {"a"}, "V": {"a"}} }
	sim, proc := runOnBothKinds(t, prog, parts, schemas)
	sum := landingBatch().ProjectSum(mring.Schema{"a"})
	checkViews(t, sim, proc, map[string]*mring.Relation{"T": sum, "V": sum})
}

// TestScatterOfRewrittenDriverRelation pins the keyed scatter's
// snapshot: its pieces alias the driver relation they were dealt from,
// and a later driver statement of the same block rewrites that relation
// before the next step lands them, so the scatter ships a copy.
func TestScatterOfRewrittenDriverRelation(t *testing.T) {
	prog := &dist.DistProgram{Relations: []string{"R"}, Blocks: []dist.Block{
		{Mode: dist.LDist, Stmts: []dist.Stmt{
			{LHS: "T", Op: eval.OpSet, RHS: expr.Sum([]string{"a"}, expr.Delta("R", "a", "b"))},
			{LHS: "T2", Op: eval.OpSet, RHS: expr.Sum([]string{"a"}, expr.Delta("R", "b", "a"))}}},
		{Mode: dist.LLocal, Stmts: []dist.Stmt{
			{LHS: "G", Op: eval.OpSet, RHS: &dist.Xform{Kind: dist.XGather, Body: expr.View("T", "a")}},
			{LHS: "H", Op: eval.OpSet, RHS: &dist.Xform{Kind: dist.XGather, Body: expr.View("T2", "a")}},
			{LHS: "S", Op: eval.OpSet, RHS: &dist.Xform{Kind: dist.XScatter, Key: []string{"a"}, Body: expr.View("G", "a")}},
			{LHS: "G", Op: eval.OpSet, RHS: expr.View("H", "a")}}},
		{Mode: dist.LDist, Stmts: []dist.Stmt{
			{LHS: "V", Op: eval.OpAdd, RHS: expr.View("S", "a")}}},
	}, Schemas: map[string]mring.Schema{eval.DeltaName("R"): {"a", "b"}, "T": {"a"}, "T2": {"a"},
		"G": {"a"}, "H": {"a"}, "S": {"a"}, "V": {"a"}}}
	parts := dist.PartInfo{eval.DeltaName("R"): dist.Random, "T": dist.Random, "T2": dist.Random,
		"G": dist.Local, "H": dist.Local, "S": dist.Dist("a"), "V": dist.Dist("a")}
	schemas := func() map[string]mring.Schema { return map[string]mring.Schema{"S": {"a"}, "V": {"a"}} }
	sim, proc := runOnBothKinds(t, prog, parts, schemas)
	sum := landingBatch().ProjectSum(mring.Schema{"a"})
	checkViews(t, sim, proc, map[string]*mring.Relation{"S": sum, "V": sum})
}

// TestUndeclaredRelationRefused pins that a program reading a relation it
// declares no schema for is refused before any install lands, with the
// same error on in-process shards and on process workers.
func TestUndeclaredRelationRefused(t *testing.T) {
	prog := &dist.DistProgram{Relations: []string{"R"}, Blocks: []dist.Block{
		{Mode: dist.LDist, Stmts: []dist.Stmt{
			{LHS: "V", Op: eval.OpAdd, RHS: expr.Sum([]string{"a"}, expr.Join(expr.Delta("R", "a", "b"), expr.View("Q", "a")))}}},
	}, Schemas: map[string]mring.Schema{eval.DeltaName("R"): {"a", "b"}, "V": {"a"}}}
	parts := dist.PartInfo{eval.DeltaName("R"): dist.Random, "V": dist.Dist("a")}
	sim := New(DefaultConfig(2), map[string]mring.Schema{"V": {"a"}}, parts)
	lb := newLoopback(2)
	proc, err := Connect(lb, lb.addrs(), map[string]mring.Schema{"V": {"a"}}, parts)
	if err != nil {
		t.Fatal(err)
	}
	var errs []string
	for _, c := range []*Cluster{sim, proc} {
		_, err := c.RunPartitionedBatch(prog, landingBatch())
		if err == nil || !strings.Contains(err.Error(), `relation "Q" without schema`) {
			t.Fatalf("run reading an undeclared relation returned %v", err)
		}
		errs = append(errs, err.Error())
	}
	if errs[0] != errs[1] {
		t.Fatalf("in-process shards refused with %q, process workers with %q", errs[0], errs[1])
	}
	for i, w := range sim.workers {
		if n := len(w.(*Shard).rels); n != 0 {
			t.Fatalf("in-process shard %d holds %d fragments", i, n)
		}
	}
	for i, sh := range lb.shards {
		if n := len(sh.rels); n != 0 || lb.requests[i] != 1 {
			t.Fatalf("process worker %d holds %d fragments after %d requests, want none after its setup", i, n, lb.requests[i])
		}
	}
}
