package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/compile"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
	inet "repro/internal/net"
)

func tup(vs ...int) mring.Tuple {
	t := make(mring.Tuple, len(vs))
	for i, v := range vs {
		t[i] = mring.Int(int64(v))
	}
	return t
}

// buildDeployment compiles a query locally and distributes it at the
// given level with the given partitioning.
func buildDeployment(t *testing.T, name string, q expr.Expr, bases map[string]mring.Schema,
	parts dist.PartInfo, level dist.OptLevel, workers int) (*compile.Program, map[string]*dist.DistProgram, *Cluster) {
	t.Helper()
	prog, err := compile.Compile(name, q, bases, compile.Options{DomainExtraction: true})
	if err != nil {
		t.Fatal(err)
	}
	dprogs := dist.CompileProgram(prog, parts, level)
	cfg := DefaultConfig(workers)
	cl := New(cfg, dist.ViewSchemas(prog), parts)
	return prog, dprogs, cl
}

// checkDistributedMatchesLocal streams random batches through both the
// local executor and the cluster and compares the top view after every
// batch.
func checkDistributedMatchesLocal(t *testing.T, name string, q expr.Expr,
	bases map[string]mring.Schema, parts dist.PartInfo, level dist.OptLevel,
	workers, nBatches, batchSize int, seed int64) {
	t.Helper()
	prog, dprogs, cl := buildDeployment(t, name, q, bases, parts, level, workers)
	local := compile.NewExecutor(prog)
	rng := rand.New(rand.NewSource(seed))
	var relNames []string
	for n := range bases {
		relNames = append(relNames, n)
	}
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
				tp[j] = mring.Int(int64(rng.Intn(5)))
			}
			batch.Add(tp, float64(1+rng.Intn(2)))
		}
		local.ApplyBatch(rel, batch.Clone())
		if _, err := cl.RunPartitionedBatch(dprogs[rel], batch.Clone()); err != nil {
			t.Fatalf("%s O%d batch %d: %v\nprogram:\n%s", name, level, b, err, dprogs[rel])
		}
		got := cl.ViewContents(name)
		want := local.Result()
		if !got.EqualApprox(want, 1e-6) {
			t.Fatalf("%s O%d batch %d on %s diverged\n got: %v\nwant: %v\nprogram:\n%s",
				name, level, b, rel, got, want, dprogs[rel])
		}
	}
}

func triJoinSetup() (expr.Expr, map[string]mring.Schema, dist.PartInfo) {
	q := expr.Sum([]string{"B"}, expr.Join(
		expr.Base("R", "A", "B"), expr.Base("S", "B", "C"), expr.Base("T", "C", "D")))
	bases := map[string]mring.Schema{"R": {"A", "B"}, "S": {"B", "C"}, "T": {"C", "D"}}
	return q, bases, nil
}

// partitionAll assigns every view a distributed location on its first
// schema column, keeps scalars local, and leaves update batches where
// the workers ingest them.
func partitionAll(prog *compile.Program, topLocal bool) dist.PartInfo {
	parts := dist.PartInfo{}
	for _, v := range prog.Views {
		if v.Transient || len(v.Schema) == 0 {
			parts[v.Name] = dist.Local
			continue
		}
		parts[v.Name] = dist.Dist(v.Schema[0])
	}
	if topLocal {
		parts[prog.QueryName] = dist.Local
	}
	for rel := range prog.Bases {
		parts[eval.DeltaName(rel)] = dist.Random
	}
	return parts
}

func TestDistributedTriJoinAllLevels(t *testing.T) {
	q, bases, _ := triJoinSetup()
	prog, err := compile.Compile("Q", q, bases, compile.Options{DomainExtraction: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, topLocal := range []bool{true, false} {
		parts := partitionAll(prog, topLocal)
		for _, level := range []dist.OptLevel{dist.O0, dist.O1, dist.O2, dist.O3} {
			checkDistributedMatchesLocal(t, "Q", q, bases, parts, level, 4, 8, 6, int64(10+int(level)))
		}
	}
}

func TestDistributedScalarAggregate(t *testing.T) {
	// Q6 shape: one scalar aggregate with a filter, result at the driver.
	q := expr.Sum(nil, expr.Join(
		expr.Base("L", "qty", "price"),
		expr.CmpE(expr.CLt, expr.V("qty"), expr.LitI(3)),
		expr.ValE(expr.V("price"))))
	bases := map[string]mring.Schema{"L": {"qty", "price"}}
	prog, err := compile.Compile("Q6", q, bases, compile.Options{DomainExtraction: true})
	if err != nil {
		t.Fatal(err)
	}
	parts := partitionAll(prog, true)
	checkDistributedMatchesLocal(t, "Q6", q, bases, parts, dist.O3, 8, 6, 10, 99)
}

func TestDistributedNestedCorrelated(t *testing.T) {
	// Q17 shape: correlated nested aggregate; views partitioned on the
	// correlation key.
	inner := expr.Sum(nil, expr.Join(expr.Base("S", "B2", "C"), expr.Eq(expr.V("B"), expr.V("B2"))))
	q := expr.Sum(nil, expr.Join(
		expr.Base("R", "A", "B"),
		expr.LiftQ("X", inner),
		expr.CmpE(expr.CLt, expr.V("A"), expr.V("X"))))
	bases := map[string]mring.Schema{"R": {"A", "B"}, "S": {"B2", "C"}}
	prog, err := compile.Compile("Q17", q, bases, compile.Options{DomainExtraction: true})
	if err != nil {
		t.Fatal(err)
	}
	// Partition the R-mirror on B (correlation var side) and the S-mirror
	// on B2 so lift groups are complete per node.
	parts := dist.PartInfo{"Q17": dist.Local}
	for _, v := range prog.Views {
		if v.Name == "Q17" {
			continue
		}
		switch {
		case v.Schema.Contains("B2"):
			parts[v.Name] = dist.Dist("B2")
		case v.Schema.Contains("B"):
			parts[v.Name] = dist.Dist("B")
		default:
			parts[v.Name] = dist.Local
		}
	}
	for rel := range bases {
		parts[eval.DeltaName(rel)] = dist.Random
	}
	for _, level := range []dist.OptLevel{dist.O0, dist.O3} {
		checkDistributedMatchesLocal(t, "Q17", q, bases, parts, level, 4, 8, 5, 7)
	}
}

func TestRunPartitionedIngest(t *testing.T) {
	// Workers ingest stream fragments directly (Random delta tag).
	q := expr.Sum(nil, expr.Join(expr.Base("L", "a", "v"), expr.ValE(expr.V("v"))))
	bases := map[string]mring.Schema{"L": {"a", "v"}}
	prog, err := compile.Compile("QP", q, bases, compile.Options{DomainExtraction: true})
	if err != nil {
		t.Fatal(err)
	}
	parts := partitionAll(prog, true)
	parts[eval.DeltaName("L")] = dist.Random
	dprogs := dist.CompileProgram(prog, parts, dist.O3)
	workers := 4
	cl := New(DefaultConfig(workers), dist.ViewSchemas(prog), parts)
	local := compile.NewExecutor(prog)
	rng := rand.New(rand.NewSource(5))
	for b := 0; b < 5; b++ {
		full := mring.NewRelation(bases["L"])
		for i := 0; i < 40; i++ {
			full.Add(tup(rng.Intn(6), rng.Intn(10)), 1)
		}
		local.ApplyBatch("L", full)
		if _, err := cl.RunPartitionedBatch(dprogs["L"], full); err != nil {
			t.Fatalf("batch %d: %v\n%s", b, err, dprogs["L"])
		}
		if got, want := cl.ViewContents("QP"), local.Result(); !got.EqualApprox(want, 1e-6) {
			t.Fatalf("batch %d diverged: got %v want %v\n%s", b, got, want, dprogs["L"])
		}
	}
}

func TestMetricsShape(t *testing.T) {
	q, bases, _ := triJoinSetup()
	prog, err := compile.Compile("Q", q, bases, compile.Options{DomainExtraction: true})
	if err != nil {
		t.Fatal(err)
	}
	parts := partitionAll(prog, true)
	dprogs := dist.CompileProgram(prog, parts, dist.O3)
	cl := New(DefaultConfig(8), dist.ViewSchemas(prog), parts)
	batch := mring.NewRelation(bases["R"])
	for i := 0; i < 50; i++ {
		batch.Add(tup(i, i%5), 1)
	}
	m, err := cl.RunPartitionedBatch(dprogs["R"], batch)
	if err != nil {
		t.Fatal(err)
	}
	if m.Latency <= 0 {
		t.Fatal("latency must be positive")
	}
	if m.ShuffledBytes <= 0 {
		t.Fatal("a scatter must move bytes")
	}
	if m.Stages == 0 {
		t.Fatal("expected at least one stage")
	}
	// Scheduling overhead grows with workers: same batch on a bigger
	// cluster must cost more sync time for this tiny workload.
	clBig := New(DefaultConfig(512), dist.ViewSchemas(prog), parts)
	mBig, err := clBig.RunPartitionedBatch(dprogs["R"], batch.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if mBig.Latency <= m.Latency {
		t.Fatalf("512-worker sync latency (%v) should exceed 8-worker (%v) on a tiny batch",
			mBig.Latency, m.Latency)
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{Latency: 10, ShuffledBytes: 5, MaxWorkerShuffleBytes: 3, Stages: 1, Jobs: 1}
	b := Metrics{Latency: 7, ShuffledBytes: 2, MaxWorkerShuffleBytes: 9, Stages: 2, Jobs: 1}
	a.Add(b)
	if a.Latency != 17 || a.ShuffledBytes != 7 || a.MaxWorkerShuffleBytes != 9 || a.Stages != 3 || a.Jobs != 2 {
		t.Fatalf("Add wrong: %+v", a)
	}
}

func TestStateNotSharedAcrossWorkers(t *testing.T) {
	// A Dist view's fragments must be disjoint: total = sum of fragments,
	// and no tuple may appear on two workers.
	q := expr.Sum([]string{"B"}, expr.Base("R", "A", "B"))
	bases := map[string]mring.Schema{"R": {"A", "B"}}
	prog, err := compile.Compile("QV", q, bases, compile.Options{DomainExtraction: true})
	if err != nil {
		t.Fatal(err)
	}
	parts := partitionAll(prog, false) // top view distributed by B
	dprogs := dist.CompileProgram(prog, parts, dist.O3)
	cl := New(DefaultConfig(4), dist.ViewSchemas(prog), parts)
	batch := mring.NewRelation(bases["R"])
	for i := 0; i < 60; i++ {
		batch.Add(tup(i, i%7), 1)
	}
	if _, err := cl.RunPartitionedBatch(dprogs["R"], batch); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for wi, w := range cl.workers {
		if r := w.(*Shard).rels["QV"]; r != nil {
			r.Foreach(func(tp mring.Tuple, _ float64) {
				if prev, ok := seen[tp.Key()]; ok {
					t.Fatalf("tuple %v on workers %d and %d", tp, prev, wi)
				}
				seen[tp.Key()] = wi
			})
		}
	}
	if len(seen) != 7 {
		t.Fatalf("expected 7 groups across workers, got %d", len(seen))
	}
}

func TestCheckpointRestoreAfterFailure(t *testing.T) {
	// Stream batches, checkpoint, lose a worker, restore, continue:
	// the final result must match an uninterrupted local execution.
	q := expr.Sum([]string{"B"}, expr.Base("R", "A", "B"))
	bases := map[string]mring.Schema{"R": {"A", "B"}}
	prog, err := compile.Compile("QC", q, bases, compile.Options{DomainExtraction: true})
	if err != nil {
		t.Fatal(err)
	}
	parts := partitionAll(prog, false)
	dprogs := dist.CompileProgram(prog, parts, dist.O3)
	cl := New(DefaultConfig(4), dist.ViewSchemas(prog), parts)
	local := compile.NewExecutor(prog)

	mkBatch := func(lo int) *mring.Relation {
		b := mring.NewRelation(bases["R"])
		for i := 0; i < 30; i++ {
			b.Add(tup(lo+i, (lo+i)%5), 1)
		}
		return b
	}
	for i := 0; i < 3; i++ {
		b := mkBatch(i * 30)
		local.ApplyBatch("R", b.Clone())
		if _, err := cl.RunPartitionedBatch(dprogs["R"], b); err != nil {
			t.Fatal(err)
		}
	}
	cp := mustCheckpoint(t, cl)
	if cp.Bytes() == 0 {
		t.Fatal("checkpoint should capture state")
	}
	// Fail a worker that owns a fragment of the view: the distributed
	// contents are now missing it. (Which workers own fragments depends on
	// the tuple hash, so pick one that actually holds state.)
	victim := -1
	for i, w := range cl.workers {
		if r := w.(*Shard).rels["QC"]; r != nil && r.Len() > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no worker holds a QC fragment")
	}
	cl.KillWorker(victim)
	if cl.ViewContents("QC").EqualApprox(local.Result(), 1e-9) {
		t.Fatal("state should be damaged after worker failure")
	}
	if err := cl.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if !cl.ViewContents("QC").EqualApprox(local.Result(), 1e-9) {
		t.Fatal("restore did not recover the pre-failure state")
	}
	// Processing continues correctly after recovery.
	b := mkBatch(90)
	local.ApplyBatch("R", b.Clone())
	if _, err := cl.RunPartitionedBatch(dprogs["R"], b); err != nil {
		t.Fatal(err)
	}
	if !cl.ViewContents("QC").EqualApprox(local.Result(), 1e-9) {
		t.Fatal("post-recovery processing diverged")
	}
}

func TestRestoreRejectsMismatchedWorkers(t *testing.T) {
	q := expr.Sum(nil, expr.Base("R", "A"))
	prog, _ := compile.Compile("QW", q, map[string]mring.Schema{"R": {"A"}}, compile.Options{})
	parts := partitionAll(prog, true)
	a := New(DefaultConfig(2), dist.ViewSchemas(prog), parts)
	b := New(DefaultConfig(3), dist.ViewSchemas(prog), parts)
	if err := b.Restore(mustCheckpoint(t, a)); err == nil {
		t.Fatal("expected worker-count mismatch error")
	}
}

func TestRestoreRejectsCorruptSnapshot(t *testing.T) {
	q := expr.Sum(nil, expr.Base("R", "A"))
	prog, _ := compile.Compile("QX", q, map[string]mring.Schema{"R": {"A"}}, compile.Options{})
	parts := partitionAll(prog, true)
	cl := New(DefaultConfig(2), dist.ViewSchemas(prog), parts)
	batch := mring.NewRelation(mring.Schema{"A"})
	batch.Add(tup(1), 1)
	dprogs := dist.CompileProgram(prog, parts, dist.O3)
	if _, err := cl.RunPartitionedBatch(dprogs["R"], batch); err != nil {
		t.Fatal(err)
	}
	cp := mustCheckpoint(t, cl)
	for name, b := range cp.Driver {
		b.Payload = b.Payload[:len(b.Payload)/2] // truncate
		cp.Driver[name] = b
	}
	before := cl.ViewContents("QX").Get(mring.Tuple{})
	if err := cl.Restore(cp); err == nil {
		t.Fatal("expected corruption error")
	}
	// State must be untouched after a failed restore.
	if cl.ViewContents("QX").Get(mring.Tuple{}) != before {
		t.Fatal("failed restore mutated state")
	}
}

func TestConfigZeroWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero workers")
		}
	}()
	New(Config{Workers: 0}, nil, nil)
}

// TestReplicatedViewReadAfterReplicaLost pins that a replicated view
// still reads whole once a replica is gone: a warmed replicated view
// whose worker 0 lost its state reads as the local executor's contents,
// on in-process shards and on two worker processes.
func TestReplicatedViewReadAfterReplicaLost(t *testing.T) {
	bases := map[string]mring.Schema{"R": {"A", "B"}}
	prog, err := compile.Compile("QI", expr.Sum([]string{"B"}, expr.Base("R", "A", "B")), bases, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	parts := partitionAll(prog, false)
	parts[prog.QueryName] = dist.Indiff
	r := mring.NewRelation(bases["R"])
	for i := 0; i < 20; i++ {
		r.Add(tup(i, i%4), float64(1+i%3))
	}
	local := compile.NewExecutor(prog)
	local.InitFromBases(map[string]*mring.Relation{"R": r})
	want := local.Result()
	if want.Len() == 0 {
		t.Fatal("the replicated view is empty")
	}
	addrs := make([]string, 2)
	for i := range addrs {
		srv, err := ListenAndServeWorker(inet.TCP{}, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	proc, err := Connect(inet.TCP{}, addrs, dist.ViewSchemas(prog), parts)
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	sim := New(DefaultConfig(2), dist.ViewSchemas(prog), parts)
	for kind, cl := range map[string]*Cluster{"simulated": sim, "process": proc} {
		if err := cl.WarmViews(map[string]*mring.Relation{prog.QueryName: want.Clone()}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		cl.KillWorker(0)
		if got := cl.ViewContents(prog.QueryName); !got.EqualApprox(want, 1e-9) {
			t.Fatalf("%s: replicated view after losing worker 0 = %v, want %v", kind, got, want)
		}
	}
}

// TestReplicatedViewReadsOneReplica reads a replicated (LIndiff) view of
// 1,000 rows through counting loopback workers and checks that a read
// ships one replica, not one per worker: the response bytes of a read at
// 2, 4 and 8 workers exceed the 1-worker reading by at most a small
// fixed overhead per worker.
func TestReplicatedViewReadsOneReplica(t *testing.T) {
	const perWorker = 32 // response bytes a read may add per extra worker
	bases := map[string]mring.Schema{"R": {"A", "B"}}
	prog, err := compile.Compile("QI", expr.Sum([]string{"A", "B"}, expr.Base("R", "A", "B")), bases, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	parts := partitionAll(prog, false)
	parts[prog.QueryName] = dist.Indiff
	view := mring.NewRelation(dist.ViewSchemas(prog)[prog.QueryName])
	for i := 0; i < 1000; i++ {
		view.Add(tup(i, i%7), float64(1+i%3))
	}
	read := func(workers int) int {
		lb := newLoopback(workers)
		cl, err := Connect(lb, lb.addrs(), dist.ViewSchemas(prog), parts)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.WarmViews(map[string]*mring.Relation{prog.QueryName: view.Clone()}); err != nil {
			t.Fatal(err)
		}
		before := 0
		for _, n := range lb.received {
			before += n
		}
		if got := cl.ViewContents(prog.QueryName); !got.EqualApprox(view, 0) {
			t.Fatalf("%d workers: replicated view reads %d rows, want %v", workers, got.Len(), view.Len())
		}
		after := 0
		for _, n := range lb.received {
			after += n
		}
		return after - before
	}
	one := read(1)
	t.Logf("1 worker: %d response bytes per read", one)
	for _, workers := range []int{2, 4, 8} {
		got := read(workers)
		t.Logf("%d workers: %d response bytes per read", workers, got)
		if got > one+perWorker*(workers-1) {
			t.Errorf("%d workers: a read receives %d bytes, want <= %d (one replica)", workers, got, one+perWorker*(workers-1))
		}
	}
}
