package cluster

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/dist"
	"repro/internal/expr"
	"repro/internal/mring"
	inet "repro/internal/net"
	"repro/internal/tpch"
)

// loopback is a transport whose connection to worker i serves every
// request on shards[i] inside the driver's call, through the same codec
// and serve a worker process runs. The test holds the shards, so it can
// read each worker's block table between driver calls, and each
// connection counts the requests it carried, the deploy blobs among them
// by block id, and the response bytes it delivered.
type loopback struct {
	shards   []*Shard
	requests []int
	received []int
	deploys  []map[uint64]int
}

func newLoopback(workers int) *loopback {
	lb := &loopback{requests: make([]int, workers), received: make([]int, workers)}
	for i := 0; i < workers; i++ {
		lb.shards = append(lb.shards, &Shard{node: newNode()})
		lb.deploys = append(lb.deploys, make(map[uint64]int))
	}
	return lb
}

func (lb *loopback) addrs() []string {
	out := make([]string, len(lb.shards))
	for i := range out {
		out[i] = strconv.Itoa(i)
	}
	return out
}

func (lb *loopback) Dial(addr string) (inet.Conn, error) {
	i, err := strconv.Atoi(addr)
	if err != nil || i < 0 || i >= len(lb.shards) {
		return nil, errors.New("loopback: no such worker")
	}
	return &loopConn{sh: lb.shards[i], requests: &lb.requests[i], received: &lb.received[i], deploys: lb.deploys[i]}, nil
}

func (lb *loopback) Listen(string) (inet.Listener, error) {
	return nil, errors.New("loopback: cannot listen")
}

type loopConn struct {
	sh       *Shard
	requests *int
	received *int
	deploys  map[uint64]int
	typ      byte
	body     []byte
}

func (c *loopConn) Send(op byte, body []byte) error {
	*c.requests++
	var req stageReq
	if op == opStage && unmarshal(body, &req) == nil && req.block != nil && len(req.deploy) > 0 {
		c.deploys[req.block.id]++
	}
	resp, err := serve(c.sh, op, body)
	if err != nil {
		c.typ, c.body = opErr, []byte(err.Error())
	} else {
		c.typ, c.body = opOK, marshal(resp)
	}
	*c.received += len(c.body)
	return nil
}

func (c *loopConn) Recv() (byte, []byte, error) { return c.typ, c.body, nil }

func (c *loopConn) Close() error { return nil }

// TestBlockTablesFollowPrograms pins the block lifecycle on a two-worker
// process cluster running Q3: every distributed block ships to each
// worker exactly once however many transactions run it; a checkpoint
// restore that changes placement adopts it and retires the running
// programs, leaving the driver's and the workers' tables holding only the
// blocks of the programs that replace them; block ids are never reused;
// and a stage naming an unknown or retired block id fails.
func TestBlockTablesFollowPrograms(t *testing.T) {
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	parts := dist.ChoosePartitioning(prog, tpch.PrimaryKeyRanks)
	// Ranking customer keys first moves the views partitioned on order
	// keys.
	ranks := map[string]int{}
	for col, r := range tpch.PrimaryKeyRanks {
		ranks[col] = r
	}
	ranks["o_custkey"], ranks["c_custkey"] = 7, 7
	moved := dist.ChoosePartitioning(prog, ranks)
	if moved.Equal(parts) {
		t.Fatal("re-ranked keys left Q3's placement unchanged")
	}

	lb := newLoopback(2)
	cl, err := Connect(lb, lb.addrs(), dist.ViewSchemas(prog), moved)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	local := compile.NewExecutor(prog)
	var applied []compile.TableBatch
	stream := tpch.NewStream(tpch.NewGenerator(0.2, 5), q.Tables)
	dprogs := dist.CompileProgram(prog, moved, dist.O3)
	run := func(txs int) {
		t.Helper()
		for tx := 0; tx < txs; tx++ {
			bs := stream.NextBatches(40)
			if len(bs) == 0 {
				t.Fatal("the update stream ran dry")
			}
			for _, b := range bs {
				applied = append(applied, compile.TableBatch{Table: b.Table, Batch: b.Rel.Clone()})
				local.ApplyBatch(b.Table, b.Rel.Clone())
				if _, err := cl.RunPartitionedBatch(dprogs[b.Table], b.Rel); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got, want := cl.ViewContents(q.Name), local.Result(); !got.EqualApprox(want, 1e-6) {
			t.Fatalf("Q3 diverged from the local executor: got %d rows, want %d", got.Len(), want.Len())
		}
	}
	// tables checks the driver's table holds only blocks of the running
	// programs, and each worker's exactly their distributed ones, each
	// shipped to it once since the last retirement. It returns those ids.
	tables := func(stage string) map[uint64]bool {
		t.Helper()
		current := map[*dist.Block]bool{}
		for _, dp := range dprogs {
			for i := range dp.Blocks {
				current[&dp.Blocks[i]] = true
			}
		}
		ids := map[uint64]bool{}
		for b, p := range cl.blocks {
			if !current[b] {
				t.Fatalf("%s: driver holds block %d of a retired program", stage, p.id)
			}
			if b.Mode == dist.LDist {
				ids[p.id] = true
			}
		}
		if len(ids) == 0 {
			t.Fatalf("%s: no distributed block ran", stage)
		}
		for i, sh := range lb.shards {
			if len(sh.blocks) != len(ids) {
				t.Fatalf("%s: worker %d holds %d blocks, the driver ran %d", stage, i, len(sh.blocks), len(ids))
			}
			for id := range ids {
				if sh.blocks[id] == nil {
					t.Fatalf("%s: worker %d lacks block %d", stage, i, id)
				}
				if n := lb.deploys[i][id]; n != 1 {
					t.Fatalf("%s: block %d shipped to worker %d %d times", stage, id, i, n)
				}
			}
		}
		return ids
	}
	retired := func(stage string, ids map[uint64]bool) {
		t.Helper()
		for id := range ids {
			for i, sh := range lb.shards {
				if _, err := serve(sh, opStage, marshal(&stageReq{block: &block{id: id}})); err == nil || !strings.Contains(err.Error(), "not deployed") {
					t.Fatalf("%s: worker %d ran retired block %d (err %v)", stage, i, id, err)
				}
			}
		}
	}

	run(12)
	first := tables("12 transactions")
	for i, sh := range lb.shards {
		if _, err := serve(sh, opStage, marshal(&stageReq{block: &block{id: 1 << 40}})); err == nil {
			t.Fatalf("worker %d ran a stage naming an unknown block", i)
		}
	}

	// A checkpoint of the same transactions taken under the first
	// placement, by an in-process cluster.
	src := New(DefaultConfig(2), dist.ViewSchemas(prog), parts)
	srcProgs := dist.CompileProgram(prog, parts, dist.O3)
	for _, b := range applied {
		if _, err := src.RunPartitionedBatch(srcProgs[b.Table], b.Batch.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := src.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	if err := cl.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if !cl.parts.Equal(parts) {
		t.Fatal("restore did not adopt the checkpoint's placement")
	}
	if len(cl.blocks) != 0 || len(lb.shards[0].blocks) != 0 || len(lb.shards[1].blocks) != 0 {
		t.Fatal("restore left prepared blocks behind")
	}
	retired("after restore", first)
	for i := range lb.deploys {
		clear(lb.deploys[i])
	}
	dprogs = srcProgs
	run(4)
	for id := range tables("after restore") {
		if first[id] {
			t.Fatalf("block id %d reused after restore", id)
		}
	}
}

// TestCompiledBlocksPassDeployCheck pins that the block check accepts
// every block the compiler emits for the TPC-H queries at every
// optimization level — the check refuses only malformed deployments —
// and that each block's deploy blob decodes to statements that encode to
// the same blob.
func TestCompiledBlocksPassDeployCheck(t *testing.T) {
	for _, q := range tpch.Queries() {
		prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		parts := dist.ChoosePartitioning(prog, tpch.PrimaryKeyRanks)
		for _, level := range []dist.OptLevel{dist.O0, dist.O1, dist.O2, dist.O3} {
			cl := New(DefaultConfig(2), dist.ViewSchemas(prog), parts)
			for _, dp := range dist.CompileProgram(prog, parts, level) {
				for i := range dp.Blocks {
					b, err := cl.prepare(dp, &dp.Blocks[i])
					if err != nil {
						t.Fatalf("%s O%d: %v\n%s", q.Name, level, err, dp.Blocks[i])
					}
					if dp.Blocks[i].Mode != dist.LDist {
						continue
					}
					blob := encodeDeploy(b.stmts, b.schemas)
					got, err := decodeDeploy(b.id, blob)
					if err != nil {
						t.Fatalf("%s O%d: %v\n%s", q.Name, level, err, dp.Blocks[i])
					}
					if again := encodeDeploy(got.stmts, got.schemas); string(again) != string(blob) {
						t.Fatalf("%s O%d: deploy blob does not round-trip\n%s", q.Name, level, dp.Blocks[i])
					}
				}
			}
		}
	}
}

// mixedUnion is a statement whose tree reads b where only some union
// terms bind it — Sum([b], (R(a,b) + S(a)) ⋈ T(b)) — with the schemas it
// binds.
func mixedUnion() ([]dist.Stmt, map[string]mring.Schema) {
	rhs := expr.Sum([]string{"b"}, expr.Join(expr.Add(expr.View("R", "a", "b"), expr.View("S", "a")), expr.View("T", "b")))
	return []dist.Stmt{{LHS: "X", RHS: rhs}}, map[string]mring.Schema{"X": {"b"}, "R": {"a", "b"}, "S": {"a"}, "T": {"b"}}
}

// TestDeployCheckRefusesMalformed pins that a deployment the interpreter
// would panic on is refused at deploy time.
func TestDeployCheckRefusesMalformed(t *testing.T) {
	b := q3WorkerBlocks(t)[0]
	s := b.stmts[0]
	read := b.plans[s.RHS].Rels()[0]
	schemas := func(drop string) map[string]mring.Schema {
		out := map[string]mring.Schema{}
		for k, v := range b.schemas {
			if k != drop {
				out[k] = v
			}
		}
		return out
	}
	wide := schemas("")
	wide[read] = append(wide[read].Clone(), "extra")
	mixed, mixedSchemas := mixedUnion()
	for name, c := range map[string]struct {
		stmts   []dist.Stmt
		schemas map[string]mring.Schema
	}{
		"missing node":      {[]dist.Stmt{{LHS: s.LHS, RHS: nil}}, b.schemas},
		"target no schema":  {b.stmts, schemas(s.LHS)},
		"unbound variable":  {[]dist.Stmt{{LHS: s.LHS, RHS: expr.Sum([]string{"nope"}, s.RHS)}}, b.schemas},
		"transformer":       {[]dist.Stmt{{LHS: s.LHS, RHS: &dist.Xform{Body: s.RHS}}}, b.schemas},
		"arity into target": {[]dist.Stmt{{LHS: s.LHS, RHS: expr.Sum(nil, s.RHS)}}, b.schemas},
		"mixed union":       {mixed, mixedSchemas},
		"read no schema":    {b.stmts, schemas(read)},
		"read at arity":     {b.stmts, wide},
	} {
		if _, err := newBlock(1, dist.LDist, c.stmts, c.schemas); err == nil {
			t.Errorf("%s: deployment accepted", name)
		}
	}
}
