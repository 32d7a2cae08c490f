package cluster

import (
	"runtime"
	"testing"

	"repro/internal/compile"
	"repro/internal/dist"
	"repro/internal/mring"
	inet "repro/internal/net"
	"repro/internal/tpch"
)

// q3WorkerBlocks compiles TPC-H Q3 for the default placement and returns
// its distributed blocks prepared by a driver, each with its deploy blob.
func q3WorkerBlocks(t testing.TB) []*block {
	t.Helper()
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	parts := dist.ChoosePartitioning(prog, tpch.PrimaryKeyRanks)
	driver := New(DefaultConfig(2), dist.ViewSchemas(prog), parts)
	defer driver.Close()
	var blocks []*block
	for _, dp := range dist.CompileProgram(prog, parts, dist.O3) {
		for i := range dp.Blocks {
			if dp.Blocks[i].Mode != dist.LDist {
				continue
			}
			b := driver.prepare(&dp.Blocks[i])
			b.deploy = encodeDeploy(b.stmts, b.schemas)
			blocks = append(blocks, b)
		}
	}
	if len(blocks) == 0 {
		t.Fatal("Q3 compiled to no worker blocks")
	}
	return blocks
}

// TestServedStagesRetainNothing pins that a worker keeps nothing of a
// served stage but its fragments: one driver session deploys each Q3
// worker block once, then serves many opRunBlock requests that name the
// blocks by id, and the worker's live heap must not grow with the number
// of requests. Decoded trees and their kernel plans live in the shard's
// block table, built once per deploy; anything a stage kept beyond that
// would grow with the requests.
func TestServedStagesRetainNothing(t *testing.T) {
	blocks := q3WorkerBlocks(t)
	srv, err := ListenAndServeWorker(inet.TCP{}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := inet.TCP{}.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := call(conn, opSetup, &setupReq{Index: 0, Workers: 2}, nil); err != nil {
		t.Fatal(err)
	}
	serveAll := func(deploy bool) {
		for _, b := range blocks {
			req := &runBlockReq{ID: b.id}
			if deploy {
				req.Deploy = b.deploy
			}
			var resp runBlockResp
			if err := call(conn, opRunBlock, req, &resp); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}

	// The first round deploys the blocks and creates the shard's
	// fragments; the second warms every path a served stage takes.
	serveAll(true)
	serveAll(false)
	before := liveHeap()
	const rounds = 500
	for i := 0; i < rounds; i++ {
		serveAll(false)
	}
	grown := liveHeap() - before
	t.Logf("%d requests: live heap grew %d B", rounds*len(blocks), grown)
	const bound = 256 << 10
	if grown > bound {
		t.Fatalf("serving %d requests grew the live heap by %d B, want <= %d B: served stages are retained",
			rounds*len(blocks), grown, bound)
	}
}

// fuzzShard is a set-up worker shard holding one small fragment.
func fuzzShard() (*Shard, *mring.Relation) {
	sh := &Shard{node: newNode(), workers: 2}
	r := sh.rel("R", mring.Schema{"a", "b"})
	for i := 0; i < 12; i++ {
		r.Add(tup(i, i%3), float64(1+i%2))
	}
	return sh, r
}

// FuzzServeRequest feeds arbitrary requests to a set-up worker shard: an
// op byte and a body must produce a response or an error, never a panic.
// serve is called directly, without handleSafely's recover, so a panic
// fails the fuzzer. The seeds are one real request per op, including a
// run-block that deploys a Q3 block and one that names an id the shard
// never saw.
func FuzzServeRequest(f *testing.F) {
	blocks := q3WorkerBlocks(f)
	sh, r := fuzzShard()
	schema := r.Schema()
	payload := inet.EncodeRelationPlain(r)
	snap, _ := sh.snapshot()
	watch := []string{blocks[0].stmts[0].LHS}
	for _, seed := range []struct {
		op  byte
		msg message
	}{
		{opSetup, &setupReq{Index: 1, Workers: 2}},
		{opRunBlock, &runBlockReq{ID: blocks[0].id, Deploy: blocks[0].deploy, Watch: watch}},
		{opRunBlock, &runBlockReq{ID: 1 << 40, Watch: watch}},
		{opInstallScatter, &installScatterReq{Name: "S", Schema: schema, Payload: payload, Capture: true}},
		{opInstallRepart, &installRepartReq{Name: "S", SrcSchema: schema, LHSSchema: schema, Payloads: [][]byte{payload, nil}, Capture: true}},
		{opInstallDelta, &installDeltaReq{Name: "S", Schema: schema, Payload: payload}},
		{opPartitionOut, &partitionOutReq{Src: "R", Schema: schema, KeyPos: []int{1}}},
		{opFetch, &fetchReq{Name: "R", Schema: schema}},
		{opSnapshot, nil},
		{opRestore, &snapshotMsg{Frags: snap}},
		{opRetain, &retainReq{Keep: map[string]bool{"R": true}}},
	} {
		f.Add(seed.op, marshal(seed.msg))
	}
	f.Fuzz(func(t *testing.T, op byte, body []byte) {
		sh, _ := fuzzShard()
		if resp, err := serve(sh, op, body); err == nil {
			marshal(resp)
		}
	})
}
