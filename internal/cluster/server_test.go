package cluster

import (
	"runtime"
	"testing"

	"repro/internal/compile"
	"repro/internal/dist"
	inet "repro/internal/net"
	"repro/internal/tpch"
)

// TestServedStagesRetainNothing pins that a worker keeps nothing of a
// served stage but its fragments: one driver session serves many Q3
// opRunBlock requests, each gob-decoding fresh statement trees, and the
// worker's live heap must not grow with the number of requests. Kernel
// plans are lowered per stage, so the decoded trees and their plans die
// with the request; a process-wide plan memo keyed by tree node would
// keep every request's trees alive.
func TestServedStagesRetainNothing(t *testing.T) {
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	parts := dist.ChoosePartitioning(prog, tpch.PrimaryKeyRanks)
	schemas := dist.ViewSchemas(prog)
	driver := New(DefaultConfig(2), schemas, parts)
	defer driver.Close()
	var blocks [][]dist.Stmt
	for _, dp := range dist.CompileProgram(prog, parts, dist.O3) {
		for _, b := range dp.Blocks {
			if b.Mode == dist.LDist {
				driver.prepareStmts(b.Stmts)
				blocks = append(blocks, b.Stmts)
			}
		}
	}
	if len(blocks) == 0 {
		t.Fatal("Q3 compiled to no worker blocks")
	}

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
	if err := call(conn, opSetup, &setupReq{Index: 0, Workers: 2}, &setupResp{}); err != nil {
		t.Fatal(err)
	}
	serveAll := func() {
		for _, stmts := range blocks {
			var resp runBlockResp
			if err := call(conn, opRunBlock, &runBlockReq{Stmts: stmts, Schemas: schemas}, &resp); err != nil {
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

	// The first round creates the shard's fragments and warms the codec.
	serveAll()
	before := liveHeap()
	const rounds = 500
	for i := 0; i < rounds; i++ {
		serveAll()
	}
	grown := liveHeap() - before
	t.Logf("%d requests: live heap grew %d B", rounds*len(blocks), grown)
	const bound = 256 << 10
	if grown > bound {
		t.Fatalf("serving %d requests grew the live heap by %d B, want <= %d B: served stages are retained",
			rounds*len(blocks), grown, bound)
	}
}
