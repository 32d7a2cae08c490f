package cluster

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/compile"
	"repro/internal/dist"
	"repro/internal/expr"
	"repro/internal/mring"
	inet "repro/internal/net"
	"repro/internal/tpch"
	"repro/internal/wire"
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
			b, err := driver.prepare(dp, &dp.Blocks[i])
			if err != nil {
				t.Fatal(err)
			}
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
// worker block once, then serves many stage requests that name the
// blocks by id, and the worker's live heap must not grow with the number
// of requests. Decoded trees and their prepared plans live in the shard's
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
	var enc encoder
	if err := call(conn, &enc, opSetup, &setupReq{Index: 0, Workers: 2}, nil); err != nil {
		t.Fatal(err)
	}
	serveAll := func(deploy bool) {
		for _, b := range blocks {
			req := &stageReq{block: b}
			if deploy {
				req.deploy = b.deploy
			}
			var resp stageResp
			if err := call(conn, &enc, opStage, req, &resp); err != nil {
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
// fails the fuzzer. The seeds are one real request per live op, each
// retired op byte, and one stage of each shape: a deal only; installs, a
// run that deploys a Q3 block and outputs; outputs only; scatter and
// repartition installs that capture; a run naming an id the shard never
// saw; a payload of the wrong arity; and deployments of a mixed-union
// tree and of a block reading a relation at another arity.
func FuzzServeRequest(f *testing.F) {
	blocks := q3WorkerBlocks(f)
	sh, r := fuzzShard()
	schema := r.Schema()
	payload := inet.EncodeRelationPlain(r)
	p, err := decodeRows(payload)
	if err != nil {
		f.Fatal(err)
	}
	snap, _ := sh.snapshot()
	watch := []string{blocks[0].stmts[0].LHS}
	outputs := []output{{src: "R", schema: schema}, {src: "R", schema: schema, split: true, keyPos: []int{1}}}
	deal := install{kind: installReplace, name: "S", schema: schema, from: []rows{p}}
	mixed, mixedSchemas := mixedUnion()
	wide := map[string]mring.Schema{}
	for name, s := range blocks[0].schemas {
		wide[name] = append(s.Clone(), "extra")
	}
	for _, seed := range []struct {
		op  byte
		msg message
	}{
		{opSetup, &setupReq{Index: 1, Workers: 2}},
		{opStage, &stageReq{installs: []install{deal}}},
		{opStage, &stageReq{installs: []install{deal}, block: blocks[0], deploy: blocks[0].deploy, watch: watch, outputs: outputs}},
		{opStage, &stageReq{outputs: outputs}},
		{opStage, &stageReq{installs: []install{{kind: installScatter, name: "R", schema: schema, from: []rows{p}, capture: true}}}},
		{opStage, &stageReq{installs: []install{{kind: installRepart, name: "S", schema: schema, from: []rows{p, nil}, capture: true}}}},
		{opStage, &stageReq{installs: []install{deal}, block: &block{id: 1 << 40}, watch: watch}},
		{opStage, &stageReq{installs: []install{{kind: installScatter, name: "R", schema: schema[:1], from: []rows{p}}}}},
		{opStage, &stageReq{block: &block{id: 2}, deploy: encodeDeploy(mixed, mixedSchemas)}},
		{opStage, &stageReq{block: &block{id: 3}, deploy: encodeDeploy(blocks[0].stmts, wide)}},
		{opSnapshot, nil},
		{opRestore, &snapshotMsg{Frags: snap}},
		{3, nil}, // the retired fetch op
		{6, nil}, // the retired retain op
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

// TestRefusedStageChangesNothing pins that a stage is refused whole,
// before its first install lands: a deploy blob that fails its check, a
// block id the shard never deployed, a payload whose arity differs from
// its install's schema, an install into a fragment of another arity, and
// more exchange pieces than maxPieces each fail a request whose first
// install alone would change a fragment, and leave every fragment
// byte-identical.
func TestRefusedStageChangesNothing(t *testing.T) {
	b := q3WorkerBlocks(t)[0]
	s := b.stmts[0]
	badDeploy := encodeDeploy([]dist.Stmt{{LHS: s.LHS, RHS: expr.Sum([]string{"nope"}, s.RHS)}}, b.schemas)
	sh, r := fuzzShard()
	schema := r.Schema()
	fresh := mring.NewRelation(schema)
	fresh.Add(tup(100, 1), 1)
	p, err := decodeRows(inet.EncodeRelationPlain(fresh))
	if err != nil {
		t.Fatal(err)
	}
	wide := mring.NewRelation(mring.Schema{"a", "b", "c"})
	wide.Add(tup(1, 2, 3), 1)
	w, err := decodeRows(inet.EncodeRelationPlain(wide))
	if err != nil {
		t.Fatal(err)
	}
	first := install{kind: installScatter, name: "R", schema: schema, from: []rows{p}}
	state := func() string { return string(marshal(&snapshotMsg{Frags: sh.node.snapshot()})) }
	before := state()
	for name, req := range map[string]*stageReq{
		"deploy fails its check": {installs: []install{first}, block: &block{id: 7}, deploy: badDeploy},
		"block not deployed":     {installs: []install{first}, block: &block{id: 1 << 40}},
		"payload arity":          {installs: []install{first, {kind: installReplace, name: "T", schema: schema[:1], from: []rows{p}}}},
		"fragment arity":         {installs: []install{first, {kind: installScatter, name: "R", schema: wide.Schema(), from: []rows{w}}}},
	} {
		if _, err := serve(sh, opStage, marshal(req)); err == nil {
			t.Errorf("%s: stage accepted", name)
		}
		if state() != before {
			t.Fatalf("%s: a refused stage changed the shard's fragments", name)
		}
	}
	// A split costs a slot per worker, so a stage may ask for at most
	// maxPieces of them.
	sh.workers = maxWorkers
	splits := make([]output, maxPieces/maxWorkers+1)
	for i := range splits {
		splits[i] = output{src: "R", schema: schema, split: true, keyPos: []int{0}}
	}
	if _, err := serve(sh, opStage, marshal(&stageReq{installs: []install{first}, outputs: splits})); err == nil {
		t.Error("too many pieces: stage accepted")
	}
	if state() != before {
		t.Fatal("too many pieces: a refused stage changed the shard's fragments")
	}
	sh.workers = 2
	// The first install alone does change them.
	if _, err := serve(sh, opStage, marshal(&stageReq{installs: []install{first}})); err != nil {
		t.Fatal(err)
	}
	if state() == before {
		t.Fatal("the first install changed nothing")
	}
}

// frame is one request or response on a scriptConn.
type frame struct {
	typ  byte
	body []byte
}

// scriptConn replays a fixed list of request frames into ServeConn and
// records its responses; Recv reports EOF once the script is spent.
type scriptConn struct {
	reqs, resps []frame
}

func (c *scriptConn) Send(typ byte, body []byte) error {
	c.resps = append(c.resps, frame{typ, append([]byte(nil), body...)})
	return nil
}

func (c *scriptConn) Recv() (byte, []byte, error) {
	if len(c.reqs) == 0 {
		return 0, nil, io.EOF
	}
	r := c.reqs[0]
	c.reqs = c.reqs[1:]
	return r.typ, r.body, nil
}

func (c *scriptConn) Close() error { return nil }

// TestRetiredOpRefused pins that the retired op bytes are now unknown
// ops: op 3, which once returned a fragment, and op 6, which once dropped
// every fragment outside a keep set. The worker answers each with an
// error response, and a stage reading R afterwards finds its fragment as
// it was.
func TestRetiredOpRefused(t *testing.T) {
	_, r := fuzzShard()
	p, err := decodeRows(inet.EncodeRelationPlain(r))
	if err != nil {
		t.Fatal(err)
	}
	deal := install{kind: installReplace, name: "R", schema: r.Schema(), from: []rows{p}}
	var keepNothing wire.Enc
	keepNothing.Strs(nil)
	var fetchR wire.Enc
	fetchR.Str("R")
	fetchR.Strs(r.Schema())
	conn := &scriptConn{reqs: []frame{
		{opSetup, marshal(&setupReq{Index: 0, Workers: 2})},
		{opStage, marshal(&stageReq{installs: []install{deal}})},
		{3, fetchR.B},
		{6, keepNothing.B},
		{opStage, marshal(&stageReq{outputs: []output{{src: "R", schema: r.Schema()}}})},
	}}
	if err := ServeConn(conn); err != nil {
		t.Fatal(err)
	}
	if len(conn.resps) != 5 {
		t.Fatalf("got %d responses to 5 requests", len(conn.resps))
	}
	for i, op := range []byte{3, 6} {
		want := fmt.Sprintf("cluster: unknown op %d", op)
		if got := conn.resps[2+i]; got.typ != opErr || string(got.body) != want {
			t.Fatalf("op %d answered %d %q, want an error response %q", op, got.typ, got.body, want)
		}
	}
	var got stageResp
	if conn.resps[4].typ != opOK {
		t.Fatalf("stage after the retired ops failed: %s", conn.resps[4].body)
	}
	if err := unmarshal(conn.resps[4].body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.outs) != 1 || len(got.outs[0]) != 1 || got.outs[0][0] == nil || got.outs[0][0].Len() != r.Len() {
		t.Fatalf("a retired op changed the shard: reading R gave %+v, want its %d rows", got.outs, r.Len())
	}
	got.outs[0][0].Foreach(func(tp mring.Tuple, m float64) {
		if want := r.Get(tp); m != want {
			t.Fatalf("a retired op changed the shard: R%v = %g, want %g", tp, m, want)
		}
	})
}
