package ivm

// Process-cluster gate: an engine on ivm.Remote — real TCP sockets, a
// worker server per worker — must be indistinguishable from the
// in-process simulated cluster at the same worker count. The goldens
// pin bitwise equality (exact float comparison, not approximate) of
// both the maintained results and the subscriber delta streams, because
// both deployments replay the identical mutation sequences in the
// identical orders. Run under -race (make test) this also exercises the
// connection fan-out paths for data races.

import (
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/dist"
	"repro/internal/mring"
	inet "repro/internal/net"
	"repro/internal/tpch"
)

// startWorkers launches n in-process worker servers on loopback TCP and
// returns their addresses; the servers stop at test cleanup.
func startWorkers(t *testing.T, n int) ([]string, []*cluster.WorkerServer) {
	t.Helper()
	addrs := make([]string, n)
	srvs := make([]*cluster.WorkerServer, n)
	for i := range addrs {
		srv, err := cluster.ListenAndServeWorker(inet.TCP{}, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
		srvs[i] = srv
	}
	return addrs, srvs
}

// requireBitwiseEqual fails unless the two relations hold exactly the
// same tuples with exactly equal (==, bitwise for our merge orders)
// values.
func requireBitwiseEqual(t *testing.T, label string, got, want *mring.Relation) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d groups, want %d\n got %v\nwant %v", label, got.Len(), want.Len(), got, want)
	}
	want.Foreach(func(tp mring.Tuple, m float64) {
		if g := got.Get(tp); g != m {
			t.Fatalf("%s: group %v = %g, want exactly %g", label, tp, g, m)
		}
	})
}

func TestGoldenProcessClusterParity(t *testing.T) {
	for _, name := range []string{"Q1", "Q3", "Q6"} {
		for _, workers := range []int{1, 8} {
			t.Run(name+"/workers="+string(rune('0'+workers)), func(t *testing.T) {
				q, err := tpch.QueryByName(name)
				if err != nil {
					t.Fatal(err)
				}
				bases := q.BaseSchemas()

				oracle, err := New(q.Name, q.Def, bases,
					Distributed(workers), KeyRanks(tpch.PrimaryKeyRanks))
				if err != nil {
					t.Fatal(err)
				}
				addrs, _ := startWorkers(t, workers)
				remote, err := New(q.Name, q.Def, bases,
					Remote(addrs...), KeyRanks(tpch.PrimaryKeyRanks))
				if err != nil {
					t.Fatal(err)
				}
				defer remote.Close()

				// Both engines stream their per-transaction deltas; the
				// deterministic String render pins worker-index-ordered
				// merges across real sockets.
				var oracleFeed, remoteFeed []string
				if _, err := oracle.Subscribe(func(d Delta) {
					oracleFeed = append(oracleFeed, d.String())
				}); err != nil {
					t.Fatal(err)
				}
				if _, err := remote.Subscribe(func(d Delta) {
					remoteFeed = append(remoteFeed, d.String())
				}); err != nil {
					t.Fatal(err)
				}

				goldenStream(t, q, func(table string, b *Batch) {
					if err := oracle.ApplyBatch(table, b); err != nil {
						t.Fatal(err)
					}
					if err := remote.ApplyBatch(table, b); err != nil {
						t.Fatal(err)
					}
				})

				requireBitwiseEqual(t, "process cluster result",
					remote.Result().rel, oracle.Result().rel)
				if len(remoteFeed) != len(oracleFeed) {
					t.Fatalf("feed lengths differ: remote %d, oracle %d", len(remoteFeed), len(oracleFeed))
				}
				for i := range oracleFeed {
					if remoteFeed[i] != oracleFeed[i] {
						t.Fatalf("delta #%d differs across transports\n got %s\nwant %s",
							i, remoteFeed[i], oracleFeed[i])
					}
				}
			})
		}
	}
}

// TestProcessClusterWarmParity pins warm loads (reference-installed and
// keyed splits) across the wire.
func TestProcessClusterWarmParity(t *testing.T) {
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	bases := q.BaseSchemas()
	oracle, err := New(q.Name, q.Def, bases, Distributed(4), KeyRanks(tpch.PrimaryKeyRanks))
	if err != nil {
		t.Fatal(err)
	}
	addrs, _ := startWorkers(t, 4)
	remote, err := New(q.Name, q.Def, bases, Remote(addrs...), KeyRanks(tpch.PrimaryKeyRanks))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	gen := tpch.NewGenerator(0.03, 11)
	warm := map[string]*Batch{}
	stream := tpch.NewStream(gen, q.Tables)
	for _, b := range stream.NextBatches(500) {
		if warm[b.Table] == nil {
			warm[b.Table] = &Batch{rel: mring.NewRelation(b.Rel.Schema())}
		}
		warm[b.Table].rel.Merge(b.Rel)
	}
	warmClone := map[string]*Batch{}
	for tbl, b := range warm {
		warmClone[tbl] = &Batch{rel: b.rel.Clone()}
	}
	if err := oracle.Warm(warm); err != nil {
		t.Fatal(err)
	}
	if err := remote.Warm(warmClone); err != nil {
		t.Fatal(err)
	}
	for _, b := range stream.NextBatches(500) {
		if err := oracle.ApplyBatch(b.Table, &Batch{rel: b.Rel.Clone()}); err != nil {
			t.Fatal(err)
		}
		if err := remote.ApplyBatch(b.Table, &Batch{rel: b.Rel}); err != nil {
			t.Fatal(err)
		}
	}
	requireBitwiseEqual(t, "warm-started process cluster", remote.Result().rel, oracle.Result().rel)
}

// TestProcessClusterWorkerKill pins the mid-transaction failure
// semantics: severing a worker mid-stream fails the whole transaction
// atomically on the driver — the failed Apply's partial captures are
// discarded, Result stays at the last committed state, and every later
// operation reports the poisoned cluster.
func TestProcessClusterWorkerKill(t *testing.T) {
	t.Run("subscribed", workerKill)
}

func workerKill(t *testing.T) {
	q, err := tpch.QueryByName("Q1")
	if err != nil {
		t.Fatal(err)
	}
	bases := q.BaseSchemas()
	oracle, err := New(q.Name, q.Def, bases, Distributed(2), KeyRanks(tpch.PrimaryKeyRanks))
	if err != nil {
		t.Fatal(err)
	}
	addrs, srvs := startWorkers(t, 2)
	remote, err := New(q.Name, q.Def, bases, Remote(addrs...), KeyRanks(tpch.PrimaryKeyRanks))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	var feed []string
	if _, err := remote.Subscribe(func(d Delta) { feed = append(feed, d.String()) }); err != nil {
		t.Fatal(err)
	}

	gen := tpch.NewGenerator(0.03, 5)
	stream := tpch.NewStream(gen, q.Tables)
	for r := 0; r < 3; r++ {
		for _, b := range stream.NextBatches(100) {
			if err := oracle.ApplyBatch(b.Table, &Batch{rel: b.Rel.Clone()}); err != nil {
				t.Fatal(err)
			}
			if err := remote.ApplyBatch(b.Table, &Batch{rel: b.Rel}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Seed the last-committed read cache, and pin pre-kill parity.
	requireBitwiseEqual(t, "pre-kill", remote.Result().rel, oracle.Result().rel)
	preKill := remote.Result().rel.Clone()
	feedLen := len(feed)

	// Sever worker 1 mid-stream and apply the next batch (from a fresh
	// stream, in case the main one is exhausted).
	srvs[1].Close()
	bs := tpch.NewStream(tpch.NewGenerator(0.03, 9), q.Tables).NextBatches(200)
	if len(bs) == 0 {
		t.Fatal("no batch available for the kill transaction")
	}
	err = remote.ApplyBatch(bs[0].Table, &Batch{rel: bs[0].Rel})
	if err == nil {
		t.Fatal("Apply succeeded after worker kill")
	}
	if len(feed) != feedLen {
		t.Fatalf("failed transaction leaked %d delta(s) to the subscriber", len(feed)-feedLen)
	}
	// Result stays at the pre-transaction commit.
	requireBitwiseEqual(t, "post-kill result", remote.Result().rel, preKill)

	// Every later transaction reports the poisoned cluster descriptively.
	err = remote.ApplyBatch(bs[0].Table, &Batch{rel: bs[0].Rel.Clone()})
	if err == nil {
		t.Fatal("Apply succeeded on a poisoned cluster")
	}
	if !strings.Contains(err.Error(), "results frozen at last commit") {
		t.Fatalf("poisoned Apply error not descriptive: %v", err)
	}
	requireBitwiseEqual(t, "poisoned result", remote.Result().rel, preKill)
}

// countingTCP is the TCP transport with every frame a listener's
// connections receive and send counted. With sever set, the connection
// that receives frame number *sever (counted from 1 across the
// listener's connections) is closed instead of served.
type countingTCP struct {
	inet.TCP
	recv, sent, sever *atomic.Int64
}

func (t countingTCP) Listen(addr string) (inet.Listener, error) {
	l, err := t.TCP.Listen(addr)
	return countingListener{l, t}, err
}

type countingListener struct {
	inet.Listener
	t countingTCP
}

func (l countingListener) Accept() (inet.Conn, error) {
	c, err := l.Listener.Accept()
	return countingConn{c, l.t}, err
}

type countingConn struct {
	inet.Conn
	t countingTCP
}

func (c countingConn) Send(typ byte, payload []byte) error {
	c.t.sent.Add(1) // before the write, so the driver cannot see the frame uncounted
	return c.Conn.Send(typ, payload)
}

func (c countingConn) Recv() (byte, []byte, error) {
	typ, payload, err := c.Conn.Recv()
	if err == nil {
		if n := c.t.recv.Add(1); c.t.sever != nil && n == c.t.sever.Load() {
			c.Conn.Close()
			return 0, nil, errors.New("connection severed")
		}
	}
	return typ, payload, err
}

// TestRemoteStageFault pins failure atomicity on both kinds of stage a
// process worker serves: worker 1's connection is severed on the frame of
// the stage that deploys Q3's lineitem block, and, on a second engine, on
// the first stage after that deploy which names the block by id alone.
// Either way Apply fails without a panic, Result stays at the
// pre-transaction commit, the subscriber sees no delta for the failed
// transaction, and the next Apply reports the poisoned cluster.
func TestRemoteStageFault(t *testing.T) {
	t.Run("deploy", func(t *testing.T) { stageFault(t, false) })
	t.Run("by id", func(t *testing.T) { stageFault(t, true) })
}

func stageFault(t *testing.T, deployed bool) {
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	tr := countingTCP{recv: new(atomic.Int64), sent: new(atomic.Int64), sever: new(atomic.Int64)}
	addrs := make([]string, 2)
	for i, lt := range []inet.Transport{inet.TCP{}, tr} {
		srv, err := cluster.ListenAndServeWorker(lt, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	e, err := New(q.Name, q.Def, q.BaseSchemas(), Remote(addrs...), KeyRanks(tpch.PrimaryKeyRanks))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var feed []string
	if _, err := e.Subscribe(func(d Delta) { feed = append(feed, d.String()) }); err != nil {
		t.Fatal(err)
	}
	stream := tpch.NewStream(tpch.NewGenerator(0.2, 5), q.Tables)
	warm := map[string]*Batch{}
	for _, b := range stream.NextBatches(800) {
		warm[b.Table] = &Batch{rel: b.Rel}
	}
	if err := e.Warm(warm); err != nil {
		t.Fatal(err)
	}
	byTable := map[string][]*mring.Relation{}
	for _, b := range stream.NextBatches(400) {
		byTable[b.Table] = append(byTable[b.Table], b.Rel)
	}
	for _, b := range stream.NextBatches(400) {
		byTable[b.Table] = append(byTable[b.Table], b.Rel)
	}
	next := func(table string) *Batch {
		t.Helper()
		if len(byTable[table]) == 0 {
			t.Fatalf("the stream has no %s batch left", table)
		}
		b := byTable[table][0]
		byTable[table] = byTable[table][1:]
		return &Batch{rel: b}
	}
	// Deploy the customer and orders blocks; in the by-id case the
	// lineitem blocks too.
	tables := []string{"customer", "orders"}
	if deployed {
		tables = append(tables, "lineitem")
	}
	for _, table := range tables {
		if err := e.ApplyBatch(table, next(table)); err != nil {
			t.Fatal(err)
		}
	}
	pre := e.Result().rel.Clone()
	if pre.Len() == 0 {
		t.Fatal("empty pre-transaction result: the test would prove nothing")
	}
	feedLen := len(feed)

	// The next frame worker 1 receives is the lineitem transaction's
	// first stage: its deal and the trigger's first block.
	tr.sever.Store(tr.recv.Load() + 1)
	if err := e.ApplyBatch("lineitem", next("lineitem")); err == nil {
		t.Fatal("Apply succeeded with worker 1 severed")
	}
	if tr.recv.Load() < tr.sever.Load() {
		t.Fatal("the failed Apply never reached worker 1")
	}
	if len(feed) != feedLen {
		t.Fatalf("the failed transaction leaked %d delta(s) to the subscriber", len(feed)-feedLen)
	}
	requireBitwiseEqual(t, "result after the failed transaction", e.Result().rel, pre)
	err = e.ApplyBatch("customer", next("customer"))
	if err == nil || !strings.Contains(err.Error(), "results frozen at last commit") {
		t.Fatalf("Apply after the failure returned %v, want the poison", err)
	}
	requireBitwiseEqual(t, "poisoned result", e.Result().rel, pre)
}

// roundTrips is the number of requests one worker serves for one
// transaction of a distributed program: one stage per distributed block, plus one before
// a leading local block that reads worker state (a gather or a
// repartition), plus one after the last distributed block when a local
// block there writes worker state (a scatter or a repartition). Every
// other transfer rides a block's stage.
func roundTrips(dp *dist.DistProgram) int64 {
	moves := func(b dist.Block, kinds ...dist.XformKind) bool {
		for _, s := range b.Stmts {
			if x, ok := s.RHS.(*dist.Xform); ok && slices.Contains(kinds, x.Kind) {
				return true
			}
		}
		return false
	}
	var n int64
	last := -1
	for i, b := range dp.Blocks {
		if b.Mode == dist.LDist {
			n++
			last = i
		}
	}
	if len(dp.Blocks) > 0 && dp.Blocks[0].Mode != dist.LDist && moves(dp.Blocks[0], dist.XGather, dist.XRepart) {
		n++
	}
	for _, b := range dp.Blocks[last+1:] {
		if moves(b, dist.XScatter, dist.XRepart) {
			n++
			break
		}
	}
	return n
}

// TestRemoteRoundTripsPerTransaction pins the process cluster's wire
// traffic to the compiled programs: counted on the workers' transport,
// every Q3 transaction on Remote(2) — changefeed capture included — costs
// each worker exactly the round trips its fused program implies, so the
// driver adds none of its own. It also pins what the programs imply: one
// round trip per distributed block of the Q1, Q3 and Q6 triggers (Q3's
// orders trigger joins the replicated M2 in place, in one), and 2 for a
// transaction updating all three Q3 tables, whose triggers alone would
// cost 4.
func TestRemoteRoundTripsPerTransaction(t *testing.T) {
	for name, want := range map[string]map[string]int64{
		"Q1": {"lineitem": 1},
		"Q3": {"customer": 2, "orders": 1, "lineitem": 1},
		"Q6": {"lineitem": 1},
	} {
		q, err := tpch.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(q.Name, q.Def, q.BaseSchemas(), Distributed(2), KeyRanks(tpch.PrimaryKeyRanks))
		if err != nil {
			t.Fatal(err)
		}
		for table, n := range want {
			if got := roundTrips(e.be.(*distBackend).dprogs[table]); got != n {
				t.Errorf("%s %s trigger: %d round trips per transaction, want %d", name, table, got, n)
			}
		}
	}
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	addrs := make([]string, workers)
	counts := make([]countingTCP, workers)
	for i := range addrs {
		counts[i] = countingTCP{recv: new(atomic.Int64), sent: new(atomic.Int64)}
		srv, err := cluster.ListenAndServeWorker(counts[i], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	e, err := New(q.Name, q.Def, q.BaseSchemas(), Remote(addrs...), KeyRanks(tpch.PrimaryKeyRanks))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Subscribe(func(Delta) {}); err != nil {
		t.Fatal(err)
	}
	db := e.be.(*distBackend)
	stream := tpch.NewStream(tpch.NewGenerator(0.03, 5), q.Tables)
	full := 0
	for tx := 0; tx < 12; tx++ {
		bs := stream.NextBatches(40)
		if len(bs) == 0 {
			break
		}
		apply := NewTx()
		tbs := make([]compile.TableBatch, len(bs))
		for i, b := range bs {
			if err := apply.Put(b.Table, &Batch{rel: b.Rel}); err != nil {
				t.Fatal(err)
			}
			tbs[i] = compile.TableBatch{Table: b.Table, Batch: b.Rel}
		}
		dp, err := db.txProgram(tbs)
		if err != nil {
			t.Fatal(err)
		}
		want := roundTrips(dp)
		if len(bs) == 3 {
			full++
			if want != 2 {
				t.Fatalf("tx %d: the program of %v implies %d round trips, want 2", tx, dp.Relations, want)
			}
		}
		before := make([]int64, workers)
		for i := range counts {
			before[i] = counts[i].recv.Load()
		}
		if err := e.Apply(apply); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			got := counts[i].recv.Load() - before[i]
			if got != want {
				t.Fatalf("tx %d: worker %d served %d requests, programs imply %d", tx, i, got, want)
			}
			if sent := counts[i].sent.Load(); sent != counts[i].recv.Load() {
				t.Fatalf("tx %d: worker %d answered %d of %d requests", tx, i, sent, counts[i].recv.Load())
			}
		}
	}
	if full == 0 {
		t.Fatal("no transaction updated all three tables")
	}
}

// TestRemoteOptionValidation pins the constructor contract.
func TestRemoteOptionValidation(t *testing.T) {
	q, err := tpch.QueryByName("Q6")
	if err != nil {
		t.Fatal(err)
	}
	bases := q.BaseSchemas()
	if _, err := New(q.Name, q.Def, bases, Remote()); err == nil {
		t.Fatal("Remote() with no addresses accepted")
	}
	if _, err := New(q.Name, q.Def, bases, Remote("127.0.0.1:1"), Distributed(2)); err == nil {
		t.Fatal("Remote combined with Distributed accepted")
	}
	// Unreachable workers fail construction, not the first Apply.
	if _, err := New(q.Name, q.Def, bases, Remote("127.0.0.1:1")); err == nil {
		t.Fatal("unreachable worker accepted")
	}
}

// TestRemoteFeedStream runs the keyed changefeed over its own socket:
// a FeedServer on the remote-backed engine streams deltas to a DialFeed
// subscriber, which must observe the same delta stream an in-process
// subscriber sees.
func TestRemoteFeedStream(t *testing.T) {
	q, err := tpch.QueryByName("Q1")
	if err != nil {
		t.Fatal(err)
	}
	bases := q.BaseSchemas()
	addrs, _ := startWorkers(t, 2)
	eng, err := New(q.Name, q.Def, bases, Remote(addrs...), KeyRanks(tpch.PrimaryKeyRanks))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	fs, err := eng.ServeFeed("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()

	var local []string
	if _, err := eng.Subscribe(func(d Delta) { local = append(local, d.String()) }); err != nil {
		t.Fatal(err)
	}
	sub, err := DialFeed(fs.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	gen := tpch.NewGenerator(0.03, 5)
	stream := tpch.NewStream(gen, q.Tables)
	n := 0
	for r := 0; r < 3; r++ {
		for _, b := range stream.NextBatches(200) {
			if err := eng.ApplyBatch(b.Table, &Batch{rel: b.Rel}); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	for i := 0; i < n; i++ {
		d, err := sub.Recv()
		if err != nil {
			t.Fatalf("delta #%d: %v", i, err)
		}
		if got := d.String(); got != local[i] {
			t.Fatalf("remote delta #%d differs\n got %s\nwant %s", i, got, local[i])
		}
	}
}

// TestDialFeedRejectsUnknownView pins the registry feed's error path.
func TestDialFeedRejectsUnknownView(t *testing.T) {
	q, err := tpch.QueryByName("Q6")
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRegistry(q.BaseSchemas())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register("q6", q.Def); err != nil {
		t.Fatal(err)
	}
	fs, err := r.ServeFeed("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, err := DialFeed(fs.Addr(), "nope"); err == nil {
		t.Fatal("unknown view subscription accepted")
	} else if !strings.Contains(err.Error(), "unknown registered view") {
		t.Fatalf("rejection not descriptive: %v", err)
	}
	sub, err := DialFeed(fs.Addr(), "q6")
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
}

// TestEngineClose pins the lifecycle contract: Close is idempotent,
// and Apply/Warm/Subscribe on a closed engine (or registry) return an
// error wrapping ErrClosed instead of touching freed backends.
func TestEngineClose(t *testing.T) {
	q, err := tpch.QueryByName("Q6")
	if err != nil {
		t.Fatal(err)
	}
	bases := q.BaseSchemas()
	eng, err := New(q.Name, q.Def, bases)
	if err != nil {
		t.Fatal(err)
	}
	gen := tpch.NewGenerator(0.03, 5)
	stream := tpch.NewStream(gen, q.Tables)
	for _, b := range stream.NextBatches(200) {
		if err := eng.ApplyBatch(b.Table, &Batch{rel: b.Rel}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	err = eng.ApplyBatch("lineitem", &Batch{rel: mring.NewRelation(tpch.Schemas[tpch.Lineitem])})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply after Close: %v, want ErrClosed", err)
	}
	if _, err := eng.Subscribe(func(Delta) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Subscribe after Close: %v, want ErrClosed", err)
	}
	// Result still serves the frozen state.
	if eng.Result().Len() == 0 {
		t.Fatal("Result empty after Close")
	}

	reg, err := NewRegistry(bases)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("q6", q.Def); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := reg.Apply(NewTx()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Registry.Apply after Close: %v, want ErrClosed", err)
	}
	if _, err := reg.Subscribe("q6", func(Delta) {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Registry.Subscribe after Close: %v, want ErrClosed", err)
	}
}
