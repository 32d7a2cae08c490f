package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	ivm "repro"
	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
	inet "repro/internal/net"
	"repro/internal/pool"
	"repro/internal/store"
	"repro/internal/tpch"
)

// tracedTx is the fixed script prefix the traced pass replays by default,
// so that every count repeats exactly for a seed.
const tracedTx = 300

// exactMetrics are the per-layer metrics that are counts made by the
// program: the same seed gives the same value on every run.
var exactMetrics = map[string]bool{
	"eval.lookups_per_tuple": true, "eval.scans_per_tuple": true, "eval.emits_per_tuple": true,
	"eval.indexops_per_tuple": true, "eval.state_scaling": true,
	"compile.state_tuples": true, "mring.state_tuples": true,
	"dist.stages_per_tx": true, "dist.shuffled_b_per_tuple": true,
	"pool.bytes_per_tuple": true, "net.bytes_per_tuple": true,
	"store.wal_b_per_tuple": true, "store.syncs_per_tx": true,
}

// span is one timed call the benchmark made into a layer. Start and End
// are wall-clock nanoseconds since the tracer started, CPU the process CPU
// time consumed between them; Parent indexes the span that was open when
// this one began, -1 for none; Tx is the script transaction.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns"`
	Parent int    `json:"parent"`
	Tx     int    `json:"tx"`
}

// tracer keeps spans in memory until the pass ends. A nil tracer records
// nothing, which is how the untraced replays run the same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func (t *tracer) begin(name string, tx int) int {
	if t == nil {
		return 0
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	// CPU holds the clock's reading at the start until end replaces it.
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), CPU: int64(cpuNow()), Parent: parent, Tx: tx})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.CPU = int64(cpuNow()) - s.CPU
	s.End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// us returns, per span of the name, its CPU time in microseconds; with
// self set, less the CPU time of its child spans.
func (t *tracer) us(name string, self bool) []float64 {
	child := make(map[int]int64)
	if self {
		for _, s := range t.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.CPU
			}
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.CPU-child[i])/1e3)
		}
	}
	return out
}

// wallUs returns, per span of the name, its elapsed microseconds.
func (t *tracer) wallUs(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	self := make(map[string]float64)
	for _, s := range t.spans {
		if _, done := self[s.Name]; !done {
			self[s.Name] = medianOr0(t.us(s.Name, true))
		}
	}
	buf, err := json.Marshal(map[string]any{"self_us_median": self, "spans": t.spans})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

func medianOr0(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

// script is the part of a workload's inputs the traced pass replays: the
// initial window and the first tracedTx transactions.
type script struct {
	query  tpch.Query
	win    map[string][]mring.Tuple
	txs    []txn
	tuples int
}

// newScript generates the script with every live window scaled.
func newScript(w workload, seed int64, scale, txs int) (*script, error) {
	q, err := tpch.QueryByName(w.query)
	if err != nil {
		return nil, err
	}
	live := make([]int, len(w.live))
	for i, n := range w.live {
		live[i] = n * scale
	}
	g := newGen(seed, w.tables, live, w.perTx)
	s := &script{query: q, win: g.window()}
	for i := 0; i < txs; i++ {
		tx := g.next()
		s.txs = append(s.txs, tx)
		s.tuples += len(tx)
	}
	return s, nil
}

func (s *script) perTuple(n int64) float64 { return float64(n) / float64(s.tuples) }

// bases builds the initial window as fresh relations.
func (s *script) bases() map[string]*mring.Relation {
	out := make(map[string]*mring.Relation, len(s.win))
	for table, rows := range s.win {
		r := mring.NewRelation(tpch.Schemas[table])
		for _, t := range rows {
			r.Add(t, 1)
		}
		out[table] = r
	}
	return out
}

// batches builds one transaction as fresh per-table relations, in script
// order: what Engine.Apply hands its backend.
func batches(tx txn) []compile.TableBatch {
	var out []compile.TableBatch
	for _, c := range tx {
		if len(out) == 0 || out[len(out)-1].Table != c.table {
			out = append(out, compile.TableBatch{Table: c.table, Batch: mring.NewRelation(tpch.Schemas[c.table])})
		}
		out[len(out)-1].Batch.Add(c.t, c.mult)
	}
	return out
}

func (s *script) compile() (*compile.Program, error) {
	return compile.Compile(s.query.Name, s.query.Def, s.query.BaseSchemas(), compile.DefaultOptions())
}

// engineRun is one replay of the script through Engine.Apply.
type engineRun struct {
	d         *deployment
	dir       string
	warmS     float64   // CPU seconds, like every time below that is not named wall
	applyUs   []float64 // per transaction
	atWarm    ivm.Stats // after Warm and the afterWarm hook
	atEnd     ivm.Stats
	allocB    uint64 // bytes and objects allocated inside the Apply calls
	allocs    uint64
	result    string
	failures  int
	attempted int
}

// replayEngine replays the script through the public engine of w.
// Transactions are built first, so the allocation counts cover Apply alone.
func (s *script) replayEngine(w workload, tmp string, tr *tracer, afterWarm func(*ivm.Engine) error) (*engineRun, error) {
	run := &engineRun{}
	var err error
	if run.dir, err = os.MkdirTemp(tmp, w.name+"-"); err != nil {
		return nil, err
	}
	wb, err := warmBatches(s.win)
	if err != nil {
		return nil, err
	}
	if run.d, err = w.open(run.dir); err != nil {
		return nil, err
	}
	eng := run.d.eng
	if w.feed {
		sink := &feedSink{acc: mring.NewRelation(eng.Program().TopView().Schema), tr: tr}
		if _, err := eng.Subscribe(sink.deliver); err != nil {
			return nil, err
		}
	}
	sw := startWatch()
	if err := eng.Warm(wb); err != nil {
		return nil, err
	}
	_, warm := sw.stop()
	run.warmS = warm.Seconds()
	if afterWarm != nil {
		if err := afterWarm(eng); err != nil {
			return nil, err
		}
	}
	run.atWarm = eng.Stats()

	txs := make([]*ivm.Tx, len(s.txs))
	for i, tx := range s.txs {
		id := tr.begin("ivm.tx_build", i)
		txs[i], err = buildTx(tx)
		tr.end(id)
		if err != nil {
			return nil, err
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i, tx := range txs {
		sw := startWatch()
		id := tr.begin("ivm.apply", i)
		err := eng.Apply(tx)
		tr.end(id)
		_, cpu := sw.stop()
		run.applyUs = append(run.applyUs, float64(cpu)/1e3)
		run.attempted++
		if err != nil {
			run.failures++
		}
	}
	runtime.ReadMemStats(&after)
	run.allocB, run.allocs = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	run.atEnd = eng.Stats()
	run.result = eng.Result().String()
	return run, nil
}

// execRun is one replay through the local backend's public entry.
type execRun struct {
	compileMs   float64
	stats       eval.Stats // of the transactions alone
	stateTuples int        // Executor.MemoryFootprint
	allTuples   int        // every view, transient ones included
	result      string
}

func (s *script) replayExecutor(tr *tracer) (*execRun, error) {
	run := &execRun{}
	sw := startWatch()
	prog, err := s.compile()
	if err != nil {
		return nil, err
	}
	run.compileMs = float64(sw.cpuTime()) / 1e6
	ex := compile.NewExecutor(prog)
	ex.InitFromBases(s.bases())
	atWarm := ex.Stats
	for i, tx := range s.txs {
		tbs := batches(tx)
		id := tr.begin("compile.exec", i)
		for _, tb := range tbs {
			c := tr.begin("compile.trigger."+tb.Table, i)
			ex.ApplyBatch(tb.Table, tb.Batch)
			tr.end(c)
		}
		tr.end(id)
	}
	run.stats = eval.Stats{Lookups: ex.Stats.Lookups - atWarm.Lookups, Scans: ex.Stats.Scans - atWarm.Scans,
		Emits: ex.Stats.Emits - atWarm.Emits, IndexOps: ex.Stats.IndexOps - atWarm.IndexOps}
	run.stateTuples = ex.MemoryFootprint()
	ex.ForEachViewAll(func(_ string, r *mring.Relation) { run.allTuples += r.Len() })
	run.result = ex.Result().String()
	return run, nil
}

// clusterRuntime is what the simulated and the process cluster share.
type clusterRuntime interface {
	WarmViews(map[string]*mring.Relation) error
	RunPartitionedBatch(*dist.DistProgram, *mring.Relation) (cluster.Metrics, error)
	ViewContents(string) *mring.Relation
	WorkerTimings() []cluster.WorkerTiming
	Close() error
}

// clusterRun is one replay through a cluster driver's public entry.
type clusterRun struct {
	compileMs float64 // partitioning choice + distributed compilation
	metrics   cluster.Metrics
	imbalance float64 // max/mean of the workers' compute
	result    string
}

// replayCluster replays the script on remoteWorkers workers: the simulated
// cluster, or with remote set the process cluster over loopback TCP.
func (s *script) replayCluster(remote bool, tr *tracer) (*clusterRun, error) {
	run := &clusterRun{}
	prog, err := s.compile()
	if err != nil {
		return nil, err
	}
	sw := startWatch()
	parts := dist.ChoosePartitioning(prog, tpch.PrimaryKeyRanks)
	dprogs := dist.CompileProgram(prog, parts, dist.O3)
	run.compileMs = float64(sw.cpuTime()) / 1e6

	var cl clusterRuntime
	name := "cluster.sim"
	if remote {
		name = "cluster.proc"
		var addrs []string
		for i := 0; i < remoteWorkers; i++ {
			srv, err := cluster.ListenAndServeWorker(inet.TCP{}, "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			defer srv.Close()
			addrs = append(addrs, srv.Addr())
		}
		if cl, err = cluster.Connect(inet.TCP{}, addrs, dist.ViewSchemas(prog), parts); err != nil {
			return nil, err
		}
	} else {
		cl = cluster.New(cluster.DefaultConfig(remoteWorkers), dist.ViewSchemas(prog), parts)
	}
	defer cl.Close()

	// The warm start of ivm's distributed backend: evaluate every view
	// locally, install the contents by placement.
	ex := compile.NewExecutor(prog)
	ex.InitFromBases(s.bases())
	contents := make(map[string]*mring.Relation)
	for _, v := range prog.Views {
		if !v.Transient && !expr.HasDelta(v.Def) {
			contents[v.Name] = ex.View(v.Name)
		}
	}
	if err := cl.WarmViews(contents); err != nil {
		return nil, err
	}
	for i, tx := range s.txs {
		tbs := batches(tx)
		id := tr.begin(name, i)
		for _, tb := range tbs {
			m, err := cl.RunPartitionedBatch(dprogs[tb.Table], tb.Batch)
			if err != nil {
				return nil, err
			}
			run.metrics.Add(m)
		}
		tr.end(id)
	}
	var sum, max time.Duration
	for _, wt := range cl.WorkerTimings() {
		sum += wt.Compute
		if wt.Compute > max {
			max = wt.Compute
		}
	}
	if sum > 0 {
		run.imbalance = float64(max) * remoteWorkers / float64(sum)
	}
	run.result = cl.ViewContents(prog.QueryName).String()
	return run, nil
}

// probeCodecs times each codec and storage function alone on the script's
// batches and adds its metrics to m.
func (s *script) probeCodecs(tmp string, m map[string]metric) error {
	var rels []compile.TableBatch // every per-table batch of the script
	var records []store.Record    // every transaction as its WAL record
	var payloads [][]byte         // every transaction as one wire payload
	for _, tx := range s.txs {
		rec := store.Record{Kind: store.RecTx}
		var payload []byte
		for _, tb := range batches(tx) {
			rels = append(rels, tb)
			plain := inet.EncodeRelationPlain(tb.Batch)
			rec.Tables = append(rec.Tables, store.TableFrag{Table: tb.Table, Buckets: tb.Batch.TableSize(), Payload: plain})
			payload = append(payload, plain...)
		}
		records = append(records, rec)
		payloads = append(payloads, payload)
	}
	perTuple := func(d time.Duration) float64 { return s.perTuple(int64(d)) } // ns

	// mring: fold each batch into the indexed live table it updates.
	state := s.bases()
	for _, r := range state {
		r.EnsureIndex([]int{0})
	}
	sw := startWatch()
	for _, tb := range rels {
		state[tb.Table].Merge(tb.Batch)
	}
	m["mring.fold_ns_per_tuple"] = metric{Value: perTuple(sw.cpuTime()), Unit: "ns"}

	// pool: the columnar form that scatter and gather move.
	var encoded [][]byte
	var bytes int
	sw = startWatch()
	for _, tb := range rels {
		encoded = append(encoded, pool.FromRelation(tb.Batch).Encode())
	}
	m["pool.encode_ns_per_tuple"] = metric{Value: perTuple(sw.cpuTime()), Unit: "ns"}
	sw = startWatch()
	for _, buf := range encoded {
		bytes += len(buf)
		if _, err := pool.Decode(buf); err != nil {
			return err
		}
	}
	m["pool.decode_ns_per_tuple"] = metric{Value: perTuple(sw.cpuTime()), Unit: "ns"}
	m["pool.bytes_per_tuple"] = metric{Value: s.perTuple(int64(bytes)), Unit: "B"}

	// net: the self-describing payload the process cluster frames.
	encoded, bytes = encoded[:0], 0
	sw = startWatch()
	for _, tb := range rels {
		encoded = append(encoded, inet.EncodePayload(tb.Batch, nil))
	}
	m["net.payload_encode_ns_per_tuple"] = metric{Value: perTuple(sw.cpuTime()), Unit: "ns"}
	sw = startWatch()
	for _, buf := range encoded {
		bytes += len(buf)
		if _, err := inet.DecodePayload(buf); err != nil {
			return err
		}
	}
	m["net.payload_decode_ns_per_tuple"] = metric{Value: perTuple(sw.cpuTime()), Unit: "ns"}
	m["net.bytes_per_tuple"] = metric{Value: s.perTuple(int64(bytes)), Unit: "B"}

	rtt, err := frameRTT(payloads)
	if err != nil {
		return err
	}
	m["net.frame_rtt_us"] = metric{Value: median(rtt), Unit: "us"}

	// store: the WAL append alone, under both flush policies.
	// The fsync'd append is a wait for the device, so it is read off the
	// wall clock; it is recorded, not compared.
	for _, policy := range []struct {
		name      string
		syncEvery int
	}{{"store.append_us.nofsync", -1}, {"store.append_us.fsync", 1}} {
		dir, err := os.MkdirTemp(tmp, "wal-")
		if err != nil {
			return err
		}
		st, _, err := store.Open(dir, store.Options{SyncEvery: policy.syncEvery})
		if err != nil {
			return err
		}
		var us []float64
		for _, rec := range records {
			sw := startWatch()
			err := st.Append(rec)
			wall, cpu := sw.stop()
			if policy.syncEvery == 1 {
				cpu = wall
			}
			us = append(us, float64(cpu)/1e3)
			if err != nil {
				st.Close()
				return err
			}
		}
		if err := st.Close(); err != nil {
			return err
		}
		m[policy.name] = metric{Value: median(us), Unit: "us"}
	}
	return nil
}

// frameRTT echoes each payload as one frame over a loopback connection and
// returns the round-trip times in microseconds.
func frameRTT(payloads [][]byte) ([]float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer l.Close()
	echoed := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer conn.Close()
		for {
			typ, payload, err := inet.ReadFrame(conn)
			if err == nil {
				err = inet.WriteFrame(conn, typ, payload)
			}
			if err != nil {
				echoed <- err // io.EOF once the client has closed
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return nil, err
	}
	var us []float64
	for _, p := range payloads {
		start := time.Now()
		err := inet.WriteFrame(conn, 1, p)
		if err == nil {
			_, _, err = inet.ReadFrame(conn)
		}
		if err != nil {
			conn.Close()
			return nil, err
		}
		us = append(us, float64(time.Since(start))/1e3)
	}
	conn.Close()
	<-echoed
	return us, nil
}

// runTraced is the per-layer pass of one workload. It replays the fixed
// script prefix through Engine.Apply, through each backend's public entry
// directly, and through each codec and storage function alone, recording
// spans around its own calls; metrics that are differences subtract the
// medians of two replays.
func runTraced(w workload, cfg runConfig) (*runResult, error) {
	res := &runResult{Workload: w.name, Seed: cfg.seed, Samples: cfg.tracedTx, Metrics: map[string]metric{}}
	m := res.Metrics
	s, err := newScript(w, cfg.seed, 1, cfg.tracedTx)
	if err != nil {
		return nil, err
	}
	tr := &tracer{t0: time.Now()}
	perTx := func(n int64) float64 { return float64(n) / float64(cfg.tracedTx) }

	// Engine replays: the workload as it is, untraced and traced, then
	// with the subscriber flipped and with durability flipped. The durable
	// one of them is abandoned without Close, to be recovered below.
	var ckptMs float64
	checkpoint := func(eng *ivm.Engine) error {
		sw := startWatch()
		err := eng.Checkpoint()
		ckptMs = float64(sw.cpuTime()) / 1e6
		return err
	}
	variant := func(v workload, tr *tracer, abandon bool) (*engineRun, error) {
		var hook func(*ivm.Engine) error
		if v.durable {
			hook = checkpoint
		}
		run, err := s.replayEngine(v, cfg.tmp, tr, hook)
		if err != nil {
			return nil, fmt.Errorf("engine replay (feed=%v durable=%v): %w", v.feed, v.durable, err)
		}
		res.Attempted += run.attempted
		res.Failed += run.failures
		if abandon {
			run.d.abandon()
		} else {
			run.d.close()
		}
		return run, nil
	}
	// The first replay of a process pays for growing the heap to its
	// working size (five times the CPU per transaction on q1_bulk), so one
	// is run and dropped before any that is compared with another.
	if _, err := variant(w, nil, false); err != nil {
		return nil, err
	}
	own, err := variant(w, nil, w.durable)
	if err != nil {
		return nil, err
	}
	traced, err := variant(w, tr, false)
	if err != nil {
		return nil, err
	}
	flipFeed, flipDur := w, w
	flipFeed.feed, flipDur.durable = !w.feed, !w.durable
	otherFeed, err := variant(flipFeed, nil, false)
	if err != nil {
		return nil, err
	}
	otherDur, err := variant(flipDur, nil, !w.durable)
	if err != nil {
		return nil, err
	}
	withFeed, withoutFeed := own, otherFeed
	if !w.feed {
		withFeed, withoutFeed = otherFeed, own
	}
	durable, plain := own, otherDur
	if !w.durable {
		durable, plain = otherDur, own
	}

	// Direct replays of the three backends.
	exec, err := s.replayExecutor(tr)
	if err != nil {
		return nil, fmt.Errorf("executor replay: %w", err)
	}
	sim, err := s.replayCluster(false, tr)
	if err != nil {
		return nil, fmt.Errorf("simulated cluster replay: %w", err)
	}
	proc, err := s.replayCluster(true, tr)
	if err != nil {
		return nil, fmt.Errorf("process cluster replay: %w", err)
	}
	// Every backend, through the engine or not, is bitwise the local one.
	for _, c := range []struct{ name, result string }{{"engine", own.result}, {"traced engine", traced.result},
		{"engine, subscriber flipped", otherFeed.result}, {"engine, durability flipped", otherDur.result},
		{"simulated cluster", sim.result}, {"process cluster", proc.result}} {
		res.check(c.result == exec.result, "%s result after %d transactions is not bitwise the local executor's", c.name, cfg.tracedTx)
	}

	ownUs := median(own.applyUs)
	direct := map[string]float64{"local": medianOr0(tr.us("compile.exec", false)),
		"dist": medianOr0(tr.us("cluster.sim", false)), "remote": medianOr0(tr.us("cluster.proc", false))}
	evalDelta := func(f func(eval.Stats) int64) float64 {
		return s.perTuple(f(own.atEnd.Stats) - f(own.atWarm.Stats))
	}

	m["ivm.apply_overhead_us_per_tx"] = metric{Value: ownUs - direct[w.backend], Unit: "us"}
	m["ivm.deliver_us_per_tx"] = metric{Value: median(withFeed.applyUs) - median(withoutFeed.applyUs), Unit: "us"}
	m["ivm.tx_build_us_per_tx"] = metric{Value: median(tr.us("ivm.tx_build", false)), Unit: "us"}
	m["ivm.alloc_b_per_tuple"] = metric{Value: s.perTuple(int64(own.allocB)), Unit: "B"}
	m["ivm.allocs_per_tuple"] = metric{Value: s.perTuple(int64(own.allocs)), Unit: "count"}
	m["ivm.warm_s"] = metric{Value: own.warmS, Unit: "s"}
	m["trace.overhead_frac"] = metric{Value: median(traced.applyUs)/ownUs - 1, Unit: "frac"}

	m["compile.compile_ms"] = metric{Value: exec.compileMs, Unit: "ms"}
	m["compile.exec_us_per_tx"] = metric{Value: direct["local"], Unit: "us"}
	for _, table := range q3Tables {
		m["compile.trigger_us."+table] = metric{Value: medianOr0(tr.us("compile.trigger."+table, false)), Unit: "us"}
	}
	m["compile.state_tuples"] = metric{Value: float64(exec.stateTuples), Unit: "count"}
	m["mring.state_tuples"] = metric{Value: float64(exec.allTuples), Unit: "count"}

	m["eval.lookups_per_tuple"] = metric{Value: evalDelta(func(s eval.Stats) int64 { return s.Lookups }), Unit: "count"}
	m["eval.scans_per_tuple"] = metric{Value: evalDelta(func(s eval.Stats) int64 { return s.Scans }), Unit: "count"}
	m["eval.emits_per_tuple"] = metric{Value: evalDelta(func(s eval.Stats) int64 { return s.Emits }), Unit: "count"}
	m["eval.indexops_per_tuple"] = metric{Value: evalDelta(func(s eval.Stats) int64 { return s.IndexOps }), Unit: "count"}

	m["dist.compile_ms"] = metric{Value: sim.compileMs, Unit: "ms"}
	m["dist.stages_per_tx"] = metric{Value: perTx(int64(sim.metrics.Stages)), Unit: "count"}
	m["dist.shuffled_b_per_tuple"] = metric{Value: s.perTuple(sim.metrics.ShuffledBytes), Unit: "B"}
	m["cluster.sim_us_per_tx"] = metric{Value: direct["dist"], Unit: "us"}
	m["cluster.proc_us_per_tx"] = metric{Value: direct["remote"], Unit: "us"}
	m["cluster.sim_wall_us_per_tx"] = metric{Value: medianOr0(tr.wallUs("cluster.sim")), Unit: "us"}
	m["cluster.proc_wall_us_per_tx"] = metric{Value: medianOr0(tr.wallUs("cluster.proc")), Unit: "us"}
	m["cluster.worker_imbalance"] = metric{Value: sim.imbalance, Unit: "ratio"}
	m["net.wire_overhead_us_per_tx"] = metric{Value: direct["remote"] - direct["dist"], Unit: "us"}

	// A full read of the result beside the writes.
	var readUs []float64
	for i := 0; i < 21; i++ {
		sw := startWatch()
		groups := 0
		own.d.eng.Result().Foreach(func(ivm.Tuple, float64) { groups++ })
		readUs = append(readUs, float64(sw.cpuTime())/1e3)
	}
	m["ivm.result_read_us"] = metric{Value: median(readUs), Unit: "us"}

	// Durability: the durable replay checkpointed after Warm, so its log
	// holds exactly the script, and it was abandoned. Reopen (checkpoint +
	// tail), close, which checkpoints, and reopen again (checkpoint alone).
	ds, dw := durable.atEnd.Durability, durable.atWarm.Durability
	m["store.durable_overhead_us_per_tx"] = metric{Value: median(durable.applyUs) - median(plain.applyUs), Unit: "us"}
	m["store.wal_b_per_tuple"] = metric{Value: s.perTuple(ds.Bytes - dw.Bytes), Unit: "B"}
	m["store.syncs_per_tx"] = metric{Value: perTx(ds.Syncs - dw.Syncs), Unit: "count"}
	m["store.checkpoint_ms"] = metric{Value: ckptMs, Unit: "ms"}
	m["store.checkpoint_mb"] = metric{Value: float64(dw.LastCheckpointBytes) / (1 << 20), Unit: "MB"}
	durW := w
	durW.durable = true
	reopen := func() (*deployment, float64, error) {
		sw := startWatch()
		d, err := durW.open(durable.dir)
		if err != nil {
			return nil, 0, fmt.Errorf("reopen durable directory: %w", err)
		}
		got := d.eng.Result().String()
		took := float64(sw.cpuTime()) / 1e3
		res.check(got == durable.result, "recovered result is not bitwise the abandoned engine's")
		return d, took, nil
	}
	withTail, tailUs, err := reopen()
	if err != nil {
		return nil, err
	}
	withTail.close()
	noTail, restoreUs, err := reopen()
	if err != nil {
		return nil, err
	}
	noTail.close()
	durable.d.close() // the abandoned engine's workers, if it has any
	m["store.replay_us_per_record"] = metric{Value: (tailUs - restoreUs) / float64(cfg.tracedTx), Unit: "us"}

	if err := s.probeCodecs(cfg.tmp, m); err != nil {
		return nil, fmt.Errorf("codec probes: %w", err)
	}

	// The complexity-regression number: evaluation work per changed tuple
	// at twice the live window over that at this one. 1 is update cost
	// independent of database size, 2 is linear in it.
	s2, err := newScript(w, cfg.seed, 2, cfg.tracedTx)
	if err != nil {
		return nil, err
	}
	exec2, err := s2.replayExecutor(nil)
	if err != nil {
		return nil, fmt.Errorf("executor replay at twice the window: %w", err)
	}
	m["eval.state_scaling"] = metric{Unit: "ratio",
		Value: s2.perTuple(exec2.stats.Scans+exec2.stats.Lookups) / s.perTuple(exec.stats.Scans+exec.stats.Lookups)}

	if err := tr.write(filepath.Join(cfg.out, "trace-"+w.name+".json")); err != nil {
		return nil, err
	}
	return res, nil
}
