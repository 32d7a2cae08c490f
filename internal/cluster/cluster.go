// Package cluster runs the synchronous large-scale processing platform of
// Sec. 4 and 6.2 (the paper ran Spark 1.6.1 on 100 servers): one driver
// orchestrates N stateful workers; processing a batch runs a sequence of
// statement blocks, each distributed block being one stage executed by all
// workers in parallel.
//
// There is one driver, Cluster, over two kinds of worker. New deploys
// in-process shards that receive rows by reference and copy them into
// fragments they own (the simulator); Connect reaches worker processes over a framed transport, each call one
// round trip of the protocol in proto.go served by the same Shard code on
// the far side. A transaction calls each worker once per step of a
// program: one step per distributed block, with the transfers of the
// driver statements around it riding its request and response.
// Everything else — block preparation, the step schedule, delta capture,
// worker-index-ordered merges, the cost model, checkpoints, failure
// poisoning — is the driver's, written once, so both deployments produce
// bitwise-identical results by construction.
//
// The driver really executes the compiled distributed programs over
// really-partitioned state and really-serialized shuffles, and combines the
// measured per-worker work with a virtual-time cost model for the platform
// terms the paper measures: per-stage scheduling/synchronization overhead
// that grows with the worker count, and shuffle time proportional to the
// maximum per-worker payload. DESIGN.md §3 documents this substitution.
package cluster

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
)

// Config holds the platform cost-model parameters. The defaults are
// calibrated so that an empty-work stage reproduces the paper's Q6
// synchronization latencies (65 ms at 50 workers to ~390 ms at 1000).
type Config struct {
	Workers int
	// SchedBase is the fixed per-stage scheduling cost.
	SchedBase time.Duration
	// SchedPerWorker is the per-worker closure-shipping/sync cost added
	// to every stage.
	SchedPerWorker time.Duration
	// NetLatency is charged once per communication round (transformer).
	NetLatency time.Duration
	// BandwidthBytesPerSec is the effective per-worker shuffle bandwidth
	// (serialize + transfer + deserialize).
	BandwidthBytesPerSec float64
	// ComputeNsPerOp converts evaluation operation counts into virtual
	// compute time. Zero disables modeled compute (real measured time is
	// used instead).
	ComputeNsPerOp float64
}

// DefaultConfig returns the calibrated platform model.
func DefaultConfig(workers int) Config {
	return Config{
		Workers:              workers,
		SchedBase:            30 * time.Millisecond,
		SchedPerWorker:       350 * time.Microsecond,
		NetLatency:           5 * time.Millisecond,
		BandwidthBytesPerSec: 100 << 20, // 100 MB/s effective per worker
		ComputeNsPerOp:       25,
	}
}

// Metrics reports the virtual cost of processing one batch.
type Metrics struct {
	// Latency is the virtual end-to-end batch processing time.
	Latency time.Duration
	// ComputeMax accumulates, per stage, the slowest worker's compute.
	ComputeMax time.Duration
	// ComputeSum is total compute across all workers (CPU-seconds).
	ComputeSum time.Duration
	// ShuffledBytes is the total serialized payload moved over the
	// network.
	ShuffledBytes int64
	// MaxWorkerShuffleBytes is the largest per-worker payload in any one
	// round (the term that bounds shuffle time).
	MaxWorkerShuffleBytes int64
	// Stages and Jobs echo the executed program structure.
	Stages int
	Jobs   int
}

// Add accumulates other into m (Latency and counters sum; the max field
// takes the max).
func (m *Metrics) Add(o Metrics) {
	m.Latency += o.Latency
	m.ComputeMax += o.ComputeMax
	m.ComputeSum += o.ComputeSum
	m.ShuffledBytes += o.ShuffledBytes
	if o.MaxWorkerShuffleBytes > m.MaxWorkerShuffleBytes {
		m.MaxWorkerShuffleBytes = o.MaxWorkerShuffleBytes
	}
	m.Stages += o.Stages
	m.Jobs += o.Jobs
}

// Cluster is one deployment: schemas and partitioning are fixed at
// construction (a Restore may adopt its checkpoint's placement); state
// persists across batches (workers are stateful).
//
// Failure semantics: the first worker error poisons the cluster (worker
// state may have partially advanced and cannot be trusted); every later
// operation returns the poisoning error, and ViewContents serves the last
// contents observed before the failure, so a mid-transaction failure
// leaves results at the pre-transaction state. In-process shards fail only
// on malformed programs; process workers also on transport errors.
type Cluster struct {
	cfg     Config
	driver  node
	workers []worker
	// rpc marks process workers: every call is a round trip, so every
	// fan-out runs concurrently. In-process shards run every call, stages
	// included, inline on the driver goroutine (DESIGN.md §4).
	rpc     bool
	schemas map[string]mring.Schema
	parts   dist.PartInfo
	// Stats accumulates evaluation statistics across all nodes and
	// batches. Per-worker contributions are merged in worker-index order
	// after each stage barrier, so the totals are deterministic even
	// though process workers run concurrently.
	Stats eval.Stats
	// watch maps each watched view (SetWatch) to the delta accumulated
	// since its last TakeWatchDelta, gathered deterministically:
	// driver-side folds for local/replicated views, per-worker folds
	// merged strictly in worker-index order for distributed views.
	// Several views can be watched at once (multi-view serving); an
	// empty map disables all capture.
	watch map[string]*mring.Relation
	// workerCompute and workerStages accumulate, per worker, the stage
	// compute and the number of distributed stages executed — the skew
	// signal WorkerTimings exports (merged-away maxima alone cannot show
	// which worker is hot).
	workerCompute []time.Duration
	workerStages  []int
	// blocks holds every block the driver has run, prepared once, keyed
	// by the program block it came from. Restore retires the programs the
	// blocks belong to, so it empties it (and the workers drop their
	// deployed copies); nextID is never reset, so a block id names one
	// block for the cluster's whole lifetime.
	blocks map[*dist.Block]*block
	nextID uint64
	// plans holds each program's plan, beside its blocks and retired with
	// them.
	plans map[*dist.DistProgram]*plan

	// err is the poison: set by the first failed operation, returned by
	// every operation after it.
	err error
	// committed caches each view's last healthily-observed contents, the
	// read path once the cluster is poisoned. A cached relation that
	// ViewContents handed out is shared: nothing mutates it, so the next
	// commit merges its delta into a copy (copy on write).
	committed map[string]*mring.Relation
	shared    map[string]bool
}

// WorkerTiming is one worker's accumulated share of distributed-stage
// work, as reported by WorkerTimings. Compute is the sum over stages of
// this worker's compute (the same per-worker term whose maximum feeds
// Metrics.ComputeMax); Stages counts the distributed stages the worker
// participated in. A max/mean ratio over Compute far above 1 is
// partition skew.
type WorkerTiming struct {
	Worker  int
	Compute time.Duration
	Stages  int
}

// New creates a simulated cluster of in-process shards with empty state.
// schemas names the views the cluster reads (SetWatch, ViewContents) and
// warm-loads (WarmViews); the schemas a program's blocks bind come from
// the program (dist.DistProgram.Schemas).
func New(cfg Config, schemas map[string]mring.Schema, parts dist.PartInfo) *Cluster {
	if cfg.Workers <= 0 {
		panic("cluster: need at least one worker")
	}
	ws := make([]worker, cfg.Workers)
	for i := range ws {
		ws[i] = &Shard{node: newNode(), workers: cfg.Workers}
	}
	return newCluster(cfg, ws, schemas, parts)
}

func newCluster(cfg Config, ws []worker, schemas map[string]mring.Schema, parts dist.PartInfo) *Cluster {
	return &Cluster{
		cfg:           cfg,
		driver:        newNode(),
		workers:       ws,
		schemas:       schemas,
		parts:         parts,
		workerCompute: make([]time.Duration, len(ws)),
		workerStages:  make([]int, len(ws)),
		blocks:        make(map[*dist.Block]*block),
		plans:         make(map[*dist.DistProgram]*plan),
		committed:     make(map[string]*mring.Relation),
		shared:        make(map[string]bool),
	}
}

// Workers returns the worker count.
func (c *Cluster) Workers() int { return len(c.workers) }

// Close releases every worker (severing process-worker connections).
// Reads of in-process state keep working afterwards.
func (c *Cluster) Close() error {
	var first error
	for _, w := range c.workers {
		if err := w.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// fail poisons the cluster with the first error and returns the poison.
func (c *Cluster) fail(err error) error {
	if c.err == nil {
		c.err = fmt.Errorf("cluster: failed, results frozen at last commit: %w", err)
	}
	return c.err
}

// each runs f for every worker and returns the lowest-index error. Calls
// to process workers run concurrently; results land in per-index slots the
// caller then processes in worker-index order — the merge-determinism
// invariant.
func (c *Cluster) each(f func(i int, w worker) error) error {
	if !c.rpc {
		for i, w := range c.workers {
			if err := f(i, w); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(c.workers))
	var wg sync.WaitGroup
	wg.Add(len(c.workers))
	for i, w := range c.workers {
		go func() {
			defer wg.Done()
			errs[i] = f(i, w)
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// WorkerTimings returns each worker's accumulated distributed-stage
// compute since the cluster started, in worker-index order. Callers
// diff consecutive snapshots to get per-transaction skew.
func (c *Cluster) WorkerTimings() []WorkerTiming {
	out := make([]WorkerTiming, len(c.workers))
	for i := range out {
		out[i] = WorkerTiming{Worker: i, Compute: c.workerCompute[i], Stages: c.workerStages[i]}
	}
	return out
}

// SetWatch makes views the watched set: every maintenance write to a
// watched view is captured as a per-batch delta. A view that stays
// watched keeps its accumulator, a newly watched one starts empty, and
// every other view stops capturing. Each view must be one of the schemas
// the cluster was constructed with.
func (c *Cluster) SetWatch(views []string) {
	for name := range c.watch {
		if !slices.Contains(views, name) {
			delete(c.watch, name)
		}
	}
	for _, name := range views {
		s, ok := c.schemas[name]
		if !ok {
			panic(fmt.Sprintf("cluster: cannot watch unknown view %q", name))
		}
		if c.watch == nil {
			c.watch = make(map[string]*mring.Relation, len(views))
		}
		if c.watch[name] == nil {
			c.watch[name] = mring.NewRelation(s)
		}
	}
}

// UnwatchView stops delta capture for one view; once the last watched
// view is removed, batches run with zero capture overhead again.
func (c *Cluster) UnwatchView(name string) {
	delete(c.watch, name)
}

// TakeWatchDelta returns the delta accumulated for the named view since
// the last call (its per-group change) and resets the accumulator. Nil
// when the view is not watched. On a healthy cluster the delta also
// advances the view's last-committed read cache, so take deltas at
// commit points only — or from a poisoned cluster, to discard a failed
// transaction's capture.
func (c *Cluster) TakeWatchDelta(name string) *mring.Relation {
	d := c.watch[name]
	if d == nil {
		return nil
	}
	c.watch[name] = mring.NewRelation(c.schemas[name])
	if r := c.committed[name]; r != nil && c.err == nil {
		if c.shared[name] {
			r = r.Clone()
			c.committed[name], c.shared[name] = r, false
		}
		r.Merge(d)
	}
	return d
}

// watchDriverSide reports whether a view's canonical maintenance writes
// happen at the driver (local and replicated views; for a replicated
// view only the driver mirror is captured — every worker replays the
// identical delta) rather than on the workers (distributed views,
// captured per worker and merged in index order).
func (c *Cluster) watchDriverSide(name string) bool {
	loc, ok := c.parts[name]
	return !ok || loc.Kind != dist.LDist
}

// driverSinkFor returns the capture sink for a driver-side fold into
// lhs, nil when lhs is unwatched or worker-maintained.
func (c *Cluster) driverSinkFor(lhs string) *mring.Relation {
	d := c.watch[lhs]
	if d == nil || !c.watchDriverSide(lhs) {
		return nil
	}
	return d
}

// workerWatches lists, sorted, the watched worker-maintained views a
// block writes: the views whose change sinks its stage returns.
func (c *Cluster) workerWatches(stmts []dist.Stmt) []string {
	var names []string
	for name := range c.watch {
		if c.watchDriverSide(name) {
			continue
		}
		for _, s := range stmts {
			if s.LHS == name {
				names = append(names, name)
				break
			}
		}
	}
	sort.Strings(names)
	return names
}

// captureReplace folds the replacement of a watched view copy (old
// contents swapped for cur) into that view's batch delta: current
// contents in, old contents out.
func (c *Cluster) captureReplace(name string, cur, old rows) {
	d := c.watch[name]
	if cur != nil {
		cur.Foreach(d.Add)
	}
	if old != nil {
		old.Foreach(func(t mring.Tuple, m float64) { d.Add(t, m*-1) })
	}
}

// WarmViews installs initial contents for materialized views before
// streaming (the distributed warm start): each view's relation is placed
// according to its canonical location — driver copy for local views,
// key-partitioned worker fragments (dealt by the platform placement
// function, dist.PlaceIndex) for distributed views, and a full replica
// per worker plus the driver mirror for replicated views. Call before
// the first batch. Every worker copies its rows into its own fragment;
// a local or replicated view's relation becomes the driver's copy, owned
// by the cluster afterwards.
func (c *Cluster) WarmViews(contents map[string]*mring.Relation) error {
	if c.err != nil {
		return c.err
	}
	// Every view's install rides one stage per worker.
	reqs := make([]stageReq, len(c.workers))
	for name, rel := range contents {
		if rel == nil {
			continue
		}
		schema, ok := c.schemas[name]
		if !ok {
			return fmt.Errorf("cluster: warm load of unknown view %q", name)
		}
		loc := c.parts[name]
		frags := make([]rows, len(c.workers))
		switch {
		case loc.Kind == dist.LLocal:
			c.driver.rels[name] = rel
			continue
		case loc.Kind == dist.LIndiff:
			c.driver.rels[name] = rel
			for i := range frags {
				frags[i] = rel
			}
		case loc.Keyed():
			keyPos, err := keyPositions(schema, loc.Key)
			if err != nil {
				return fmt.Errorf("cluster: warm load of %q: %w", name, err)
			}
			frags = split(rel, keyPos, len(c.workers))
		default:
			return fmt.Errorf("cluster: cannot warm load view %q located %v", name, loc)
		}
		for i := range reqs {
			reqs[i].installs = append(reqs[i].installs, install{kind: installReplace, name: name, schema: schema, from: frags[i : i+1]})
		}
	}
	if len(reqs[0].installs) == 0 {
		return nil
	}
	if _, err := c.stage(reqs); err != nil {
		return c.fail(err)
	}
	return nil
}

// ready checks a program can run: it exists and the cluster is healthy.
func (c *Cluster) ready(prog *dist.DistProgram) error {
	if prog == nil {
		return fmt.Errorf("cluster: nil distributed program (unknown relation?)")
	}
	return c.err
}

// RunPartitionedBatch runs a one-table program over a batch: the
// one-table case of RunPartitionedTx.
func (c *Cluster) RunPartitionedBatch(prog *dist.DistProgram, batch *mring.Relation) (Metrics, error) {
	return c.RunPartitionedTx(prog, []*mring.Relation{batch})
}

// RunPartitionedTx runs a transaction's program (dist.FuseTx) over its
// batches, batches[i] updating prog.Relations[i]. Each worker ingests its
// share of the stream as its fragment of each delta (Sec. 6.2): a batch
// is dealt by its delta's location in prog.Parts — by dist.PlaceIndex on
// the key when keyed, round-robin from worker 0 when Random — and each
// worker refills its fragment with the rows in deal order, so the
// fragment's layout is the same whichever kind of worker holds it. The
// dealt rows alias the batches' storage, which nothing mutates until the
// run returns; the batches are left as they were.
func (c *Cluster) RunPartitionedTx(prog *dist.DistProgram, batches []*mring.Relation) (Metrics, error) {
	if err := c.ready(prog); err != nil {
		return Metrics{}, err
	}
	if len(batches) != len(prog.Relations) {
		return Metrics{}, fmt.Errorf("cluster: %d batches for a program updating %v", len(batches), prog.Relations)
	}
	deals := make([][]rows, len(batches))
	for k, batch := range batches {
		delta := eval.DeltaName(prog.Relations[k])
		if loc := prog.Parts[delta]; loc.Keyed() {
			keyPos, err := keyPositions(prog.Schemas[delta], loc.Key)
			if err != nil {
				return Metrics{}, fmt.Errorf("cluster: deal of %s: %w", delta, err)
			}
			deals[k] = split(batch, keyPos, len(c.workers))
		} else {
			deals[k] = dealRoundRobin(batch, len(c.workers))
		}
	}
	return c.runBlocks(prog, batches, deals)
}

// dealRoundRobin deals a batch's rows over n workers in turn, the first
// row to worker 0.
func dealRoundRobin(batch *mring.Relation, n int) []rows {
	deals := make([]rowList, n)
	for i := range deals {
		deals[i] = make(rowList, 0, batch.Len()/n+1)
	}
	i := 0
	batch.Foreach(func(t mring.Tuple, m float64) {
		deals[i%n] = append(deals[i%n], row{t, m})
		i++
	})
	frags := make([]rows, n)
	for i := range deals {
		frags[i] = deals[i]
	}
	return frags
}

// keyPositions resolves partition-key columns to their positions in a
// schema.
func keyPositions(schema mring.Schema, key mring.Schema) ([]int, error) {
	keyPos := make([]int, len(key))
	for i, k := range key {
		if keyPos[i] = schema.Index(k); keyPos[i] < 0 {
			return nil, fmt.Errorf("key column %q not in schema %v", k, schema)
		}
	}
	return keyPos, nil
}

// runBlocks runs a program, with deals[k][i] of batches[k] dealt to
// worker i, as its plan's steps: the deals and the installs of each
// stretch of driver statements ride the next step's request, and the
// worker reads of driver statements ride the previous step's response, so
// each worker serves one round trip per step.
func (c *Cluster) runBlocks(prog *dist.DistProgram, batches []*mring.Relation, deals [][]rows) (Metrics, error) {
	var m Metrics
	m.Stages = prog.Stages()
	m.Jobs = prog.Jobs()
	p, err := c.planOf(prog)
	if err != nil {
		return m, c.fail(err)
	}
	r := &run{plan: p, reqs: make([]stageReq, len(c.workers))}
	for k, rel := range prog.Relations {
		deal := deals[k]
		r.queue(install{kind: installReplace, name: eval.DeltaName(rel), schema: batches[k].Schema()}, func(i int) []rows { return deal[i : i+1] })
	}
	for i, b := range p.blocks {
		if prog.Blocks[i].Mode == dist.LDist {
			err = c.runDistBlock(r, b, &m)
		} else {
			err = c.runLocalBlock(r, b, p.xfers[i], &m)
		}
		if err != nil {
			// Installs may have landed on a subset of workers, so worker
			// state can no longer be trusted.
			return m, c.fail(err)
		}
	}
	if r.sent < len(p.outputs) {
		// The closing step: installs of driver statements after the last
		// distributed block.
		if err := c.send(r, nil); err != nil {
			return m, c.fail(err)
		}
	}
	return m, nil
}

// prepare returns a program block prepared for execution, preparing it
// the first time the driver meets it: the program's schemas of the names
// its statements read and write, its statements checked and lowered
// (newBlock), a fresh id, and — for a distributed block on process
// workers — its deploy blob. A block stays prepared until a Restore
// retires its program, so every program a caller runs in between is held
// once, however often it runs.
func (c *Cluster) prepare(prog *dist.DistProgram, b *dist.Block) (*block, error) {
	if p := c.blocks[b]; p != nil {
		return p, nil
	}
	schemas := make(map[string]mring.Schema)
	bind := func(name string) {
		if s, ok := prog.Schemas[name]; ok {
			schemas[name] = s
		}
	}
	for _, s := range b.Stmts {
		for name := range s.Reads() {
			bind(name)
		}
		bind(s.LHS)
	}
	c.nextID++
	p, err := newBlock(c.nextID, b.Mode, b.Stmts, schemas)
	if err != nil {
		return nil, err
	}
	if c.rpc && b.Mode == dist.LDist {
		p.deploy = encodeDeploy(p.stmts, p.schemas)
	}
	c.blocks[b] = p
	return p, nil
}

// plan is a program scheduled as steps, each one stage call per worker: a
// step per distributed block, carrying the installs queued since the last
// step, plus transfer-only steps where no block's step can carry a
// transfer. A cluster plans each program once, beside its blocks.
type plan struct {
	// blocks holds the program's blocks, prepared.
	blocks []*block
	// xfers holds, per local block, its statements' transformers resolved
	// (nil for compute statements).
	xfers [][]*transfer
	// outputs holds, per step in sending order, the worker reads its
	// response carries.
	outputs [][]output
}

// transfer is one transformer statement, resolved once per plan.
type transfer struct {
	kind                 dist.XformKind
	src, lhs             string
	srcSchema, lhsSchema mring.Schema
	keyPos               []int
	read                 readKind
	// snapshot marks a scatter whose source a driver statement writes
	// before the next step lands it: it ships a copy taken now. Any other
	// scatter ships the driver relation itself, or pieces aliasing it, in
	// process.
	snapshot bool
}

// readKind says where a gather or repartition reads its source.
type readKind uint8

const (
	// readOutput takes the next output of the last step's response.
	readOutput readKind = iota
	// readStep first sends a transfer-only step — no step sent yet can
	// carry the read, or a scatter since the last step wrote its source —
	// and takes that step's first output.
	readStep
	// readChained rebuilds the source from the pieces the driver routed
	// to it since the last step, as the workers will.
	readChained
)

// planOf returns a program's plan, planning it the first time. A
// repartition's target is a chained source until the next step; a
// scatter's target cannot be read before the next step, so a read of it
// sends one.
func (c *Cluster) planOf(prog *dist.DistProgram) (*plan, error) {
	if p := c.plans[prog]; p != nil {
		return p, nil
	}
	p := &plan{blocks: make([]*block, len(prog.Blocks)), xfers: make([][]*transfer, len(prog.Blocks))}
	// open: a step has gone out whose response can carry reads; moved: the
	// targets installed since it, true when the driver holds their pieces;
	// scattered: the scatters queued since it, by source; queued: installs
	// wait for a step.
	open, queued := false, false
	moved := map[string]bool{}
	scattered := map[string][]*transfer{}
	step := func() {
		p.outputs = append(p.outputs, nil)
		open, queued = true, false
		clear(moved)
		clear(scattered)
	}
	written := func(name string) {
		for _, t := range scattered[name] {
			t.snapshot = true
		}
	}
	for i := range prog.Blocks {
		b := &prog.Blocks[i]
		var err error
		if p.blocks[i], err = c.prepare(prog, b); err != nil {
			return nil, err
		}
		if b.Mode == dist.LDist {
			step()
			continue
		}
		p.xfers[i] = make([]*transfer, len(b.Stmts))
		for j, s := range b.Stmts {
			x, ok := s.RHS.(*dist.Xform)
			if !ok {
				written(s.LHS)
				continue
			}
			t, err := resolve(prog.Schemas, s.LHS, x)
			if err != nil {
				return nil, err
			}
			if t.kind != dist.XScatter {
				routed, installed := moved[t.src]
				switch {
				case routed:
					t.read = readChained
				case !open || installed:
					step()
					t.read = readStep
				}
				if t.read != readChained {
					last := &p.outputs[len(p.outputs)-1]
					*last = append(*last, output{src: t.src, schema: t.srcSchema, split: t.kind == dist.XRepart, keyPos: t.keyPos})
				}
			}
			switch {
			case t.kind == dist.XGather:
				written(t.lhs)
			case t.kind == dist.XScatter:
				scattered[t.src] = append(scattered[t.src], t)
				fallthrough
			default:
				moved[t.lhs] = t.kind == dist.XRepart
				queued = true
			}
			p.xfers[i][j] = t
		}
	}
	if queued {
		step() // the closing step
	}
	c.plans[prog] = p
	return p, nil
}

// resolve prepares one transformer statement of a prepared block (its
// relations checked): its source, its schemas and its key positions in
// the source.
func resolve(schemas map[string]mring.Schema, lhs string, x *dist.Xform) (*transfer, error) {
	src := x.Body.(*expr.Rel)
	t := &transfer{kind: x.Kind, src: eval.RelEnvName(src), lhs: lhs}
	t.srcSchema, t.lhsSchema = schemas[t.src], schemas[lhs]
	t.keyPos = make([]int, len(x.Key))
	for i, k := range x.Key {
		p := src.Cols.Index(k)
		if p < 0 {
			return nil, fmt.Errorf("cluster: key column %q not in %s(%v)", k, t.src, src.Cols)
		}
		t.keyPos[i] = p
	}
	return t, nil
}

// run is one program run in flight on the driver.
type run struct {
	plan *plan
	// sent counts the steps sent.
	sent int
	// reqs holds, per worker, the next step's request as the driver
	// statements fill it.
	reqs []stageReq
	// captures names, per queued install, the watched view its
	// replacement folds into ("" for none).
	captures []string
	// routed holds each repartition queued for the next step as pieces
	// by target, then sender: the chained transfers' source.
	routed map[string][][]rows
	// resps holds the last step's responses; read counts the outputs the
	// driver statements have taken from them.
	resps []stageResp
	read  int
}

// queue adds one install per worker to the next step, filled from from(i)
// on worker i.
func (r *run) queue(in install, from func(i int) []rows) {
	for i := range r.reqs {
		in.from = from(i)
		r.reqs[i].installs = append(r.reqs[i].installs, in)
	}
	name := ""
	if in.capture {
		name = in.name
	}
	r.captures = append(r.captures, name)
}

// send runs the next step on every worker: its queued installs, then b
// (nil: none), then its outputs. The installs' replacements fold into
// their watched views first, in install order and worker-index order
// within each, then b's sinks in worker-index order.
func (c *Cluster) send(r *run, b *block) error {
	var watch []string
	if b != nil {
		watch = c.workerWatches(b.stmts)
	}
	outputs := r.plan.outputs[r.sent]
	r.sent++
	for i := range r.reqs {
		r.reqs[i].block, r.reqs[i].watch, r.reqs[i].outputs = b, watch, outputs
	}
	resps, err := c.stage(r.reqs)
	if err != nil {
		return err
	}
	for k, name := range r.captures {
		if name == "" {
			continue
		}
		for i, resp := range resps {
			if k >= len(resp.replaced) {
				return fmt.Errorf("cluster: worker %d returned no replacement of %s", i, name)
			}
			c.captureReplace(name, resp.replaced[k][0], resp.replaced[k][1])
		}
	}
	for _, name := range watch {
		dst := c.watch[name]
		for i := range resps {
			if s := resps[i].sinks[name]; s != nil {
				s.Foreach(dst.Add)
			}
		}
	}
	clear(r.reqs)
	r.captures, r.routed = nil, nil
	r.resps, r.read = resps, 0
	return nil
}

// stage runs one step's requests, one per worker, and returns the
// responses, each checked to carry one entry per output and one piece
// per worker for each split output. Every exchange with the workers but
// setup and checkpoints is a stage: a program step, a warm load, a view
// read. Process workers serve theirs concurrently, each encoding its
// pieces into its response before anything else runs. In-process shards
// land each install on every shard before the next install, and every
// install before any shard runs its block: a piece aliases the fragment
// it was dealt from, which a later install or block on its sender may
// change, and worker state is shared-nothing, so the order is otherwise
// invisible.
func (c *Cluster) stage(reqs []stageReq) ([]stageResp, error) {
	n := len(c.workers)
	resps := make([]stageResp, n)
	if c.rpc {
		if err := c.each(func(i int, w worker) (err error) {
			resps[i], err = w.stage(&reqs[i])
			return err
		}); err != nil {
			return nil, err
		}
	} else {
		for k := range reqs[0].installs {
			for i, w := range c.workers {
				w.(*Shard).land(&reqs[i], k, &resps[i])
			}
		}
		for i, w := range c.workers {
			if err := w.(*Shard).finish(&reqs[i], &resps[i]); err != nil {
				return nil, err
			}
		}
	}
	for i := range resps {
		if err := c.checkOutputs(i, &reqs[i], &resps[i]); err != nil {
			return nil, err
		}
	}
	return resps, nil
}

// checkOutputs checks that worker i answered each of req's outputs with
// one fragment, or with one piece per worker for a split output.
func (c *Cluster) checkOutputs(i int, req *stageReq, resp *stageResp) error {
	if len(resp.outs) != len(req.outputs) {
		return fmt.Errorf("cluster: worker %d returned %d outputs for %d", i, len(resp.outs), len(req.outputs))
	}
	for k, o := range req.outputs {
		want := 1
		if o.split {
			want = len(c.workers)
		}
		if len(resp.outs[k]) != want {
			return fmt.Errorf("cluster: worker %d returned %d pieces of %s for %d", i, len(resp.outs[k]), o.src, want)
		}
	}
	return nil
}

// runLocalBlock executes driver-side statements; transformer statements
// trigger data movement. All transformers of a block share one
// communication round (the code-generation batching of Sec. 4.4), and so
// do they on the wire: their worker reads rode the last step's response,
// and their installs ride the next step's request.
func (c *Cluster) runLocalBlock(r *run, b *block, xfers []*transfer, m *Metrics) error {
	rounds := 0
	var roundBytes int64
	var maxWorkerBytes int64
	computeStart := time.Now()
	var st eval.Stats
	for j, s := range b.stmts {
		if t := xfers[j]; t != nil {
			bytes, maxPer, err := c.applyXform(r, t)
			if err != nil {
				return err
			}
			rounds = 1
			roundBytes += bytes
			if maxPer > maxWorkerBytes {
				maxWorkerBytes = maxPer
			}
			continue
		}
		st.Add(runStmtOn(&c.driver, b, s, c.driverSinkFor(s.LHS)))
	}
	c.Stats.Add(st)
	compute := c.computeTime(st.Lookups+st.Scans+st.Emits, time.Since(computeStart))
	m.Latency += compute
	m.ComputeMax += compute
	m.ComputeSum += compute
	if rounds > 0 {
		m.Latency += c.shuffleTime(maxWorkerBytes)
		m.ShuffledBytes += roundBytes
		if maxWorkerBytes > m.MaxWorkerShuffleBytes {
			m.MaxWorkerShuffleBytes = maxWorkerBytes
		}
	}
	return nil
}

// runDistBlock executes one stage: every worker runs the block's
// statements over its fragments (process workers concurrently), and the
// stage closes when all have answered (the platform's synchronous-round
// model). Worker state is shared-nothing, and the schemas a block binds
// are fixed when it is prepared, before the first fan-out, so the workers
// race on nothing; results are bit-identical to sequential execution because
// each worker's own statement order is unchanged and per-worker outcomes
// — stats, compute, and the change sinks of watched views — are merged in
// worker-index order after the barrier. Stage latency is the scheduling
// overhead plus the slowest worker's compute.
func (c *Cluster) runDistBlock(r *run, b *block, m *Metrics) error {
	if err := c.send(r, b); err != nil {
		return err
	}
	var maxCompute, sumCompute time.Duration
	for i, s := range r.resps {
		c.Stats.Add(s.stats)
		compute := c.computeTime(s.stats.Lookups+s.stats.Scans+s.stats.Emits, s.compute)
		c.workerCompute[i] += compute
		c.workerStages[i]++
		sumCompute += compute
		if compute > maxCompute {
			maxCompute = compute
		}
	}
	sched := c.cfg.SchedBase + time.Duration(c.cfg.Workers)*c.cfg.SchedPerWorker
	m.Latency += sched + maxCompute
	m.ComputeMax += maxCompute
	m.ComputeSum += sumCompute
	return nil
}

func (c *Cluster) computeTime(ops int64, measured time.Duration) time.Duration {
	if c.cfg.ComputeNsPerOp > 0 {
		return time.Duration(float64(ops) * c.cfg.ComputeNsPerOp)
	}
	return measured
}

// shuffleTime is the cost of one communication round whose largest
// per-worker payload is maxBytes.
func (c *Cluster) shuffleTime(maxBytes int64) time.Duration {
	d := c.cfg.NetLatency
	if c.cfg.BandwidthBytesPerSec > 0 {
		d += time.Duration(float64(maxBytes) / c.cfg.BandwidthBytesPerSec * float64(time.Second))
	}
	return d
}

// applyXform performs the data movement of one transformer statement and
// returns (total bytes moved, max per-worker bytes). A transformer whose
// target is the watched view (the re-evaluation policy's `Q := ...`
// installs) contributes its replacement diff to the batch delta: at the
// driver for a gathered local view, per worker — replayed in index
// order — for scattered/repartitioned distributed views. Broadcast
// installs of replicated views are not captured: the driver mirror fold
// already recorded the identical delta.
func (c *Cluster) applyXform(r *run, t *transfer) (int64, int64, error) {
	n := len(c.workers)
	capture := c.watch[t.lhs] != nil && !c.watchDriverSide(t.lhs)
	var total, maxPer int64
	switch t.kind {
	case dist.XScatter:
		srcRel := c.driver.rel(t.src, t.srcSchema)
		if t.snapshot {
			srcRel = srcRel.Clone()
		}
		packs := make([]rows, n)
		if len(t.keyPos) == 0 {
			// Broadcast: encode once, install the same fragment on every
			// worker.
			p := c.workers[0].pack(srcRel)
			for i := range packs {
				packs[i] = p
			}
			maxPer = wireSize(p)
			total = maxPer * int64(n)
			capture = false
		} else {
			for i, f := range split(srcRel, t.keyPos, n) {
				if f == nil {
					continue
				}
				packs[i] = c.workers[i].pack(f)
				sz := wireSize(packs[i])
				total += sz
				maxPer = max(maxPer, sz)
			}
		}
		r.queue(install{kind: installScatter, name: t.lhs, schema: t.lhsSchema, capture: capture},
			func(i int) []rows { return packs[i : i+1] })
	case dist.XRepart:
		// Exchange: every sender's fragment split by key, routed by the
		// driver, and rebuilt on every receiver from the senders in
		// worker-index order.
		outs, err := c.read(r, t)
		if err != nil {
			return 0, 0, err
		}
		routed := make([][]rows, n) // routed[target][sender]
		for ti := range routed {
			routed[ti] = make([]rows, n)
		}
		from := routed // the pieces as installed
		if t.read == readChained {
			from = make([][]rows, n)
			for ti := range from {
				from[ti] = make([]rows, n)
			}
		}
		for wi, pieces := range outs {
			var sent int64
			for ti, p := range pieces {
				if p == nil {
					continue
				}
				if own, ok := p.(*piece); ok && t.lhs == t.src {
					// An exchange in place clears the fragments its pieces
					// alias before the last of them lands.
					p = own.clone()
				}
				routed[ti][wi] = p
				if t.read == readChained {
					// Pieces the driver split itself ship from here.
					p = c.workers[ti].pack(p)
					from[ti][wi] = p
				}
				if ti != wi { // local data does not cross the network
					sent += wireSize(p)
				}
			}
			total += sent
			maxPer = max(maxPer, sent)
		}
		if r.routed == nil {
			r.routed = make(map[string][][]rows)
		}
		r.routed[t.lhs] = routed
		r.queue(install{kind: installRepart, name: t.lhs, schema: t.lhsSchema, capture: capture},
			func(i int) []rows { return from[i] })
	default: // Gather
		// The workers' pre-aggregated fragments merge into the cleared
		// driver view strictly in worker-index order, so the driver
		// replays the same float additions in the same sequence on every
		// run — the gathered result is deterministic however the workers'
		// fragments were computed, process workers concurrently. The
		// first fragment fills the view with its stored hashes.
		outs, err := c.read(r, t)
		if err != nil {
			return 0, 0, err
		}
		dst := c.driver.rel(t.lhs, t.lhsSchema)
		var old *mring.Relation
		if c.watch[t.lhs] != nil && c.watchDriverSide(t.lhs) {
			old = dst.Clone()
		}
		dst.Clear()
		for _, o := range outs {
			f := o[0]
			if f == nil || f.Len() == 0 {
				continue
			}
			// A chained gather's fragments never leave the driver of a
			// process cluster; the simulator charges the gather all the
			// same, as the program's transformer.
			if t.read != readChained || !c.rpc {
				sz := wireSize(f)
				total += sz
				maxPer = max(maxPer, sz)
			}
			if r, ok := f.(*mring.Relation); ok {
				dst.Merge(r)
			} else {
				// Recomputed hashes equal the stored ones Merge reuses,
				// so this replays its float additions exactly.
				f.Foreach(dst.Add)
			}
		}
		if old != nil {
			c.captureReplace(t.lhs, dst, old)
		}
	}
	return total, maxPer, nil
}

// read returns, per worker in index order, what a gather or repartition
// reads of its source: the fragment (one entry), or its pieces by
// destination worker.
func (c *Cluster) read(r *run, t *transfer) ([][]rows, error) {
	n := len(c.workers)
	outs := make([][]rows, n)
	if t.read == readChained {
		// Rebuild each worker's fragment of the source from the pieces
		// routed to it, with the workers' own exchange, and split it as
		// the worker would.
		routed := r.routed[t.src]
		for wi := range outs {
			f := mring.NewRelation(t.srcSchema)
			exchange(f, routed[wi])
			if t.kind == dist.XGather {
				outs[wi] = []rows{f}
				continue
			}
			outs[wi] = split(f, t.keyPos, n)
		}
		return outs, nil
	}
	if t.read == readStep {
		if err := c.send(r, nil); err != nil {
			return nil, err
		}
	}
	for wi := range outs {
		outs[wi] = r.resps[wi].outs[r.read]
	}
	r.read++
	return outs, nil
}

// ViewContents reconstructs the full logical contents of a view by
// merging the driver copy and the worker fragments (result reads). A
// healthy read becomes the view's last-committed read cache; a poisoned
// cluster serves that cache instead, so readers never observe a partially
// applied transaction. Either way the relation returned is the cache
// itself, which the caller must not mutate and the cluster never does.
func (c *Cluster) ViewContents(name string) *mring.Relation {
	if c.err == nil {
		out, err := c.readView(name)
		if err == nil {
			c.committed[name] = out
			c.shared[name] = true
			return out
		}
		c.fail(err)
	}
	if r := c.committed[name]; r != nil {
		c.shared[name] = true
		return r
	}
	return mring.NewRelation(c.schemas[name])
}

// readView merges a view's driver copy and worker fragments into its
// full contents, or reports why the workers could not serve them.
func (c *Cluster) readView(name string) (*mring.Relation, error) {
	out := mring.NewRelation(c.schemas[name])
	loc, ok := c.parts[name]
	if ok && loc.Kind == dist.LLocal {
		if r := c.driver.rels[name]; r != nil {
			out.Merge(r)
		}
		return out, nil
	}
	// A transfer-only stage whose single output is the view's fragment.
	read := []output{{src: name, schema: c.schemas[name]}}
	if ok && loc.Kind == dist.LIndiff {
		// Replicated: every replica is installed from the same pack in the
		// same order, so the first non-empty one, in worker-index order, is
		// the contents. Ask one worker at a time, the next only when a
		// replica comes back empty.
		req := stageReq{outputs: read}
		for i, w := range c.workers {
			resp, err := w.stage(&req)
			if err == nil {
				err = c.checkOutputs(i, &req, &resp)
			}
			if err != nil {
				return nil, err
			}
			if f := resp.outs[0][0]; f != nil && f.Len() > 0 {
				f.Foreach(out.Add)
				return out, nil
			}
		}
		return out, nil
	}
	reqs := make([]stageReq, len(c.workers))
	for i := range reqs {
		reqs[i].outputs = read
	}
	resps, err := c.stage(reqs)
	if err != nil {
		return nil, err
	}
	for _, resp := range resps {
		if f := resp.outs[0][0]; f != nil {
			f.Foreach(out.Add)
		}
	}
	if !ok {
		if r := c.driver.rels[name]; r != nil {
			out.Merge(r)
		}
	}
	return out, nil
}
