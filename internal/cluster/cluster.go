// Package cluster runs the synchronous large-scale processing platform of
// Sec. 4 and 6.2 (the paper ran Spark 1.6.1 on 100 servers): one driver
// orchestrates N stateful workers; processing a batch runs a sequence of
// statement blocks, each distributed block being one stage executed by all
// workers in parallel.
//
// There is one driver, Cluster, over two kinds of worker. New deploys
// in-process shards that receive fragments by reference (the simulator);
// Connect reaches worker processes over a framed transport, each call one
// round trip of the protocol in proto.go served by the same Shard code on
// the far side. Everything else — schema preparation, delta capture,
// worker-index-ordered merges, the cost model, checkpoints, failure
// poisoning — is the driver's, written once, so both deployments produce
// bitwise-identical results by construction.
//
// The driver really executes the compiled distributed programs over
// really-partitioned state and really-serialized shuffles, and combines the
// measured per-worker work with a virtual-time cost model for the platform
// terms the paper measures: per-stage scheduling/synchronization overhead
// that grows with the worker count, shuffle time proportional to the
// maximum per-worker payload, and optional straggler inflation. DESIGN.md
// §3 documents this substitution.
package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
	"repro/internal/pool"
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
	// StragglerProb is the per-stage probability that the slowest worker
	// is inflated by StragglerFactor (Sec. 6.2.1 observes 1.5–3x).
	StragglerProb   float64
	StragglerFactor float64
	// Seed drives straggler sampling and nothing else.
	Seed int64
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
		StragglerProb:        0,
		StragglerFactor:      2,
		Seed:                 1,
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
// construction (Repartition moves the latter between transactions); state
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
	// fan-out runs concurrently. In-process shards run stages
	// concurrently and everything else inline on the driver goroutine.
	rpc     bool
	schemas map[string]mring.Schema
	parts   dist.PartInfo
	rng     *rand.Rand
	// Stats accumulates evaluation statistics across all nodes and
	// batches. Per-worker contributions are merged in worker-index order
	// after each stage barrier, so the totals are deterministic even
	// though the workers run concurrently.
	Stats eval.Stats
	// watch maps each watched view (WatchView) to the delta accumulated
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

	// err is the poison: set by the first failed operation, returned by
	// every operation after it.
	err error
	// committed caches each view's last healthily-observed contents, the
	// read path once the cluster is poisoned.
	committed map[string]*mring.Relation
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
func New(cfg Config, schemas map[string]mring.Schema, parts dist.PartInfo) *Cluster {
	if cfg.Workers <= 0 {
		panic("cluster: need at least one worker")
	}
	// In measured-time mode (ComputeNsPerOp == 0) bound the stages in
	// flight to the CPU count, with each shard's clock started only once
	// it holds a slot: its wall time then approximates its own compute
	// rather than scheduler queueing behind the other simulated workers.
	var sem chan struct{}
	if cfg.ComputeNsPerOp <= 0 {
		sem = make(chan struct{}, runtime.GOMAXPROCS(0))
	}
	ws := make([]worker, cfg.Workers)
	for i := range ws {
		ws[i] = &Shard{node: newNode(), workers: cfg.Workers, sem: sem}
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
		rng:           rand.New(rand.NewSource(cfg.Seed)),
		workerCompute: make([]time.Duration, len(ws)),
		workerStages:  make([]int, len(ws)),
		committed:     make(map[string]*mring.Relation),
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
// run concurrently when parallel is set or the workers are remote; results
// land in per-index slots the caller then processes in worker-index order
// — the merge-determinism invariant.
func (c *Cluster) each(parallel bool, f func(i int, w worker) error) error {
	if !parallel && !c.rpc {
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

// ForEachRelation visits every named relation fragment the driver can
// reach — its own first, then each in-process shard's in index order,
// names sorted within each node — so per-fragment state (index admission
// records) can be swept and aggregated deterministically. Process
// workers' fragments live in other processes and are not visited.
func (c *Cluster) ForEachRelation(f func(name string, r *mring.Relation)) {
	c.driver.visit(f)
	for _, w := range c.workers {
		if sh, ok := w.(*Shard); ok {
			sh.visit(f)
		}
	}
}

// Repartition swaps the cluster's placement map between transactions:
// every relation not named in keep (moved views, temp/transient state,
// and stale delta fragments — anything a program compiled against the
// old placement may have left behind) is dropped from the driver and
// all workers, the new placement takes effect, and the moved views'
// gathered contents are re-installed under their new locations via
// WarmViews. The caller must not run a program compiled against the old
// placement afterwards.
func (c *Cluster) Repartition(parts dist.PartInfo, contents map[string]*mring.Relation, keep map[string]bool) error {
	if c.err != nil {
		return c.err
	}
	c.driver.retain(keep)
	if err := c.each(false, func(_ int, w worker) error { return w.retain(keep) }); err != nil {
		return c.fail(err)
	}
	c.parts = parts
	return c.WarmViews(contents)
}

// WatchView starts capturing every maintenance write to the named view
// as a per-batch delta. Several views can be watched at once; watching
// an already-watched view keeps its accumulator. The view must be one of
// the schemas the cluster was constructed with.
func (c *Cluster) WatchView(name string) {
	s, ok := c.schemas[name]
	if !ok {
		panic(fmt.Sprintf("cluster: cannot watch unknown view %q", name))
	}
	if c.watch == nil {
		c.watch = make(map[string]*mring.Relation, 1)
	}
	if c.watch[name] == nil {
		c.watch[name] = mring.NewRelation(s)
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
// key-partitioned worker fragments (via the platform placement function,
// dist.SplitByKey) for distributed views, and a full replica per worker
// plus the driver mirror for replicated views. Call before the first
// batch; the relations are owned by the cluster afterwards.
func (c *Cluster) WarmViews(contents map[string]*mring.Relation) error {
	if c.err != nil {
		return c.err
	}
	for name, rel := range contents {
		if rel == nil {
			continue
		}
		schema := c.schemaOf(name, rel.Schema())
		loc := c.parts[name]
		frags := make([]rows, len(c.workers))
		switch {
		case loc.Kind == dist.LLocal:
			c.driver.rels[name] = rel
			continue
		case loc.Kind == dist.LIndiff:
			c.driver.rels[name] = rel
			for i := range frags {
				frags[i] = copyOf{rel}
			}
		case loc.Keyed():
			keyPos := make([]int, len(loc.Key))
			for i, k := range loc.Key {
				p := schema.Index(k)
				if p < 0 {
					return fmt.Errorf("cluster: warm load of %q: key column %q not in schema %v", name, k, schema)
				}
				keyPos[i] = p
			}
			for i, f := range dist.SplitByKey(rel, keyPos, len(c.workers)) {
				if f == nil {
					f = mring.NewRelation(schema)
				}
				frags[i] = f
			}
		default:
			return fmt.Errorf("cluster: cannot warm load view %q located %v", name, loc)
		}
		if err := c.each(false, func(i int, w worker) error { return w.installDelta(name, schema, frags[i]) }); err != nil {
			return c.fail(err)
		}
	}
	return nil
}

// schemaOf returns the schema for a view/delta name, falling back to the
// partitioning key when unknown (temp views register lazily on first
// write).
func (c *Cluster) schemaOf(name string, fallback mring.Schema) mring.Schema {
	if s, ok := c.schemas[name]; ok {
		return s
	}
	c.schemas[name] = fallback.Clone()
	return c.schemas[name]
}

// ready checks a program can run: it exists and the cluster is healthy.
func (c *Cluster) ready(prog *dist.DistProgram) error {
	if prog == nil {
		return fmt.Errorf("cluster: nil distributed program (unknown relation?)")
	}
	return c.err
}

// Run processes one update batch for the program's relation: the batch
// starts at the driver (the paper's Fig. 5 shape: LOCAL DELTA := {...}
// then SCATTER). Returns the virtual metrics of this batch.
func (c *Cluster) Run(prog *dist.DistProgram, batch *mring.Relation) (Metrics, error) {
	if err := c.ready(prog); err != nil {
		return Metrics{}, err
	}
	dn := eval.DeltaName(prog.Relation)
	c.driver.rels[dn] = batch
	c.schemas[dn] = batch.Schema()
	return c.runBlocks(prog)
}

// RunPartitioned processes a batch already spread over workers (the
// weak/strong scaling experiments simulate workers ingesting stream
// fragments directly, Sec. 6.2). partsOfBatch must have one relation per
// worker. The program must have been compiled with the delta tagged
// Random.
func (c *Cluster) RunPartitioned(prog *dist.DistProgram, partsOfBatch []*mring.Relation) (Metrics, error) {
	if err := c.ready(prog); err != nil {
		return Metrics{}, err
	}
	if len(partsOfBatch) != len(c.workers) {
		return Metrics{}, fmt.Errorf("cluster: got %d batch partitions for %d workers", len(partsOfBatch), len(c.workers))
	}
	frags := make([]rows, len(c.workers))
	dn := eval.DeltaName(prog.Relation)
	for i, p := range partsOfBatch {
		if p != nil {
			frags[i] = p
			c.schemas[dn] = p.Schema()
		}
	}
	return c.runDealt(prog, frags)
}

// RunPartitionedBatch deals a driver-resident batch round-robin over the
// workers and processes it as RunPartitioned. Each worker rebuilds its
// fragment from the rows in deal order, so the fragment's layout is the
// same whichever kind of worker holds it.
func (c *Cluster) RunPartitionedBatch(prog *dist.DistProgram, batch *mring.Relation) (Metrics, error) {
	if err := c.ready(prog); err != nil {
		return Metrics{}, err
	}
	c.schemas[eval.DeltaName(prog.Relation)] = batch.Schema()
	n := len(c.workers)
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
	return c.runDealt(prog, frags)
}

// runDealt installs one delta fragment per worker, then runs the program.
func (c *Cluster) runDealt(prog *dist.DistProgram, frags []rows) (Metrics, error) {
	dn := eval.DeltaName(prog.Relation)
	schema := c.schemas[dn]
	if err := c.each(false, func(i int, w worker) error { return w.installDelta(dn, schema, frags[i]) }); err != nil {
		return Metrics{}, c.fail(err)
	}
	return c.runBlocks(prog)
}

func (c *Cluster) runBlocks(prog *dist.DistProgram) (Metrics, error) {
	var m Metrics
	m.Stages = prog.Stages()
	m.Jobs = prog.Jobs()
	for _, b := range prog.Blocks {
		var err error
		if b.Mode == dist.LDist {
			err = c.runDistBlock(b, &m)
		} else {
			err = c.runLocalBlock(b, &m)
		}
		if err != nil {
			// Installs may have landed on a subset of workers, so worker
			// state can no longer be trusted.
			return m, c.fail(err)
		}
	}
	return m, nil
}

// prepareStmts resolves every schema a block's statements may register, in
// statement order, before any worker runs. Workers then only read
// c.schemas; all lazy registration happens here, on the driver thread.
func (c *Cluster) prepareStmts(stmts []dist.Stmt) {
	for _, s := range stmts {
		walkRefs(s.RHS, func(r *expr.Rel) {
			name := eval.RelEnvName(r)
			if _, ok := c.schemas[name]; !ok {
				c.schemas[name] = r.Cols.Clone()
			}
		})
		if x, ok := s.RHS.(*dist.Xform); ok {
			if src, ok := x.Body.(*expr.Rel); ok {
				c.schemaOf(s.LHS, c.schemaOf(eval.RelEnvName(src), src.Cols))
			}
			continue
		}
		c.schemaOf(s.LHS, s.RHS.Schema())
	}
}

// runLocalBlock executes driver-side statements; transformer statements
// trigger data movement. All transformers of a block share one
// communication round (the code-generation batching of Sec. 4.4).
func (c *Cluster) runLocalBlock(b dist.Block, m *Metrics) error {
	c.prepareStmts(b.Stmts)
	rounds := 0
	var roundBytes int64
	var maxWorkerBytes int64
	computeStart := time.Now()
	var st eval.Stats
	for _, s := range b.Stmts {
		if x, ok := s.RHS.(*dist.Xform); ok {
			bytes, maxPer, err := c.applyXform(s.LHS, x)
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
		st.Add(runStmtOn(&c.driver, c.schemas, s, c.driverSinkFor(s.LHS)))
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
// statements over its fragments concurrently, and the stage closes when
// all have answered (the platform's synchronous-round model). Worker
// state is shared-nothing, and all schema registration happens in
// prepareStmts before the fan-out, so the workers race on nothing; results
// are bit-identical to sequential execution because each worker's own
// statement order is unchanged and per-worker outcomes — stats, compute,
// and the change sinks of watched views — are merged in worker-index
// order after the barrier. Stage latency is the scheduling overhead plus
// the slowest worker's compute (with optional straggler inflation).
func (c *Cluster) runDistBlock(b dist.Block, m *Metrics) error {
	c.prepareStmts(b.Stmts)
	watch := c.workerWatches(b.Stmts)
	stages := make([]stage, len(c.workers))
	if err := c.each(true, func(i int, w worker) (err error) {
		stages[i], err = w.runBlock(b.Stmts, c.schemas, watch)
		return err
	}); err != nil {
		return err
	}
	for _, name := range watch {
		dst := c.watch[name]
		for i := range stages {
			if s := stages[i].sinks[name]; s != nil {
				s.Foreach(dst.Add)
			}
		}
	}
	var maxCompute, sumCompute time.Duration
	for i, s := range stages {
		c.Stats.Add(s.stats)
		compute := c.computeTime(s.stats.Lookups+s.stats.Scans+s.stats.Emits, s.compute)
		c.workerCompute[i] += compute
		c.workerStages[i]++
		sumCompute += compute
		if compute > maxCompute {
			maxCompute = compute
		}
	}
	if c.cfg.StragglerProb > 0 && c.rng.Float64() < c.cfg.StragglerProb {
		maxCompute = time.Duration(float64(maxCompute) * c.cfg.StragglerFactor)
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
func (c *Cluster) applyXform(lhs string, x *dist.Xform) (int64, int64, error) {
	src, ok := x.Body.(*expr.Rel)
	if !ok {
		return 0, 0, fmt.Errorf("cluster: transformer body is not a view reference: %s", x)
	}
	srcName := eval.RelEnvName(src)
	srcSchema := c.schemaOf(srcName, src.Cols)
	lhsSchema := c.schemaOf(lhs, srcSchema)
	keyPos := make([]int, len(x.Key))
	for i, k := range x.Key {
		p := src.Cols.Index(k)
		if p < 0 {
			return 0, 0, fmt.Errorf("cluster: key column %q not in %s(%v)", k, srcName, src.Cols)
		}
		keyPos[i] = p
	}

	n := len(c.workers)
	capture := c.watch[lhs] != nil && !c.watchDriverSide(lhs)
	replaced := make([][2]rows, n) // per worker: contents after and before a captured install
	var total, maxPer int64
	switch x.Kind {
	case dist.XScatter:
		srcRel := c.driver.rel(srcName, srcSchema)
		broadcast := len(x.Key) == 0
		packs := make([]rows, n)
		if broadcast {
			// Encode once, install the same fragment on every worker.
			p := c.workers[0].pack(srcRel)
			for i := range packs {
				packs[i] = p
			}
			maxPer = wireSize(p)
			total = maxPer * int64(n)
			capture = false
		} else {
			for i, f := range dist.SplitByKey(srcRel, keyPos, n) {
				if f == nil {
					continue
				}
				packs[i] = c.workers[i].pack(f)
				sz := wireSize(packs[i])
				total += sz
				maxPer = max(maxPer, sz)
			}
		}
		if err := c.each(false, func(i int, w worker) (err error) {
			replaced[i][0], replaced[i][1], err = w.installScatter(lhs, lhsSchema, packs[i], broadcast, capture)
			return err
		}); err != nil {
			return 0, 0, err
		}
	case dist.XRepart:
		// Exchange, two phases: every worker splits its fragment by key;
		// the driver routes the pieces, and every receiver rebuilds its
		// fragment from the senders in worker-index order.
		outs := make([][]rows, n)
		if err := c.each(false, func(i int, w worker) (err error) {
			outs[i], err = w.partitionOut(srcName, srcSchema, keyPos)
			return err
		}); err != nil {
			return 0, 0, err
		}
		from := make([][]rows, n) // from[target][sender]
		for ti := range from {
			from[ti] = make([]rows, n)
		}
		for wi, pieces := range outs {
			if len(pieces) != n {
				return 0, 0, fmt.Errorf("cluster: worker %d returned %d exchange fragments for %d workers", wi, len(pieces), n)
			}
			var sent int64
			for ti, p := range pieces {
				from[ti][wi] = p
				if p != nil && ti != wi { // local data does not cross the network
					sent += wireSize(p)
				}
			}
			total += sent
			maxPer = max(maxPer, sent)
		}
		if err := c.each(false, func(i int, w worker) (err error) {
			replaced[i][0], replaced[i][1], err = w.installRepart(lhs, srcSchema, lhsSchema, from[i], capture)
			return err
		}); err != nil {
			return 0, 0, err
		}
	default: // Gather
		// The workers' pre-aggregated fragments merge into one group
		// table strictly in worker-index order, so the driver replays the
		// same float additions in the same sequence on every run — the
		// gathered result is deterministic despite the workers having
		// computed their fragments concurrently. The table then
		// blind-fills the driver view with its stored hashes.
		frags := make([]rows, n)
		if err := c.each(false, func(i int, w worker) (err error) {
			frags[i], err = w.fetch(srcName, srcSchema)
			return err
		}); err != nil {
			return 0, 0, err
		}
		gt := mring.NewGroupTable(srcSchema)
		for _, f := range frags {
			if f == nil || f.Len() == 0 {
				continue
			}
			sz := wireSize(f)
			total += sz
			maxPer = max(maxPer, sz)
			if r, ok := f.(*mring.Relation); ok {
				gt.MergeRelation(r)
			} else {
				// Stored hashes equal recomputed ones, so this replays
				// MergeRelation's float additions exactly.
				f.Foreach(func(t mring.Tuple, m float64) { gt.AddPrehashed(t.Hash(), t, m) })
			}
		}
		dst := c.driver.rel(lhs, lhsSchema)
		var old *mring.Relation
		if c.watch[lhs] != nil && c.watchDriverSide(lhs) {
			old = dst.Clone()
		}
		dst.Clear()
		gt.FillRelation(dst)
		if old != nil {
			c.captureReplace(lhs, dst, old)
		}
		return total, maxPer, nil
	}
	if capture {
		for _, r := range replaced {
			c.captureReplace(lhs, r[0], r[1])
		}
	}
	return total, maxPer, nil
}

// encodeSize serializes through the columnar wire format and returns the
// payload size — the simulator's measured network traffic. The encode
// attaches (and reuses) the relation's columnar mirror, so fragmentBatch
// on the same relation is free.
func encodeSize(r *mring.Relation) int64 {
	if r.Len() == 0 {
		return 0
	}
	return int64(len(pool.EncodeRelation(r)))
}

// fragmentBatch returns the columnar form a shuffle ships for r, or nil
// when r cannot be represented losslessly (mixed-kind columns) and the
// fragment must move in row form instead.
func fragmentBatch(r *mring.Relation) *pool.ColBatch {
	if r.Len() == 0 {
		return nil
	}
	return pool.MirrorOf(r)
}

// walkRefs visits every relational reference in an expression (descending
// into transformer bodies, though compute statements carry none).
func walkRefs(e expr.Expr, f func(*expr.Rel)) {
	switch x := e.(type) {
	case *dist.Xform:
		walkRefs(x.Body, f)
	case *expr.Rel:
		f(x)
	case *expr.Plus:
		for _, t := range x.Terms {
			walkRefs(t, f)
		}
	case *expr.Mul:
		for _, t := range x.Factors {
			walkRefs(t, f)
		}
	case *expr.Agg:
		walkRefs(x.Body, f)
	case *expr.Assign:
		if x.Q != nil {
			walkRefs(x.Q, f)
		}
	case *expr.Exists:
		walkRefs(x.Body, f)
	}
}

// ViewContents reconstructs the full logical contents of a view by
// merging the driver copy and the worker fragments (result reads). A
// healthy read refreshes the view's last-committed read cache; a poisoned
// cluster serves that cache instead, so readers never observe a partially
// applied transaction.
func (c *Cluster) ViewContents(name string) *mring.Relation {
	if c.err == nil {
		out, err := c.ReadView(name)
		if err == nil {
			c.committed[name] = out.Clone()
			return out
		}
		c.fail(err)
	}
	if r := c.committed[name]; r != nil {
		return r.Clone()
	}
	return mring.NewRelation(c.schemas[name])
}

// ReadView reconstructs a view's full contents like ViewContents, but
// reports failures and leaves the read cache alone — for reads the
// driver's own machinery makes (skew measurement, repartitioning).
func (c *Cluster) ReadView(name string) (*mring.Relation, error) {
	if c.err != nil {
		return nil, c.err
	}
	out := mring.NewRelation(c.schemas[name])
	loc, ok := c.parts[name]
	if ok && loc.Kind == dist.LLocal {
		if r := c.driver.rels[name]; r != nil {
			out.Merge(r)
		}
		return out, nil
	}
	frags := make([]rows, len(c.workers))
	if err := c.each(false, func(i int, w worker) (err error) {
		frags[i], err = w.fetch(name, c.schemas[name])
		return err
	}); err != nil {
		return nil, err
	}
	for _, f := range frags {
		if f == nil {
			continue
		}
		f.Foreach(out.Add)
		if loc.Kind == dist.LIndiff {
			// Replicated: the first present replica, in worker-index
			// order, is the contents.
			return out, nil
		}
	}
	if !ok {
		if r := c.driver.rels[name]; r != nil {
			out.Merge(r)
		}
	}
	return out, nil
}
