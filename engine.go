package ivm

import (
	"errors"
	"fmt"
	"iter"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
	inet "repro/internal/net"
)

// ErrClosed is returned (wrapped, with context) by Apply, Warm, and
// Subscribe on an engine or registry that was Closed.
var ErrClosed = errors.New("ivm: engine is closed")

// Metrics reports the virtual platform cost of distributed processing
// (latency, compute, shuffled bytes, stage/job counts). Engines on the
// local backend report zero metrics.
type Metrics = cluster.Metrics

// engineConfig collects the functional options of New.
type engineConfig struct {
	distributed bool
	workers     int
	remote      bool
	remoteAddrs []string
	keyRanks    map[string]int
	copts       compile.Options
	durSet      bool
	durDir      string
	dur         durConfig
}

// Option configures an Engine at construction.
type Option func(*engineConfig)

// Distributed deploys the engine on the simulated synchronous cluster
// (Sec. 4) with the given number of workers: views are partitioned by
// the paper's heuristic and batches run through compiled distributed
// trigger programs. Without this option the engine runs single-node.
func Distributed(workers int) Option {
	return func(c *engineConfig) {
		c.distributed = true
		c.workers = workers
	}
}

// Remote deploys the engine on a process cluster: one worker process
// (cmd/ivmworker) per address, reached over the length-prefixed framed
// TCP transport of internal/net. Everything else — partitioning,
// compiled distributed trigger programs, transactions, the
// keyed changefeed — works exactly as with Distributed, and results are
// bitwise-identical to the in-process cluster at the same worker count.
// A worker lost mid-transaction fails that transaction atomically: the
// engine reports the error, keeps serving the pre-transaction results,
// and rejects further transactions (reconnect by building a new engine
// and warm-starting it). Incompatible with Distributed.
func Remote(addrs ...string) Option {
	return func(c *engineConfig) {
		c.remote = true
		c.remoteAddrs = addrs
	}
}

// KeyRanks ranks partition-key columns by the cardinality of their
// source table (higher rank = larger table; see tpch.PrimaryKeyRanks).
// It drives the distributed partitioning heuristic and is ignored on
// the local backend.
func KeyRanks(ranks map[string]int) Option {
	return func(c *engineConfig) { c.keyRanks = ranks }
}

// CompileOptions overrides the paper's default compilation options
// (domain extraction, batch pre-aggregation, re-evaluation for
// uncorrelated nesting).
func CompileOptions(o Options) Option {
	return func(c *engineConfig) { c.copts = o }
}

func (cfg *engineConfig) validate() error {
	if cfg.distributed && cfg.workers < 1 {
		return fmt.Errorf("ivm: Distributed needs at least one worker, got %d", cfg.workers)
	}
	if cfg.remote {
		if cfg.distributed {
			return fmt.Errorf("ivm: Remote and Distributed are exclusive backends; pick one")
		}
		if len(cfg.remoteAddrs) == 0 {
			return fmt.Errorf("ivm: Remote needs at least one worker address")
		}
	}
	if cfg.durSet {
		if cfg.durDir == "" {
			return fmt.Errorf("ivm: Durable needs a directory")
		}
		if cfg.dur.ckptEvery < 0 {
			return fmt.Errorf("ivm: CheckpointEvery wants a positive transaction count, got %d", cfg.dur.ckptEvery)
		}
		if cfg.dur.retain < 0 {
			return fmt.Errorf("ivm: RetainCheckpoints wants a positive count, got %d", cfg.dur.retain)
		}
	}
	return nil
}

func (cfg *engineConfig) backend(prog *compile.Program) (backend, error) {
	switch {
	case cfg.remote, cfg.distributed:
		return newDistBackend(prog, cfg)
	default:
		return newLocalBackend(prog), nil
	}
}

// backend is the execution plane behind an Engine or Registry: the
// local executor and the simulated cluster implement the same contract,
// so everything above (transactions, warm starts, the changefeed and
// its routing) is written once. All methods are multi-view: capture
// names the top views whose per-transaction deltas the caller wants.
type backend interface {
	// ApplyTx folds one multi-table transaction into all maintained
	// views and returns, for each captured view, its per-group delta.
	// An empty capture list skips all capture work and returns nil.
	ApplyTx(tx []compile.TableBatch, capture []string) (map[string]*mring.Relation, error)
	// Warm installs initial base-table contents before streaming and
	// returns, for each captured view, its initial contents as the
	// first delta.
	Warm(bases map[string]*mring.Relation, capture []string) (map[string]*mring.Relation, error)
	// ViewContents returns the maintained contents of one top view.
	ViewContents(name string) *mring.Relation
	// StopCapture releases any persistent capture state held for the
	// view (the cluster watch) as soon as its last subscriber is gone,
	// instead of waiting for the next transaction.
	StopCapture(view string)
	// Stats returns evaluation statistics accumulated across batches.
	Stats() eval.Stats
	// TriggerProgram renders the maintenance program for one base table.
	TriggerProgram(table string) string
	// Metrics returns the cumulative and last-transaction platform cost
	// (zero on the local backend).
	Metrics() (total, lastTx Metrics)
	// WorkerTimings returns each worker's accumulated stage compute in
	// worker-index order (nil on the local backend).
	WorkerTimings() []cluster.WorkerTiming
	// SnapshotState captures the backend's entire materialized state —
	// every relation's contents, in its iteration order — as a
	// checkpoint whose restore keeps that order, and therefore
	// bitwise-identical later float folds.
	SnapshotState() (*cluster.Checkpoint, error)
	// RestoreState installs a checkpoint into a freshly built backend
	// (the recovery path). The checkpoint must come from the same
	// program and deployment shape.
	RestoreState(cp *cluster.Checkpoint) error
	// Close releases backend resources (worker connections on the
	// process cluster). Reads may still be served afterwards.
	Close() error
}

// serving is the shared front half of Engine and Registry: transaction
// validation, warm starts, and the changefeed with its per-view
// subscriber routing.
type serving struct {
	prog *compile.Program

	// beMu serializes all backend access: transactions, warm starts,
	// and stats/metrics/result snapshots, so observation paths are safe
	// to call concurrently with Apply. Lock order is beMu before mu;
	// subscriber callbacks run with neither held.
	beMu sync.Mutex
	be   backend
	// dur is the durability runtime (nil without the Durable option):
	// the write-ahead log appended to before every ack and the
	// checkpoint cadence that truncates it. Guarded by beMu.
	dur *durable

	// closed is set by Close; write paths (Apply, Warm, Subscribe)
	// reject with ErrClosed afterwards, read paths keep serving the
	// final state. Guarded by beMu.
	closed bool

	mu    sync.Mutex
	next  int
	seq   int64
	feeds map[string]*feed // top-view name -> subscription state
}

// feed holds the subscribers of one served top view.
type feed struct {
	schema mring.Schema
	plain  []*subscriber
	// keyed buckets key-predicate subscribers by key length, then by
	// the placement shard of their key — the same hash the shuffles
	// place tuples with (dist.PlaceIndex) — so routing a delta touches
	// only the subscribers whose shard a changed group lands in.
	keyed map[int]map[int][]*subscriber
	n     int
}

type subscriber struct {
	id  int
	fn  func(Delta)
	key Tuple // nil for plain (full-feed) subscribers
	// pending accumulates the routed groups of the delta currently
	// being delivered; reset after each delivery. Guarded by serving.mu.
	pending *mring.Relation
}

// routeShards is the number of placement buckets subscriber keys hash
// into; it mirrors a worker count, but for delivery routing only.
const routeShards = 256

// Engine maintains one compiled query incrementally. The same type
// fronts both execution planes — construct with New, picking the
// backend with options:
//
//	local, _ := ivm.New("Q", q, bases)
//	dist8, _ := ivm.New("Q", q, bases, ivm.Distributed(8), ivm.KeyRanks(r))
//
// Updates apply through Apply (atomic multi-table transactions) or
// ApplyBatch (single-table sugar); Subscribe delivers each applied
// transaction's result delta. To serve many queries over one shared
// program, see Registry.
type Engine struct {
	serving
	name string
}

// New compiles the query over the given base relation schemas and
// returns an engine over empty tables. By default it compiles with the
// paper's default options and runs single-node; see Distributed,
// KeyRanks, and CompileOptions.
func New(name string, query Expr, bases map[string]Schema, opts ...Option) (*Engine, error) {
	cfg := engineConfig{copts: compile.DefaultOptions()}
	for _, o := range opts {
		o(&cfg)
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	prog, err := compile.Compile(name, query, bases, cfg.copts)
	if err != nil {
		return nil, err
	}
	be, err := cfg.backend(prog)
	if err != nil {
		return nil, err
	}
	e := &Engine{name: name}
	// Recovery runs before the engine is returned, so nothing else can
	// touch the backend while the checkpoint and WAL tail replay.
	e.prog, e.be = prog, be
	if err := e.attachDurability(&cfg); err != nil {
		be.Close()
		return nil, err
	}
	e.init(prog, be)
	return e, nil
}

func (s *serving) init(prog *compile.Program, be backend) {
	s.prog = prog
	s.be = be
	s.feeds = make(map[string]*feed)
}

// close shuts the serving half down: a durable engine writes its final
// checkpoint, and the backend releases its resources. Idempotent; write
// paths return ErrClosed afterwards, reads keep serving the final state.
func (s *serving) close() error {
	s.beMu.Lock()
	defer s.beMu.Unlock()
	if s.closed {
		return nil
	}
	var err error
	if s.dur != nil {
		// Clean shutdown ends with a final checkpoint, so reopening the
		// directory recovers with zero WAL replay. Skipped if durability
		// already failed — a checkpoint must only describe state every
		// logged transaction reached.
		if s.dur.err == nil {
			err = s.checkpointLocked()
		}
		if cerr := s.dur.st.Close(); err == nil {
			err = cerr
		}
	}
	s.closed = true
	if s.be != nil {
		if cerr := s.be.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// Close shuts the engine down: the backend releases its resources — on
// a Remote engine the worker connections close. On a Durable engine the
// WAL flushes and a final checkpoint is written, so reopening the
// directory recovers with zero replay. After Close, Apply/Warm/Subscribe
// return ErrClosed while Result, Stats, and Metrics keep serving the
// final state. Close is idempotent; it returns the first error from the
// final checkpoint or the backend teardown.
func (e *Engine) Close() error { return e.close() }

// Checkpoint forces a durability checkpoint now: the backend's entire
// state snapshots to a new versioned checkpoint file, and the WAL rolls
// to a fresh segment (old generations are garbage-collected past the
// retention window). A later recovery replays only transactions applied
// after this call. Returns an error on a non-durable engine.
func (e *Engine) Checkpoint() error { return e.forceCheckpoint() }

// Program returns the compiled maintenance program (its String method
// renders the view hierarchy and triggers).
func (e *Engine) Program() *Program { return e.prog }

// TriggerProgram renders the maintenance program run for batches of one
// base table: the local trigger or the compiled distributed program,
// depending on the backend. Empty for unknown tables.
func (e *Engine) TriggerProgram(table string) string { return e.triggerProgram(table) }

// Stats returns the engine's runtime statistics — evaluation counters
// (on the distributed backend merged deterministically across nodes),
// per-worker stage timings, and the durability state. The
// snapshot is taken under the backend lock, so it is consistent even
// while another goroutine is applying transactions.
func (e *Engine) Stats() Stats { return e.statsSnapshot() }

// Metrics returns the cumulative virtual platform cost of all processed
// transactions. Zero on the local backend.
func (e *Engine) Metrics() Metrics { total, _ := e.metricsSnapshot(); return total }

// LastMetrics returns the platform cost of the most recently applied
// transaction. Zero on the local backend.
func (e *Engine) LastMetrics() Metrics { _, last := e.metricsSnapshot(); return last }

// Result returns the maintained query result. Iterate with Foreach.
func (e *Engine) Result() *Result { return e.result(e.prog.QueryName) }

// triggerProgram renders a trigger under the backend lock, like every
// other backend read.
func (s *serving) triggerProgram(table string) string {
	s.beMu.Lock()
	defer s.beMu.Unlock()
	return s.be.TriggerProgram(table)
}

// statsSnapshot assembles the full Stats under the backend lock.
func (s *serving) statsSnapshot() Stats {
	s.beMu.Lock()
	defer s.beMu.Unlock()
	st := Stats{Stats: s.be.Stats()}
	st.Workers = s.be.WorkerTimings()
	st.Durability = s.durabilityStatsLocked()
	return st
}

func (s *serving) metricsSnapshot() (Metrics, Metrics) {
	s.beMu.Lock()
	defer s.beMu.Unlock()
	return s.be.Metrics()
}

func (s *serving) result(view string) *Result {
	s.beMu.Lock()
	defer s.beMu.Unlock()
	return &Result{rel: s.be.ViewContents(view)}
}

// sortedNames renders names sorted and comma-separated, for error
// messages.
func sortedNames(names iter.Seq[string]) string {
	return strings.Join(slices.Sorted(names), ", ")
}

// Apply folds one transaction — update batches for any set of base
// tables — into all maintained views in a single maintenance step:
// per-table triggers run in the transaction's table order, and the
// result observed by Result and the changefeed reflects either none or
// all of the transaction. Applying a transaction is equivalent to
// applying its batches as sequential single-table batches; the
// transaction boundary determines what one Delta covers. Unknown tables
// and arity-mismatched batches are rejected before anything is applied;
// an execution error from the backend itself (a programming or
// deployment error, not a data error) can leave a prefix of the
// transaction's tables applied.
func (e *Engine) Apply(tx *Tx) error { return e.applyTx(tx) }

func (s *serving) applyTx(tx *Tx) error {
	if tx == nil || len(tx.order) == 0 {
		return nil
	}
	batches := make([]compile.TableBatch, 0, len(tx.order))
	for _, table := range tx.order {
		schema, ok := s.prog.Bases[table]
		if !ok {
			return fmt.Errorf("ivm: unknown table %q (engine has: %s)", table, sortedNames(maps.Keys(s.prog.Bases)))
		}
		b := tx.batches[table]
		if got := len(b.Schema()); got != len(schema) {
			return fmt.Errorf("ivm: batch for table %q has arity %d, schema %v wants %d",
				table, got, []string(schema), len(schema))
		}
		batches = append(batches, compile.TableBatch{Table: table, Batch: b.rel})
	}
	s.beMu.Lock()
	if s.closed {
		s.beMu.Unlock()
		return fmt.Errorf("ivm: Apply: %w", ErrClosed)
	}
	if s.dur != nil {
		// Write-ahead: the transaction is in the log (and, per the sync
		// policy, on disk) before it folds or acks. A crash after this
		// point replays it; a WAL failure rejects it un-applied.
		if err := s.logTxLocked(batches); err != nil {
			s.beMu.Unlock()
			return err
		}
	}
	deltas, err := s.be.ApplyTx(batches, s.captureList())
	if err == nil && s.dur != nil {
		err = s.maybeCheckpointLocked()
	}
	s.beMu.Unlock()
	if err != nil {
		return err
	}
	// Deliver (or, with no subscribers, just advance the feed sequence)
	// outside the backend lock, so subscriber callbacks may re-enter the
	// engine (Stats, Result, cancel, even Apply) freely.
	s.deliver(deltas)
	return nil
}

// ApplyBatch folds one single-table update batch into all maintained
// views: sugar for a one-table transaction.
func (e *Engine) ApplyBatch(table string, b *Batch) error {
	tx := NewTx()
	if err := tx.Put(table, b); err != nil {
		return err
	}
	return e.Apply(tx)
}

// captureList returns the top views with at least one subscriber, in
// sorted order; the backends capture deltas only for these.
func (s *serving) captureList() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.feeds) == 0 {
		return nil
	}
	views := make([]string, 0, len(s.feeds))
	for v := range s.feeds {
		views = append(views, v)
	}
	sort.Strings(views)
	return views
}

// Warm initializes base tables before streaming (static dimensions,
// checkpointed state): every maintained view is computed from the given
// contents, and on the distributed backend each view's contents are
// partitioned across the workers with the same placement function the
// shuffles use, so warm-started state is indistinguishable from
// streamed state. Call before the first transaction. The initial result
// contents are delivered to subscribers as one Delta, so a changefeed
// replay starting from empty still reconstructs Result exactly.
func (e *Engine) Warm(tables map[string]*Batch) error { return e.warm(tables) }

func (s *serving) warm(tables map[string]*Batch) error {
	for n, b := range tables {
		if _, ok := s.prog.Bases[n]; !ok {
			return fmt.Errorf("ivm: unknown table %q (engine has: %s)", n, sortedNames(maps.Keys(s.prog.Bases)))
		}
		if b == nil {
			return fmt.Errorf("ivm: nil initial batch for table %q", n)
		}
	}
	init := make(map[string]*mring.Relation, len(s.prog.Bases))
	for n, schema := range s.prog.Bases {
		if b, ok := tables[n]; ok {
			if got := len(b.Schema()); got != len(schema) {
				return fmt.Errorf("ivm: initial table %q has arity %d, schema %v wants %d",
					n, got, []string(schema), len(schema))
			}
			init[n] = b.rel
		} else {
			init[n] = mring.NewRelation(schema)
		}
	}
	s.beMu.Lock()
	if s.closed {
		s.beMu.Unlock()
		return fmt.Errorf("ivm: Warm: %w", ErrClosed)
	}
	if s.dur != nil {
		if err := s.logWarmLocked(init); err != nil {
			s.beMu.Unlock()
			return err
		}
	}
	deltas, err := s.be.Warm(init, s.captureList())
	if err == nil && s.dur != nil {
		err = s.maybeCheckpointLocked()
	}
	s.beMu.Unlock()
	if err != nil {
		return err
	}
	s.deliver(deltas)
	return nil
}

// Delta is the per-transaction change of the maintained result: a map
// from result groups to the change of their aggregate value (groups
// whose contributions canceled within the transaction do not appear).
// Iteration is deterministic, so two subscribers — or two engines fed
// the same stream — observe identical delta sequences. A key-predicate
// subscriber's Delta holds only its matching groups.
type Delta struct {
	// Seq is the 1-based sequence number of the transaction that
	// produced this delta (Warm counts as a transaction).
	Seq int64
	rel *mring.Relation
}

// Len returns the number of changed result groups.
func (d Delta) Len() int { return d.rel.Len() }

// Get returns the change of one group's aggregate value (zero when the
// group did not change).
func (d Delta) Get(t Tuple) float64 { return d.rel.Get(t) }

// Foreach visits every changed group with its value change, in the
// deterministic sorted tuple order. Replaying every delta of the feed
// into an empty relation reconstructs Result.
func (d Delta) Foreach(f func(t Tuple, change float64)) { d.rel.ForeachSorted(f) }

// String renders the delta deterministically.
func (d Delta) String() string { return fmt.Sprintf("#%d %s", d.Seq, d.rel.String()) }

// subConfig collects the functional options of Subscribe.
type subConfig struct {
	key Tuple
}

// SubOption configures one subscription.
type SubOption func(*subConfig)

// OnKey restricts a subscription to result groups whose leading columns
// equal key (a prefix of the result schema, e.g. the group-by columns a
// user's dashboard watches). Deltas route to key subscribers through
// the same placement hash the distributed shuffles use
// (dist.PlaceIndex), so fan-out work is proportional to the changed
// groups, not the subscriber count, and a keyed subscriber is invoked
// only for transactions that touched a matching group.
func OnKey(key ...Value) SubOption {
	return func(c *subConfig) { c.key = Tuple(key) }
}

// Subscribe registers a changefeed subscriber: fn is invoked once per
// applied transaction (Apply, ApplyBatch, Warm) with the exact result
// delta that transaction produced, after the engine state was updated.
// On the distributed backend the delta is gathered deterministically —
// per-worker contributions merge in worker-index order — so subscribers
// observe the same stream on every run. Subscribers run synchronously
// on the applying goroutine, in subscription order. With OnKey the
// subscriber receives only deltas of its matching groups, skipping
// transactions that did not touch them (the Seq numbers it observes are
// then a subsequence of the feed). The returned cancel function removes
// the subscription; when the last subscriber is gone the engine
// immediately returns to zero capture overhead. Capture is active only
// while at least one subscriber is attached, so subscribe before
// applying the transactions the feed should cover. Subscribe returns an
// error wrapping ErrClosed on a closed engine; it panics on an OnKey
// key longer than the result schema (a programming error —
// Registry.Subscribe reports the same misuse as an error).
func (e *Engine) Subscribe(fn func(Delta), opts ...SubOption) (cancel func(), err error) {
	cancel, err = e.subscribe(e.prog.QueryName, fn, opts...)
	if err != nil && !errors.Is(err, ErrClosed) {
		panic(err)
	}
	return cancel, err
}

func (s *serving) subscribe(view string, fn func(Delta), opts ...SubOption) (func(), error) {
	var cfg subConfig
	for _, o := range opts {
		o(&cfg)
	}
	schema := s.prog.View(view).Schema
	if len(cfg.key) > len(schema) {
		return nil, fmt.Errorf("ivm: subscription key has %d columns, result schema %v has %d",
			len(cfg.key), []string(schema), len(schema))
	}
	// Register under the backend lock: from the subscriber's perspective
	// everything before this call is already folded, and every
	// transaction after it is delivered.
	s.beMu.Lock()
	defer s.beMu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("ivm: Subscribe: %w", ErrClosed)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.feeds[view]
	if f == nil {
		f = &feed{schema: schema}
		s.feeds[view] = f
	}
	id := s.next
	s.next++
	sub := &subscriber{id: id, fn: fn, key: cfg.key}
	if len(cfg.key) == 0 {
		f.plain = append(f.plain, sub)
	} else {
		kl := len(cfg.key)
		shard := keyShard(mring.Tuple(cfg.key), kl)
		if f.keyed == nil {
			f.keyed = make(map[int]map[int][]*subscriber)
		}
		if f.keyed[kl] == nil {
			f.keyed[kl] = make(map[int][]*subscriber)
		}
		f.keyed[kl][shard] = append(f.keyed[kl][shard], sub)
	}
	f.n++
	return func() { s.unsubscribe(view, sub) }, nil
}

func (s *serving) unsubscribe(view string, sub *subscriber) {
	// beMu is held because removing the last subscriber touches the
	// backend (StopCapture); lock order beMu before mu.
	s.beMu.Lock()
	defer s.beMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.feeds[view]
	if f == nil {
		return
	}
	remove := func(subs []*subscriber) ([]*subscriber, bool) {
		for i, x := range subs {
			if x == sub {
				return append(subs[:i], subs[i+1:]...), true
			}
		}
		return subs, false
	}
	removed := false
	if sub.key == nil {
		f.plain, removed = remove(f.plain)
	} else {
		kl := len(sub.key)
		shard := keyShard(mring.Tuple(sub.key), kl)
		if bucket := f.keyed[kl]; bucket != nil {
			bucket[shard], removed = remove(bucket[shard])
		}
	}
	if !removed {
		return
	}
	f.n--
	if f.n == 0 {
		// Last subscriber gone: drop the feed and release the backend's
		// capture state (the cluster watch) right away, so the engine is
		// back to zero capture overhead before the next transaction.
		delete(s.feeds, view)
		s.be.StopCapture(view)
	}
}

// keyShard places a key (or a tuple's leading columns) into a routing
// bucket with the platform placement hash.
func keyShard(t mring.Tuple, keyLen int) int {
	pos := make([]int, keyLen)
	for i := range pos {
		pos[i] = i
	}
	return dist.PlaceIndex(t, pos, routeShards)
}

// deliver hands one transaction's per-view deltas to the subscribers.
// Without subscribers it only advances the sequence number — no delta
// is materialized. Subscribers across all views are invoked in
// subscription order; keyed subscribers whose groups did not change are
// skipped.
func (s *serving) deliver(deltas map[string]*mring.Relation) {
	type call struct {
		id int
		fn func(Delta)
		d  Delta
	}
	s.mu.Lock()
	s.seq++
	seq := s.seq
	var calls []call
	for view, f := range s.feeds {
		rel := deltas[view]
		if rel == nil {
			rel = mring.NewRelation(f.schema)
		}
		d := Delta{Seq: seq, rel: rel}
		for _, sub := range f.plain {
			calls = append(calls, call{sub.id, sub.fn, d})
		}
		for _, sub := range routeDelta(f, rel) {
			calls = append(calls, call{sub.id, sub.fn, Delta{Seq: seq, rel: sub.pending}})
			sub.pending = nil
		}
	}
	s.mu.Unlock()
	if len(calls) == 0 {
		return
	}
	sort.Slice(calls, func(i, j int) bool { return calls[i].id < calls[j].id })
	for _, c := range calls {
		c.fn(c.d)
	}
}

// routeDelta routes one view delta to its keyed subscribers: every
// changed group hashes into a placement shard per subscribed key
// length, and only the subscribers in that shard are prefix-checked.
// Returns the subscribers that matched at least one group, each with
// its pending filtered delta populated.
func routeDelta(f *feed, rel *mring.Relation) []*subscriber {
	if len(f.keyed) == 0 || rel.Len() == 0 {
		return nil
	}
	var matched []*subscriber
	rel.Foreach(func(t mring.Tuple, m float64) {
		for kl, shards := range f.keyed {
			for _, sub := range shards[keyShard(t, kl)] {
				if !prefixEqual(t, sub.key) {
					continue
				}
				if sub.pending == nil {
					sub.pending = mring.NewRelation(f.schema)
					matched = append(matched, sub)
				}
				sub.pending.Add(t, m)
			}
		}
	})
	return matched
}

// prefixEqual matches a group to a subscriber's key by the key identity
// relations store groups by and keyShard routes them by (KeyEqual).
func prefixEqual(t mring.Tuple, key Tuple) bool {
	for i, v := range key {
		if !t[i].KeyEqual(v) {
			return false
		}
	}
	return true
}

// localBackend runs the compiled program on the single-node executor.
type localBackend struct {
	prog *compile.Program
	ex   *compile.Executor
}

func newLocalBackend(prog *compile.Program) *localBackend {
	return &localBackend{prog: prog, ex: compile.NewExecutor(prog)}
}

func (lb *localBackend) ApplyTx(tx []compile.TableBatch, capture []string) (map[string]*mring.Relation, error) {
	if len(capture) == 0 {
		// No subscribers: fold without registering capture sinks (in
		// particular, OpSet folds skip their pre-statement clone).
		for _, tb := range tx {
			lb.ex.ApplyBatch(tb.Table, tb.Batch)
		}
		return nil, nil
	}
	sinks := make(map[string]*mring.Relation, len(capture))
	for _, v := range capture {
		sinks[v] = mring.NewRelation(lb.ex.View(v).Schema())
	}
	if err := lb.ex.ApplyTxCapture(tx, sinks); err != nil {
		return nil, err
	}
	return sinks, nil
}

func (lb *localBackend) Warm(bases map[string]*mring.Relation, capture []string) (map[string]*mring.Relation, error) {
	lb.ex.InitFromBases(bases)
	if len(capture) == 0 {
		return nil, nil
	}
	out := make(map[string]*mring.Relation, len(capture))
	for _, v := range capture {
		out[v] = lb.ex.View(v).Clone()
	}
	return out, nil
}

// ViewContents returns a copy: a Result read outside the backend lock
// must not share the view a concurrent Apply folds into.
func (lb *localBackend) ViewContents(name string) *mring.Relation { return lb.ex.View(name).Clone() }

func (lb *localBackend) StopCapture(string) {}

func (lb *localBackend) Stats() eval.Stats { return lb.ex.Stats }

func (lb *localBackend) TriggerProgram(table string) string {
	trg := lb.prog.Triggers[table]
	if trg == nil {
		return ""
	}
	return trg.String()
}

func (lb *localBackend) Metrics() (Metrics, Metrics) { return Metrics{}, Metrics{} }

func (lb *localBackend) WorkerTimings() []cluster.WorkerTiming { return nil }

// SnapshotState captures every executor view but the transient ones,
// which each transaction re-derives before reading, as a driver-only
// checkpoint. The local engine does not retain base tables, so the views
// are its complete recoverable state.
func (lb *localBackend) SnapshotState() (*cluster.Checkpoint, error) {
	views := map[string]*mring.Relation{}
	lb.ex.ForEachViewAll(func(name string, r *mring.Relation) {
		if !lb.prog.View(name).Transient {
			views[name] = r
		}
	})
	return &cluster.Checkpoint{Driver: cluster.SnapshotRels(views)}, nil
}

// RestoreState rebuilds the executor's views, each in its order, from a
// checkpoint. The views already exist empty (bound into the evaluation
// environment at construction), so fragments restore into them in
// place; every name is validated against the program first.
func (lb *localBackend) RestoreState(cp *cluster.Checkpoint) error {
	if len(cp.Workers) > 0 {
		return fmt.Errorf("ivm: checkpoint holds %d worker states; it was taken on a distributed backend", len(cp.Workers))
	}
	for name := range cp.Driver {
		if lb.ex.LookupView(name) == nil {
			return fmt.Errorf("ivm: checkpoint names unknown view %q; the program changed since it was written", name)
		}
	}
	if err := checkViewSchemas(lb.ex.Program(), cp); err != nil {
		return err
	}
	for name, f := range cp.Driver {
		if err := inet.RestoreIntoExact(lb.ex.LookupView(name), f.Payload, f.Buckets); err != nil {
			return fmt.Errorf("ivm: restore view %q: %w", name, err)
		}
	}
	return nil
}

// checkViewSchemas rejects a checkpoint that holds a program view's name
// under other columns. The program changed since the checkpoint was
// written: a recompiled plan numbers its auxiliary views anew, so the
// same name can denote another view, and restoring would fill it with
// the old plan's state.
func checkViewSchemas(prog *compile.Program, cp *cluster.Checkpoint) error {
	for _, frags := range append([]map[string]cluster.Frag{cp.Driver}, cp.Workers...) {
		for name, f := range frags {
			if v := prog.View(name); v != nil && !f.Schema.Equal(v.Schema) {
				return fmt.Errorf("ivm: checkpoint view %q has columns %v, the program's has %v; the program changed since it was written",
					name, f.Schema, v.Schema)
			}
		}
	}
	return nil
}

func (lb *localBackend) Close() error { return nil }

// distBackend runs the compiled program on the cluster driver: over
// in-process shards (Distributed) or worker processes (Remote). Views are
// partitioned by the paper's heuristic and transactions are processed
// through compiled distributed programs either way: one per transaction,
// the fusion of its tables' trigger programs.
type distBackend struct {
	prog   *compile.Program
	parts  dist.PartInfo
	dprogs map[string]*dist.DistProgram
	// txProgs caches each transaction's program (dist.FuseTx) by the
	// tables it updates in first-touch order, each name ended by a zero
	// byte. A recompile empties the cache.
	txProgs map[string]*dist.DistProgram
	cl      *cluster.Cluster
	total   Metrics
	last    Metrics
}

// newDistBackend deploys the program on the cluster the configuration
// names. Partitioning and compiled programs do not depend on the kind of
// worker, so results are bitwise-equal across both at the same worker
// count.
func newDistBackend(prog *compile.Program, cfg *engineConfig) (*distBackend, error) {
	parts := dist.ChoosePartitioning(prog, cfg.keyRanks)
	var cl *cluster.Cluster
	if cfg.remote {
		var err error
		if cl, err = cluster.Connect(inet.TCP{}, cfg.remoteAddrs, dist.ViewSchemas(prog), parts); err != nil {
			return nil, err
		}
	} else {
		cl = cluster.New(cluster.DefaultConfig(cfg.workers), dist.ViewSchemas(prog), parts)
	}
	db := &distBackend{prog: prog, cl: cl}
	db.compile(parts)
	return db, nil
}

// compile compiles the trigger programs against a placement and drops
// every transaction program fused from the old ones.
func (db *distBackend) compile(parts dist.PartInfo) {
	db.parts = parts
	db.dprogs = dist.CompileProgram(db.prog, parts, dist.O3)
	db.txProgs = make(map[string]*dist.DistProgram)
}

// txProgram returns the program of a transaction updating the tables of
// tx in their order, fusing it the first time the sequence occurs. A
// table may appear once: a fused program deals one batch per table.
func (db *distBackend) txProgram(tx []compile.TableBatch) (*dist.DistProgram, error) {
	var key strings.Builder
	for _, tb := range tx {
		key.WriteString(tb.Table)
		key.WriteByte(0)
	}
	if p := db.txProgs[key.String()]; p != nil {
		return p, nil
	}
	progs := make([]*dist.DistProgram, len(tx))
	for i, tb := range tx {
		if progs[i] = db.dprogs[tb.Table]; progs[i] == nil {
			return nil, fmt.Errorf("ivm: no distributed trigger for table %q", tb.Table)
		}
		if slices.Contains(progs[:i], progs[i]) {
			return nil, fmt.Errorf("ivm: transaction updates table %q twice", tb.Table)
		}
	}
	p := dist.FuseTx(progs)
	db.txProgs[key.String()] = p
	return p, nil
}

func (db *distBackend) ApplyTx(tx []compile.TableBatch, capture []string) (map[string]*mring.Relation, error) {
	// Watch exactly the views with subscribers, so the others pay no
	// per-batch sink or clone work.
	db.cl.SetWatch(capture)
	var txm Metrics
	if len(tx) > 0 {
		dp, err := db.txProgram(tx)
		if err != nil {
			return nil, err
		}
		// Workers ingest stream fragments directly (Sec. 6.2): the runtime
		// deals each batch over the workers by its delta's location.
		batches := make([]*mring.Relation, len(tx))
		for i, tb := range tx {
			batches[i] = tb.Batch
		}
		if txm, err = db.cl.RunPartitionedTx(dp, batches); err != nil {
			// Discard whatever the failed transaction captured so the
			// next delivered delta is not polluted by its prefix.
			for _, v := range capture {
				db.cl.TakeWatchDelta(v)
			}
			return nil, err
		}
	}
	db.total.Add(txm)
	db.last = txm
	if len(capture) == 0 {
		return nil, nil
	}
	// Taking the deltas at the commit also advances the cluster's
	// last-committed read cache, so a later failure freezes reads here.
	out := make(map[string]*mring.Relation, len(capture))
	for _, v := range capture {
		out[v] = db.cl.TakeWatchDelta(v)
	}
	return out, nil
}

func (db *distBackend) Warm(bases map[string]*mring.Relation, capture []string) (map[string]*mring.Relation, error) {
	// Evaluate every view definition from scratch on a throwaway local
	// executor, then install the contents across the cluster partitioned
	// by the deployed PartInfo.
	ex := compile.NewExecutor(db.prog)
	ex.InitFromBases(bases)
	contents := make(map[string]*mring.Relation)
	for _, v := range db.prog.Views {
		if v.Transient || expr.HasDelta(v.Def) {
			continue
		}
		contents[v.Name] = ex.View(v.Name)
	}
	if err := db.cl.WarmViews(contents); err != nil {
		return nil, err
	}
	out := make(map[string]*mring.Relation, len(capture))
	for _, v := range capture {
		db.cl.TakeWatchDelta(v) // warm installs bypass the fold capture
		out[v] = db.cl.ViewContents(v)
	}
	return out, nil
}

func (db *distBackend) ViewContents(name string) *mring.Relation {
	return db.cl.ViewContents(name)
}

func (db *distBackend) StopCapture(view string) { db.cl.UnwatchView(view) }

func (db *distBackend) Stats() eval.Stats { return db.cl.Stats }

func (db *distBackend) Close() error { return db.cl.Close() }

func (db *distBackend) TriggerProgram(table string) string {
	dp := db.dprogs[table]
	if dp == nil {
		return ""
	}
	return dp.String()
}

func (db *distBackend) Metrics() (Metrics, Metrics) { return db.total, db.last }

func (db *distBackend) WorkerTimings() []cluster.WorkerTiming { return db.cl.WorkerTimings() }

// SnapshotState captures every node's fragments (driver and workers)
// with the deployed partitioning, so a restore re-warms the same
// deployment shape.
func (db *distBackend) SnapshotState() (*cluster.Checkpoint, error) { return db.cl.Checkpoint() }

// RestoreState installs the checkpoint across the cluster, then adopts
// its recorded partitioning: if the state was captured under another
// placement (the engine that wrote it had other KeyRanks), the
// distributed trigger programs recompile against it so maintenance keeps
// matching the restored fragment placement.
func (db *distBackend) RestoreState(cp *cluster.Checkpoint) error {
	if err := checkViewSchemas(db.prog, cp); err != nil {
		return err
	}
	if err := db.cl.Restore(cp); err != nil {
		return err
	}
	if cp.Parts != nil && !cp.Parts.Equal(db.parts) {
		db.compile(cp.Parts)
	}
	return nil
}
