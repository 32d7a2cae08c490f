package ivm

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/mring"
	inet "repro/internal/net"
	"repro/internal/pool"
	"repro/internal/store"
	"repro/internal/wire"
)

// Durable persists the engine to dir: every applied transaction appends
// to a write-ahead log before it is acknowledged, and checkpoints —
// forced through Engine.Checkpoint, automatic with CheckpointEvery, and
// final on Close — snapshot the full materialized state and truncate
// the log. Opening an engine (or registry) on an existing directory
// recovers: the newest valid checkpoint restores every relation's exact
// physical layout and the WAL tail replays through the normal
// maintenance path, so Result and the subscriber delta stream continue
// bitwise-identical to an engine that never crashed, on the local and
// the cluster backends alike (workers re-warm from the recovered
// state). The directory must be private to one engine; the recovered
// engine must be built over the same query, options, and worker count.
//
//	e, _ := ivm.New("Q", q, bases, ivm.Durable("/var/lib/q",
//	    ivm.CheckpointEvery(1000)))
//
// By default the WAL fsyncs on every commit; see GroupCommit and
// NoFsync for the relaxed policies. A WAL or checkpoint I/O failure
// poisons durability: every later Apply/Warm returns the error (an
// unloggable write must not be acknowledged) while reads keep serving.
func Durable(dir string, opts ...DurOpt) Option {
	return func(c *engineConfig) {
		c.durSet = true
		c.durDir = dir
		for _, o := range opts {
			o(&c.dur)
		}
	}
}

// DurOpt configures the Durable option.
type DurOpt func(*durConfig)

// durConfig collects the durability knobs (zero values mean defaults:
// fsync every commit, retain 2 checkpoint generations, checkpoint only
// when forced or on Close).
type durConfig struct {
	syncEvery int
	retain    int
	ckptEvery int
}

// GroupCommit relaxes the WAL sync policy to group commit: the log
// fsyncs every n-th transaction instead of every one, trading crash
// durability of up to n-1 acknowledged transactions for append
// throughput. Checkpoint and Close still sync unconditionally.
// Non-positive n keeps the per-commit default.
func GroupCommit(n int) DurOpt {
	return func(c *durConfig) {
		if n > 0 {
			c.syncEvery = n
		}
	}
}

// NoFsync disables append-time fsyncs entirely: the WAL is written but
// its durability is left to the OS page cache (a crash can lose any
// acknowledged transactions since the last checkpoint, barrier, or
// cache writeback). Checkpoint and Close still sync.
func NoFsync() DurOpt {
	return func(c *durConfig) { c.syncEvery = -1 }
}

// CheckpointEvery checkpoints automatically after every n applied
// transactions (counting Warm), bounding recovery replay to at most n
// records. Without it the log grows until Engine.Checkpoint or Close.
func CheckpointEvery(n int) DurOpt {
	return func(c *durConfig) { c.ckptEvery = n }
}

// RetainCheckpoints keeps the newest n checkpoint generations (default
// 2) as fallbacks against a damaged newest file; older checkpoints and
// the WAL segments before the oldest retained one are garbage-collected
// on each checkpoint.
func RetainCheckpoints(n int) DurOpt {
	return func(c *durConfig) { c.retain = n }
}

// DurabilityStats reports the durability subsystem's state (zero,
// Enabled false, without the Durable option).
type DurabilityStats struct {
	// Enabled reports whether the engine was built with Durable.
	Enabled bool
	// Gen is the active WAL segment's generation (it increments on
	// every checkpoint).
	Gen uint64
	// Applied is the total number of logged transactions over the
	// directory's lifetime — the recovered count plus this process's
	// appends. It equals the changefeed sequence number.
	Applied int64
	// Records, Bytes, and Syncs count this process's WAL appends, their
	// encoded size, and the fsync barriers that covered them.
	Records int64
	Bytes   int64
	Syncs   int64
	// Checkpoints counts checkpoints written by this process;
	// LastCheckpointBytes is the size of the newest one's snapshot body.
	Checkpoints         int64
	LastCheckpointBytes int64
	// Recovery describes what opening the directory found and replayed.
	Recovery RecoveryStats
}

// RecoveryStats describes what a durable open recovered. An engine over
// a fresh directory reports the zero value.
type RecoveryStats struct {
	// Recovered reports whether the directory held any prior state.
	Recovered bool
	// HasCheckpoint reports whether a checkpoint was restored;
	// CheckpointSeq is the number of transactions it covered.
	HasCheckpoint bool
	CheckpointSeq int64
	// ReplayedRecords is the length of the WAL tail replayed after the
	// checkpoint — with CheckpointEvery(n), at most n. Recovery never
	// re-evaluates from base tables; this is all the work it did.
	ReplayedRecords int
	// TornTail reports that the log's final record was incomplete (a
	// crash mid-append) and was dropped.
	TornTail bool
	// SkippedCheckpoints counts newer checkpoint files that failed
	// validation and were passed over for an older generation.
	SkippedCheckpoints int
}

// durable is the runtime state behind the Durable option, guarded by
// the serving backend lock.
type durable struct {
	st        *store.Store
	ckptEvery int
	// applied counts logged transactions over the directory's lifetime;
	// it stays equal to the delta-stream sequence number, which is what
	// makes a recovered changefeed continue with the exact Seq numbers
	// the never-crashed engine would have produced.
	applied   int64
	sinceCkpt int64
	recovery  RecoveryStats
	// err is the durability poison: the first WAL or checkpoint I/O
	// failure sticks, and every later write path returns it.
	err error
	// rec holds the record body being logged, each table's payload
	// written in place after its head by w; both are reused for every
	// record.
	rec wire.Enc
	w   pool.Writer
}

func (d *durable) poison(err error) error {
	if d.err == nil {
		d.err = err
	}
	return err
}

// attachDurability opens (and, on an existing directory, recovers) the
// durable store and hooks it onto the serving half. Called during
// construction with exclusive access: s.prog and s.be are set, no
// subscriber exists yet, so the backend can be mutated freely.
func (s *serving) attachDurability(cfg *engineConfig) error {
	if !cfg.durSet {
		return nil
	}
	st, rec, err := store.Open(cfg.durDir, store.Options{SyncEvery: cfg.dur.syncEvery, Retain: cfg.dur.retain})
	if err != nil {
		return fmt.Errorf("ivm: open durable directory: %w", err)
	}
	rs := RecoveryStats{
		HasCheckpoint:      rec.HasCheckpoint,
		CheckpointSeq:      rec.Seq,
		ReplayedRecords:    len(rec.Records),
		TornTail:           rec.TornTail,
		SkippedCheckpoints: rec.SkippedCheckpoints,
	}
	rs.Recovered = rs.HasCheckpoint || rs.ReplayedRecords > 0 || rs.TornTail
	if rec.HasCheckpoint {
		cp, err := cluster.DecodeCheckpoint(rec.Checkpoint)
		if err != nil {
			st.Close()
			return fmt.Errorf("ivm: recover checkpoint: %w", err)
		}
		if err := s.be.RestoreState(cp); err != nil {
			st.Close()
			return fmt.Errorf("ivm: recover checkpoint: %w", err)
		}
	}
	// Replay the WAL tail through the normal maintenance path: each
	// record rebuilds its update batches in their logged order and folds
	// exactly as the original Apply/Warm did, so the recovered state —
	// iteration order included — matches the never-crashed engine
	// bitwise.
	for i, r := range rec.Records {
		if err := s.replayRecord(r); err != nil {
			st.Close()
			return fmt.Errorf("ivm: replay WAL record %d of %d: %w", i+1, len(rec.Records), err)
		}
	}
	s.seq = rec.Seq + int64(len(rec.Records))
	s.dur = &durable{
		st:        st,
		ckptEvery: cfg.dur.ckptEvery,
		applied:   s.seq,
		recovery:  rs,
	}
	return nil
}

// replayRecord folds one recovered WAL record into the backend, exactly
// as the original call did (capture-free: subscribers re-attach after
// construction, and capture never perturbs maintained state).
func (s *serving) replayRecord(r store.Record) error {
	if r.Kind != store.RecWarm && r.Kind != store.RecTx {
		return fmt.Errorf("ivm: unknown WAL record kind %d", r.Kind)
	}
	tables, err := s.replayTables(r)
	if err != nil {
		return err
	}
	if r.Kind == store.RecTx {
		_, err = s.be.ApplyTx(tables, nil)
		return err
	}
	bases := make(map[string]*mring.Relation, len(s.prog.Bases))
	for _, tb := range tables {
		bases[tb.Table] = tb.Batch
	}
	for n, schema := range s.prog.Bases {
		if bases[n] == nil {
			bases[n] = mring.NewRelation(schema)
		}
	}
	_, err = s.be.Warm(bases, nil)
	return err
}

// replayTables restores each table a WAL record carries, in the record's
// order and each in its logged row order, refusing a table the program
// does not have and a batch of another arity.
func (s *serving) replayTables(r store.Record) ([]compile.TableBatch, error) {
	tables := make([]compile.TableBatch, 0, len(r.Tables))
	for _, tf := range r.Tables {
		schema, ok := s.prog.Bases[tf.Table]
		if !ok {
			return nil, fmt.Errorf("ivm: WAL names unknown table %q; the program changed since the log was written", tf.Table)
		}
		rel, err := inet.RestoreRelationExact(tf.Payload, tf.Buckets, schema)
		if err != nil {
			return nil, fmt.Errorf("ivm: table %q: %w", tf.Table, err)
		}
		if len(rel.Schema()) != len(schema) {
			return nil, fmt.Errorf("ivm: WAL batch for %q has arity %d, schema wants %d", tf.Table, len(rel.Schema()), len(schema))
		}
		tables = append(tables, compile.TableBatch{Table: tf.Table, Batch: rel})
	}
	return tables, nil
}

// logTxLocked appends one validated transaction to the WAL (and, per
// the sync policy, to disk) before it folds. Each batch is written in
// its iteration order, which feeds the float folds, so replay rebuilds
// it in that order.
func (s *serving) logTxLocked(batches []compile.TableBatch) error {
	if s.dur.err != nil {
		return s.dur.err
	}
	d := s.dur
	d.rec.Reset()
	d.rec.B = store.AppendRecordHead(d.rec.B, store.RecTx, len(batches))
	for _, tb := range batches {
		d.appendTable(tb.Table, tb.Batch)
	}
	return d.appendRecord()
}

// logWarmLocked appends the full warm-start contents (every base table,
// empty ones included) as one RecWarm record, in sorted table order.
func (s *serving) logWarmLocked(init map[string]*mring.Relation) error {
	if s.dur.err != nil {
		return s.dur.err
	}
	names := make([]string, 0, len(init))
	for n := range init {
		names = append(names, n)
	}
	sort.Strings(names)
	d := s.dur
	d.rec.Reset()
	d.rec.B = store.AppendRecordHead(d.rec.B, store.RecWarm, len(names))
	for _, n := range names {
		d.appendTable(n, init[n])
	}
	return d.appendRecord()
}

// appendTable writes one table of the record being built: its head, then
// its payload in place.
func (d *durable) appendTable(table string, r *mring.Relation) {
	d.rec.B = store.AppendTableHead(d.rec.B, table, r.TableSize())
	d.rec.B = inet.AppendPayload(d.rec.B, &d.w, r.Schema(), r)
}

// appendRecord logs the record built in rec. A record the log refuses
// for its size fails the write whole without poisoning durability:
// nothing of it was logged.
func (d *durable) appendRecord() error {
	if err := d.st.AppendBody(d.rec.B); err != nil {
		err = fmt.Errorf("ivm: WAL append: %w", err)
		var tooLarge *store.RecordTooLargeError
		if errors.As(err, &tooLarge) {
			return err
		}
		return d.poison(err)
	}
	d.applied++
	d.sinceCkpt++
	return nil
}

// maybeCheckpointLocked runs the automatic snapshotter: after every
// CheckpointEvery logged transactions the state checkpoints and the WAL
// rolls, bounding both the log size and later recovery replay.
func (s *serving) maybeCheckpointLocked() error {
	if s.dur.ckptEvery > 0 && s.dur.sinceCkpt >= int64(s.dur.ckptEvery) {
		return s.checkpointLocked()
	}
	return nil
}

// checkpointLocked snapshots the backend's entire state into a new
// checkpoint generation and rolls the WAL.
func (s *serving) checkpointLocked() error {
	if s.dur.err != nil {
		return s.dur.err
	}
	cp, err := s.be.SnapshotState()
	if err != nil {
		return s.dur.poison(fmt.Errorf("ivm: checkpoint snapshot: %w", err))
	}
	if err := s.dur.st.Checkpoint(s.dur.applied, cluster.EncodeCheckpoint(cp)); err != nil {
		return s.dur.poison(fmt.Errorf("ivm: checkpoint write: %w", err))
	}
	s.dur.sinceCkpt = 0
	return nil
}

// forceCheckpoint is the Engine.Checkpoint / Registry.Checkpoint entry.
func (s *serving) forceCheckpoint() error {
	s.beMu.Lock()
	defer s.beMu.Unlock()
	if s.dur == nil {
		return fmt.Errorf("ivm: Checkpoint on a non-durable engine (build it with the Durable option)")
	}
	if s.closed {
		return fmt.Errorf("ivm: Checkpoint: %w", ErrClosed)
	}
	return s.checkpointLocked()
}

// durabilityStatsLocked assembles the Stats.Durability block.
func (s *serving) durabilityStatsLocked() DurabilityStats {
	if s.dur == nil {
		return DurabilityStats{}
	}
	ss := s.dur.st.Stats()
	return DurabilityStats{
		Enabled:             true,
		Gen:                 ss.Gen,
		Applied:             s.dur.applied,
		Records:             ss.Records,
		Bytes:               ss.Bytes,
		Syncs:               ss.Syncs,
		Checkpoints:         ss.Checkpoints,
		LastCheckpointBytes: ss.LastCheckpointBytes,
		Recovery:            s.dur.recovery,
	}
}
