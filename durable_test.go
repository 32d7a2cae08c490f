package ivm

// Crash-recovery goldens for the durability subsystem: an engine killed
// at an arbitrary committed transaction and reopened from its directory
// must serve a Result — and continue its subscriber delta stream —
// bitwise-identical to an engine that never crashed, on the local
// backend, the simulated cluster, and the process cluster (where the
// workers themselves restart empty and re-warm from recovered state).

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/store"
	"repro/internal/tpch"
)

// txRounds pre-generates the query's update stream as multi-table
// transaction rounds, so the same logical stream can replay into any
// number of engines (each gets its own clone of the batch relations).
func txRounds(t *testing.T, q tpch.Query, sf float64, rows int) [][]tpch.Batch {
	t.Helper()
	gen := tpch.NewGenerator(sf, 5)
	stream := tpch.NewStream(gen, q.Tables)
	var rounds [][]tpch.Batch
	for {
		bs := stream.NextBatches(rows)
		if len(bs) == 0 {
			return rounds
		}
		rounds = append(rounds, bs)
	}
}

// applyRound folds one round as a single transaction.
func applyRound(t *testing.T, e *Engine, round []tpch.Batch) {
	t.Helper()
	tx := NewTx()
	for _, b := range round {
		if err := tx.Put(b.Table, &Batch{rel: b.Rel.Clone()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Apply(tx); err != nil {
		t.Fatal(err)
	}
}

// collectDeltas subscribes a plain feed that renders every delivered
// delta (Seq included) into the returned slice.
func collectDeltas(t *testing.T, e *Engine) *[]string {
	t.Helper()
	var got []string
	if _, err := e.Subscribe(func(d Delta) { got = append(got, d.String()) }); err != nil {
		t.Fatal(err)
	}
	return &got
}

// TestDurableRecoveryGolden is the PR's acceptance golden: for Q1, Q3,
// and Q6 on the local and the 1- and 8-worker simulated cluster
// backends, kill a durable engine (no Close — the directory is exactly
// what a crash leaves) two thirds into the stream with a checkpoint
// forced one third in, reopen it, and require (a) recovery restored the
// checkpoint and replayed exactly the WAL tail after it, and (b) the
// recovered engine's Result and its changefeed over the remaining
// stream are bitwise-equal to a never-crashed engine's.
func TestDurableRecoveryGolden(t *testing.T) {
	backends := []struct {
		name string
		opts []Option
	}{
		{"local", nil},
		{"distributed1", []Option{Distributed(1), KeyRanks(tpch.PrimaryKeyRanks)}},
		{"distributed8", []Option{Distributed(8), KeyRanks(tpch.PrimaryKeyRanks)}},
	}
	for _, name := range []string{"Q1", "Q3", "Q6"} {
		q, err := tpch.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rounds := txRounds(t, q, 0.1, 50)
		if len(rounds) < 6 {
			t.Fatalf("stream too short for a meaningful crash point: %d rounds", len(rounds))
		}
		ckptAt, killAt := len(rounds)/3, 2*len(rounds)/3
		for _, be := range backends {
			t.Run(name+"/"+be.name, func(t *testing.T) {
				bases := q.BaseSchemas()

				// The never-crashed oracle observes the whole stream, with
				// a changefeed attached from the start.
				oracle, err := New(q.Name, q.Def, bases, be.opts...)
				if err != nil {
					t.Fatal(err)
				}
				oracleDeltas := collectDeltas(t, oracle)
				for _, round := range rounds {
					applyRound(t, oracle, round)
				}

				// The victim logs every transaction, checkpoints at
				// ckptAt, and is abandoned un-Closed at killAt.
				dir := t.TempDir()
				victim, err := New(q.Name, q.Def, bases, append([]Option{Durable(dir)}, be.opts...)...)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < killAt; i++ {
					applyRound(t, victim, rounds[i])
					if i+1 == ckptAt {
						if err := victim.Checkpoint(); err != nil {
							t.Fatal(err)
						}
					}
				}

				// Crash: no Close, no final checkpoint, no WAL flush
				// beyond the per-commit syncs.
				recovered, err := New(q.Name, q.Def, bases, append([]Option{Durable(dir)}, be.opts...)...)
				if err != nil {
					t.Fatalf("recovery: %v", err)
				}
				defer recovered.Close()

				rec := recovered.Stats().Durability.Recovery
				if !rec.Recovered || !rec.HasCheckpoint {
					t.Fatalf("recovery did not use the checkpoint: %+v", rec)
				}
				if rec.CheckpointSeq != int64(ckptAt) {
					t.Fatalf("checkpoint covered %d transactions, want %d", rec.CheckpointSeq, ckptAt)
				}
				// Tail-only replay: everything up to the checkpoint came
				// from the snapshot, never from re-evaluating base tables.
				if rec.ReplayedRecords != killAt-ckptAt {
					t.Fatalf("replayed %d records, want exactly the WAL tail %d", rec.ReplayedRecords, killAt-ckptAt)
				}

				// The surviving stream: both engines process the rest;
				// the recovered feed must continue bitwise-identical,
				// sequence numbers included.
				recDeltas := collectDeltas(t, recovered)
				for i := killAt; i < len(rounds); i++ {
					applyRound(t, recovered, rounds[i])
				}
				requireBitwiseEqual(t, "recovered result", recovered.Result().rel, oracle.Result().rel)
				tail := (*oracleDeltas)[killAt:]
				if len(*recDeltas) != len(tail) {
					t.Fatalf("recovered feed has %d deltas, oracle tail has %d", len(*recDeltas), len(tail))
				}
				for i := range tail {
					if (*recDeltas)[i] != tail[i] {
						t.Fatalf("delta %d diverged after recovery\n got %s\nwant %s", i, (*recDeltas)[i], tail[i])
					}
				}
			})
		}
	}
}

// TestDurableReopenAdoptsRecordedPlacement pins that a checkpoint's
// recorded placement wins over the one the reopening engine would
// compile: a durable Distributed(2) Q3 engine under the TPC-H key ranks
// is abandoned with a checkpoint and a WAL tail, then reopened with the
// customer keys ranked above the order keys, which picks another
// placement. Recovery must adopt the recorded one, and after the rest of
// the stream the result must be bitwise the uninterrupted engine's.
func TestDurableReopenAdoptsRecordedPlacement(t *testing.T) {
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	bases := q.BaseSchemas()
	rounds := txRounds(t, q, 0.1, 50)
	if len(rounds) < 6 {
		t.Fatalf("stream too short for a meaningful crash point: %d rounds", len(rounds))
	}
	ckptAt, killAt := len(rounds)/3, 2*len(rounds)/3
	ranks := map[string]int{}
	for col, r := range tpch.PrimaryKeyRanks {
		ranks[col] = r
	}
	ranks["o_custkey"], ranks["c_custkey"] = 7, 7

	oracle, err := New(q.Name, q.Def, bases, Distributed(2), KeyRanks(tpch.PrimaryKeyRanks))
	if err != nil {
		t.Fatal(err)
	}
	for _, round := range rounds {
		applyRound(t, oracle, round)
	}
	dir := t.TempDir()
	victim, err := New(q.Name, q.Def, bases, Durable(dir), Distributed(2), KeyRanks(tpch.PrimaryKeyRanks))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < killAt; i++ {
		applyRound(t, victim, rounds[i])
		if i+1 == ckptAt {
			if err := victim.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}

	recovered, err := New(q.Name, q.Def, bases, Durable(dir), Distributed(2), KeyRanks(ranks))
	if err != nil {
		t.Fatalf("reopen under other key ranks: %v", err)
	}
	defer recovered.Close()
	recorded := victim.be.(*distBackend).parts
	if dist.ChoosePartitioning(recovered.prog, ranks).Equal(recorded) {
		t.Fatal("the other key ranks pick Q3's recorded placement; the reopen tests nothing")
	}
	if got := recovered.be.(*distBackend).parts; !got.Equal(recorded) {
		t.Fatalf("reopen kept its own placement %v, want the recorded %v", got, recorded)
	}
	for i := killAt; i < len(rounds); i++ {
		applyRound(t, recovered, rounds[i])
	}
	requireBitwiseEqual(t, "reopened result", recovered.Result().rel, oracle.Result().rel)
}

// TestDurableRefusesVersion1Checkpoint pins the checkpoint format
// boundary: a directory whose newest checkpoint has an older body fails
// to open with an error naming the version; it is never decoded as the
// current format. Version 1 was gob, written by earlier builds; version 2
// is the current layout under keys placed by the float-rounded hash, and
// version 3 the current layout with a distributed engine's per-batch
// scratch in it.
func TestDurableRefusesVersion1Checkpoint(t *testing.T) {
	q, err := tpch.QueryByName("Q6")
	if err != nil {
		t.Fatal(err)
	}
	bases := q.BaseSchemas()
	for _, version := range []byte{1, 2, 3} {
		dir := t.TempDir()
		e, err := New(q.Name, q.Def, bases, Durable(dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, round := range txRounds(t, q, 0.1, 50)[:2] {
			applyRound(t, e, round)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		st, rec, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		body := []byte("IVCP\x01 a gob body")
		if version > 1 {
			body = append([]byte(nil), rec.Checkpoint...)
			body[len("IVCP")] = version
		}
		if err := st.Checkpoint(rec.Seq, body); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("version %d", version)
		if _, err := New(q.Name, q.Def, bases, Durable(dir)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("open over a version-%d checkpoint: got %v, want a version error", version, err)
		}
	}
}

// TestDurableCleanShutdownZeroReplay pins satellite 2: Close flushes
// the WAL and writes a final checkpoint, so reopening the directory
// recovers from the checkpoint alone — zero replayed records — and
// still serves a bitwise-identical Result.
func TestDurableCleanShutdownZeroReplay(t *testing.T) {
	q, err := tpch.QueryByName("Q6")
	if err != nil {
		t.Fatal(err)
	}
	bases := q.BaseSchemas()
	rounds := txRounds(t, q, 0.1, 50)

	oracle, err := New(q.Name, q.Def, bases)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	first, err := New(q.Name, q.Def, bases, Durable(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, round := range rounds {
		applyRound(t, oracle, round)
		applyRound(t, first, round)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := New(q.Name, q.Def, bases, Durable(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	rec := reopened.Stats().Durability.Recovery
	if !rec.HasCheckpoint || rec.ReplayedRecords != 0 {
		t.Fatalf("clean shutdown should recover with zero replay, got %+v", rec)
	}
	if rec.CheckpointSeq != int64(len(rounds)) {
		t.Fatalf("final checkpoint covered %d transactions, want %d", rec.CheckpointSeq, len(rounds))
	}
	requireBitwiseEqual(t, "reopened result", reopened.Result().rel, oracle.Result().rel)
}

// TestDurableWarmRecovery pins the RecWarm replay path: a warm start is
// logged like a transaction, and a crash right after it (plus a few
// streamed transactions, no checkpoint at all) recovers by replaying
// the whole log from an empty backend.
func TestDurableWarmRecovery(t *testing.T) {
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	bases := q.BaseSchemas()
	rounds := txRounds(t, q, 0.1, 100)
	warm := map[string]*Batch{}
	for _, b := range rounds[0] {
		warm[b.Table] = &Batch{rel: b.Rel.Clone()}
	}

	oracle, err := New(q.Name, q.Def, bases)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	victim, err := New(q.Name, q.Def, bases, Durable(dir))
	if err != nil {
		t.Fatal(err)
	}
	warmOracle := map[string]*Batch{}
	for tbl, b := range warm {
		warmOracle[tbl] = &Batch{rel: b.rel.Clone()}
	}
	if err := oracle.Warm(warmOracle); err != nil {
		t.Fatal(err)
	}
	if err := victim.Warm(warm); err != nil {
		t.Fatal(err)
	}
	for _, round := range rounds[1:4] {
		applyRound(t, oracle, round)
		applyRound(t, victim, round)
	}

	recovered, err := New(q.Name, q.Def, bases, Durable(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer recovered.Close()
	rec := recovered.Stats().Durability.Recovery
	if rec.HasCheckpoint || rec.ReplayedRecords != 4 {
		t.Fatalf("want checkpoint-less replay of warm+3 txs, got %+v", rec)
	}
	requireBitwiseEqual(t, "recovered result", recovered.Result().rel, oracle.Result().rel)
}

// TestDurableRemoteRecovery pins the process-cluster recovery model:
// the WAL and checkpoints live on the driver, so when the engine dies
// AND every worker process dies with their state, reopening the
// directory against fresh empty workers re-warms them from the
// recovered checkpoint (opRestore) and replays the tail through them.
func TestDurableRemoteRecovery(t *testing.T) {
	q, err := tpch.QueryByName("Q6")
	if err != nil {
		t.Fatal(err)
	}
	bases := q.BaseSchemas()
	rounds := txRounds(t, q, 0.1, 50)
	if len(rounds) < 4 {
		t.Fatalf("stream too short: %d rounds", len(rounds))
	}
	ckptAt, killAt := len(rounds)/4, len(rounds)/2
	const workers = 2

	// The never-crashed oracle: the simulated cluster at the same
	// worker count (process-cluster parity is bitwise, pinned by
	// TestGoldenProcessClusterParity).
	oracle, err := New(q.Name, q.Def, bases, Distributed(workers), KeyRanks(tpch.PrimaryKeyRanks))
	if err != nil {
		t.Fatal(err)
	}
	oracleDeltas := collectDeltas(t, oracle)
	for _, round := range rounds {
		applyRound(t, oracle, round)
	}

	dir := t.TempDir()
	addrs, srvs := startWorkers(t, workers)
	victim, err := New(q.Name, q.Def, bases,
		Remote(addrs...), KeyRanks(tpch.PrimaryKeyRanks), Durable(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < killAt; i++ {
		applyRound(t, victim, rounds[i])
		if i+1 == ckptAt {
			if err := victim.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash the whole deployment: driver abandoned, workers killed with
	// all their in-memory fragments.
	for _, s := range srvs {
		s.Close()
	}

	addrs2, _ := startWorkers(t, workers)
	recovered, err := New(q.Name, q.Def, bases,
		Remote(addrs2...), KeyRanks(tpch.PrimaryKeyRanks), Durable(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer recovered.Close()
	rec := recovered.Stats().Durability.Recovery
	if !rec.HasCheckpoint || rec.ReplayedRecords != killAt-ckptAt {
		t.Fatalf("want checkpoint + %d-record tail replay, got %+v", killAt-ckptAt, rec)
	}
	recDeltas := collectDeltas(t, recovered)
	for i := killAt; i < len(rounds); i++ {
		applyRound(t, recovered, rounds[i])
	}
	requireBitwiseEqual(t, "recovered remote result", recovered.Result().rel, oracle.Result().rel)
	tail := (*oracleDeltas)[killAt:]
	if len(*recDeltas) != len(tail) {
		t.Fatalf("recovered feed has %d deltas, oracle tail has %d", len(*recDeltas), len(tail))
	}
	for i := range tail {
		if (*recDeltas)[i] != tail[i] {
			t.Fatalf("delta %d diverged after remote recovery\n got %s\nwant %s", i, (*recDeltas)[i], tail[i])
		}
	}
}

// TestDurableRegistryRecovery runs the multi-view serving path through
// a crash: two registered views over one shared program, killed
// mid-stream, must both recover bitwise.
func TestDurableRegistryRecovery(t *testing.T) {
	q1, err := tpch.QueryByName("Q1")
	if err != nil {
		t.Fatal(err)
	}
	q6, err := tpch.QueryByName("Q6")
	if err != nil {
		t.Fatal(err)
	}
	bases := map[string]Schema{}
	for n, s := range q1.BaseSchemas() {
		bases[n] = s
	}
	for n, s := range q6.BaseSchemas() {
		bases[n] = s
	}
	rounds := txRounds(t, q1, 0.1, 50) // lineitem stream feeds both queries
	killAt := len(rounds) / 2

	build := func(opts ...Option) *Registry {
		r, err := NewRegistry(bases, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Register("pricing", q1.Def); err != nil {
			t.Fatal(err)
		}
		if err := r.Register("discount", q6.Def); err != nil {
			t.Fatal(err)
		}
		return r
	}
	applyRegRound := func(r *Registry, round []tpch.Batch) {
		tx := r.NewTx()
		for _, b := range round {
			if err := tx.Put(b.Table, &Batch{rel: b.Rel.Clone()}); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Apply(tx); err != nil {
			t.Fatal(err)
		}
	}

	oracle := build()
	for _, round := range rounds {
		applyRegRound(oracle, round)
	}

	dir := t.TempDir()
	victim := build(Durable(dir, CheckpointEvery(3)))
	for i := 0; i < killAt; i++ {
		applyRegRound(victim, rounds[i])
	}

	recovered := build(Durable(dir, CheckpointEvery(3)))
	defer recovered.Close()
	for i := killAt; i < len(rounds); i++ {
		applyRegRound(recovered, rounds[i])
	}
	st, err := recovered.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Durability.Recovery.Recovered {
		t.Fatalf("registry did not recover: %+v", st.Durability.Recovery)
	}
	if got := st.Durability.Recovery.ReplayedRecords; got >= killAt {
		t.Fatalf("CheckpointEvery(3) should bound replay below %d, replayed %d", killAt, got)
	}
	for _, view := range []string{"pricing", "discount"} {
		got, err := recovered.Result(view)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Result(view)
		if err != nil {
			t.Fatal(err)
		}
		requireBitwiseEqual(t, "registry view "+view, got.rel, want.rel)
	}
}

// TestDurableMisuse pins the construction and runtime error surface.
func TestDurableMisuse(t *testing.T) {
	q, err := tpch.QueryByName("Q6")
	if err != nil {
		t.Fatal(err)
	}
	bases := q.BaseSchemas()
	if _, err := New(q.Name, q.Def, bases, Durable("")); err == nil {
		t.Fatal("Durable(\"\") should be rejected")
	}
	e, err := New(q.Name, q.Def, bases)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err == nil || !strings.Contains(err.Error(), "Durable") {
		t.Fatalf("Checkpoint on a non-durable engine: %v", err)
	}

	// A directory written under one program must not silently restore
	// into a different one.
	dir := t.TempDir()
	d, err := New(q.Name, q.Def, bases, Durable(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, round := range txRounds(t, q, 0.03, 80)[:2] {
		applyRound(t, d, round)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	q1, err := tpch.QueryByName("Q1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(q1.Name, q1.Def, q1.BaseSchemas(), Durable(dir)); err == nil {
		t.Fatal("recovering a Q6 directory into a Q1 engine should fail")
	} else if !strings.Contains(err.Error(), "view") && !strings.Contains(err.Error(), "table") {
		t.Fatalf("want a program-mismatch error, got: %v", err)
	}

	// Nor into a program whose views keep their names and arities but
	// bind other columns, as a recompiled join plan's do. The check goes
	// by column names, so it rejects a mere renaming too.
	rs := map[string]Schema{"R": {"a", "b"}, "S": {"b", "c"}}
	dir = t.TempDir()
	d, err = New("Q", Sum([]string{"a"}, Join(Table("R", "a", "b"), Table("S", "b", "c"))), rs, Durable(dir))
	if err != nil {
		t.Fatal(err)
	}
	tx := d.NewTx()
	if err := tx.Insert("S", Row(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(tx); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	renamed := Sum([]string{"a"}, Join(Table("R", "a", "c"), Table("S", "c", "b")))
	if _, err := New("Q", renamed, rs, Durable(dir)); err == nil || !strings.Contains(err.Error(), "program changed") {
		t.Fatalf("recovering into a program whose views bind other columns: %v, want a program-mismatch error", err)
	}
}

// TestDurableGroupCommitStats pins the relaxed sync policies at the
// engine surface: group commit issues fewer fsyncs than appends, and
// the stats expose both counters.
func TestDurableGroupCommitStats(t *testing.T) {
	q, err := tpch.QueryByName("Q6")
	if err != nil {
		t.Fatal(err)
	}
	bases := q.BaseSchemas()
	rounds := txRounds(t, q, 0.1, 50)
	if len(rounds) < 8 {
		t.Fatalf("stream too short: %d rounds", len(rounds))
	}
	e, err := New(q.Name, q.Def, bases, Durable(t.TempDir(), GroupCommit(4)))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, round := range rounds[:8] {
		applyRound(t, e, round)
	}
	ds := e.Stats().Durability
	if !ds.Enabled {
		t.Fatal("Durability.Enabled false on a durable engine")
	}
	if ds.Records != 8 || ds.Applied != 8 {
		t.Fatalf("want 8 records applied, got %+v", ds)
	}
	if ds.Syncs != 2 {
		t.Fatalf("GroupCommit(4) over 8 appends wants 2 syncs, got %d", ds.Syncs)
	}
	if ds.Bytes <= 0 {
		t.Fatalf("WAL bytes not counted: %+v", ds)
	}
	// Sanity: the stats stringer-free struct renders (no stale fields).
	_ = fmt.Sprintf("%+v", ds)
}

// TestDurableOversizedRecordDoesNotPoison pins that a record the log
// refuses for its size fails that write alone: nothing of it was logged,
// so durability is not poisoned, the applied count does not move, later
// transactions log and ack as before, and the directory recovers them.
// The oversized body is never touched before the refusal.
func TestDurableOversizedRecordDoesNotPoison(t *testing.T) {
	q, err := tpch.QueryByName("Q6")
	if err != nil {
		t.Fatal(err)
	}
	bases := q.BaseSchemas()
	rounds := txRounds(t, q, 0.1, 50)[:4]
	oracle, err := New(q.Name, q.Def, bases)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	e, err := New(q.Name, q.Def, bases, Durable(dir, NoFsync()))
	if err != nil {
		t.Fatal(err)
	}
	applyRound(t, oracle, rounds[0])
	applyRound(t, e, rounds[0])

	e.beMu.Lock()
	e.dur.rec.B = make([]byte, store.MaxRecord+1)
	err = e.dur.appendRecord()
	poisoned, applied := e.dur.err, e.dur.applied
	e.beMu.Unlock()
	if err == nil || !strings.Contains(err.Error(), "exceeds MaxRecord") {
		t.Fatalf("oversized record: got %v, want a refusal", err)
	}
	if poisoned != nil || applied != 1 {
		t.Fatalf("the refusal poisoned durability (%v) or counted the record (applied %d)", poisoned, applied)
	}

	for _, round := range rounds[1:] {
		applyRound(t, oracle, round)
		applyRound(t, e, round)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := New(q.Name, q.Def, bases, Durable(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Stats().Durability.Applied; got != int64(len(rounds)) {
		t.Fatalf("recovered %d transactions, want %d", got, len(rounds))
	}
	requireBitwiseEqual(t, "reopened result", reopened.Result().rel, oracle.Result().rel)
}

// TestSnapshotHoldsOnlyPersistentViews pins what a checkpoint keeps: the
// program's persistent views, on the driver and on every worker. A
// transaction writes every transient pre-aggregate, Δ batch and movement
// temporary before it reads it, and their arity is the compiler's
// choice, so a snapshot that kept them (as the distributed one did up to
// checkpoint version 3) would refuse to restore under a program that
// folds a value term into a pre-aggregate, though every view it needs is
// intact.
func TestSnapshotHoldsOnlyPersistentViews(t *testing.T) {
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []struct {
		name string
		opts []Option
	}{
		{"local", nil},
		{"Distributed(2)", []Option{Distributed(2), KeyRanks(tpch.PrimaryKeyRanks)}},
	} {
		e, err := New(q.Name, q.Def, q.BaseSchemas(), backend.opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		for _, round := range txRounds(t, q, 0.05, 50)[:4] {
			applyRound(t, e, round)
		}
		cp, err := e.be.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		kept := 0
		for _, frags := range append([]map[string]cluster.Frag{cp.Driver}, cp.Workers...) {
			for name := range frags {
				if v := e.prog.View(name); v == nil || v.Transient {
					t.Errorf("%s: the checkpoint keeps %q, which is no persistent view", backend.name, name)
				}
				kept++
			}
		}
		if kept == 0 {
			t.Errorf("%s: the checkpoint keeps no view", backend.name)
		}
	}
}
