package ivm

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/mring"
	"repro/internal/tpch"
)

// q3Sequences lists every first-touch order of Q3's tables that updates
// two or three of them: the 6 orders of all three, and both orders of
// each 2-table subset.
func q3Sequences() [][]string {
	c, o, l := tpch.Customer, tpch.Orders, tpch.Lineitem
	return [][]string{
		{c, o, l}, {c, l, o}, {o, c, l}, {o, l, c}, {l, c, o}, {l, o, c},
		{c, o}, {o, c}, {c, l}, {l, c}, {o, l}, {l, o},
	}
}

// q3TxSize is the rows a test transaction takes of each Q3 table.
var q3TxSize = map[string]int{tpch.Customer: 1, tpch.Orders: 5, tpch.Lineitem: 20}

// tableFeed deals a TPC-H stream out table by table: next returns the
// next n rows the stream inserts into one table, buffering the events of
// the others.
type tableFeed struct {
	t       *testing.T
	stream  *tpch.Stream
	pending map[string][]mring.Tuple
}

func newTableFeed(t *testing.T, q tpch.Query, sf float64, seed int64) *tableFeed {
	return &tableFeed{t: t, stream: tpch.NewStream(tpch.NewGenerator(sf, seed), q.Tables), pending: map[string][]mring.Tuple{}}
}

func (f *tableFeed) next(table string, n int) *mring.Relation {
	for len(f.pending[table]) < n {
		ev, ok := f.stream.Next()
		if !ok {
			f.t.Fatalf("stream ran out of %s rows", table)
		}
		f.pending[ev.Table] = append(f.pending[ev.Table], ev.Tuple)
	}
	r := mring.NewRelation(tpch.Schemas[table])
	for _, tp := range f.pending[table][:n] {
		r.Add(tp, 1)
	}
	f.pending[table] = f.pending[table][n:]
	return r
}

// oracleRows reads a relation as the oracle's rows, so baseline.Diff
// compares another relation with it at relative tolerance.
func oracleRows(r *mring.Relation) baseline.Rows {
	var rows baseline.Rows
	r.Foreach(func(t mring.Tuple, m float64) { rows = append(rows, baseline.Row{Tuple: slices.Clone(t), M: m}) })
	return rows
}

// TestFusedTransactionOrders applies Q3 transactions in every first-touch
// order of its three tables and of each pair. Each transaction runs as
// one fused program, so on Distributed(2) and Remote(2) alike it must be
// bitwise what the same batches applied one table at a time give on the
// same backend; the two backends must be bitwise equal; and both must
// equal the local engine at the oracle's tolerance. The backend caches
// exactly one program per distinct sequence.
func TestFusedTransactionOrders(t *testing.T) {
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func(opts ...Option) *Engine {
		e, err := New(q.Name, q.Def, q.BaseSchemas(), append(opts, KeyRanks(tpch.PrimaryKeyRanks))...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	remote := func() Option {
		addrs, _ := startWorkers(t, 2)
		return Remote(addrs...)
	}
	local := newEngine()
	fused := map[string]*Engine{"Distributed(2)": newEngine(Distributed(2)), "Remote(2)": newEngine(remote())}
	oneByOne := map[string]*Engine{"Distributed(2)": newEngine(Distributed(2)), "Remote(2)": newEngine(remote())}

	feed := newTableFeed(t, q, 0.2, 9)
	seqs := q3Sequences()
	for round := 0; round < 2; round++ {
		for _, seq := range seqs {
			tx := NewTx()
			for _, table := range seq {
				if err := tx.Put(table, &Batch{rel: feed.next(table, q3TxSize[table])}); err != nil {
					t.Fatal(err)
				}
			}
			if err := local.Apply(tx); err != nil {
				t.Fatal(err)
			}
			for name, e := range fused {
				if err := e.Apply(tx); err != nil {
					t.Fatalf("%s %v: %v", name, seq, err)
				}
				for _, table := range seq {
					if err := oneByOne[name].ApplyBatch(table, tx.batches[table]); err != nil {
						t.Fatal(err)
					}
				}
				requireBitwiseEqual(t, name+" after "+strings.Join(seq, ","), e.Result().rel, oneByOne[name].Result().rel)
			}
			requireBitwiseEqual(t, "Remote(2) against Distributed(2)", fused["Remote(2)"].Result().rel, fused["Distributed(2)"].Result().rel)
			if d := baseline.Diff(fused["Distributed(2)"].Result().rel, oracleRows(local.Result().rel)); d != "" {
				t.Fatalf("Distributed(2) against local after %v: %s", seq, d)
			}
		}
	}
	if local.Result().Len() == 0 {
		t.Fatal("empty Q3 result: the comparisons proved nothing")
	}
	for name, e := range fused {
		progs := e.be.(*distBackend).txProgs
		if len(progs) != len(seqs) {
			t.Errorf("%s caches %d transaction programs for %d sequences", name, len(progs), len(seqs))
		}
		for _, seq := range seqs {
			p := progs[strings.Join(seq, "\x00")+"\x00"]
			if p == nil || !slices.Equal(p.Relations, seq) {
				t.Errorf("%s: no cached program for %v", name, seq)
			}
		}
	}
}

// TestRestoreRecompilesTransactionPrograms restores Q3 checkpoints into a
// Distributed(2) engine that has cached fused programs. A checkpoint
// taken under other key ranks carries another placement, so the restore
// recompiles the triggers and empties the cache. A checkpoint whose
// placement tags every batch Random, as one written before batches were
// keyed does, restores the same way: its batches are dealt round-robin
// again, and the engine stays equal to the local one.
func TestRestoreRecompilesTransactionPrograms(t *testing.T) {
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func(opts ...Option) *Engine {
		e, err := New(q.Name, q.Def, q.BaseSchemas(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		return e
	}
	var feed *tableFeed
	apply := func(es ...*Engine) {
		t.Helper()
		for _, seq := range q3Sequences() {
			tx := NewTx()
			for _, table := range seq {
				if err := tx.Put(table, &Batch{rel: feed.next(table, q3TxSize[table])}); err != nil {
					t.Fatal(err)
				}
			}
			for _, e := range es {
				if err := e.Apply(tx); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sameAsLocal := func(label string, e, local *Engine) {
		t.Helper()
		if local.Result().Len() == 0 {
			t.Fatalf("%s: empty Q3 result, the comparison would prove nothing", label)
		}
		if d := baseline.Diff(e.Result().rel, oracleRows(local.Result().rel)); d != "" {
			t.Fatalf("%s: %s", label, d)
		}
	}

	// Other ranks: with l_orderkey unranked, lineitem's batches and the
	// views keyed on it are placed otherwise.
	ranks := map[string]int{}
	for k, v := range tpch.PrimaryKeyRanks {
		ranks[k] = v
	}
	ranks["l_orderkey"] = 0
	feed = newTableFeed(t, q, 0.2, 4)
	local := newEngine()
	e := newEngine(Distributed(2), KeyRanks(tpch.PrimaryKeyRanks))
	other := newEngine(Distributed(2), KeyRanks(ranks))
	apply(local, e, other)
	db := e.be.(*distBackend)
	if len(db.txProgs) == 0 {
		t.Fatal("no transaction program cached before the restore")
	}
	cp, err := other.be.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Parts.Equal(db.parts) {
		t.Fatal("the other ranks chose the same placement: the restore would recompile nothing")
	}
	if err := db.RestoreState(cp); err != nil {
		t.Fatal(err)
	}
	if len(db.txProgs) != 0 {
		t.Fatalf("the restore under other key ranks left %d transaction programs cached", len(db.txProgs))
	}
	apply(local, e)
	sameAsLocal("after a restore under other key ranks", e, local)

	// Random batches: the checkpoint of a placement that deals every batch
	// round-robin.
	feed = newTableFeed(t, q, 0.2, 5)
	local = newEngine()
	e = newEngine(Distributed(2), KeyRanks(tpch.PrimaryKeyRanks))
	apply(local, e)
	db = e.be.(*distBackend)
	cp, err = db.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	cp.Parts = cp.Parts.Clone()
	for table := range q.BaseSchemas() {
		cp.Parts[eval.DeltaName(table)] = dist.Random
	}
	restored := newEngine(Distributed(2), KeyRanks(tpch.PrimaryKeyRanks))
	rdb := restored.be.(*distBackend)
	if err := rdb.RestoreState(cp); err != nil {
		t.Fatal(err)
	}
	for table, dp := range rdb.dprogs {
		if loc := dp.Parts[eval.DeltaName(table)]; !loc.Equal(dist.Random) {
			t.Fatalf("%s's batches located %v after the restore, want random", table, loc)
		}
	}
	if got := rdb.dprogs[tpch.Lineitem].Stages(); got != 2 {
		t.Fatalf("lineitem trigger over random batches runs %d stages, want 2 (a repartition first)", got)
	}
	apply(local, restored)
	sameAsLocal("after restoring random batches", restored, local)
}

// TestDistributedTxRefusesRepeatedTable feeds the distributed backend a
// transaction that names one table twice, as only a hand-made WAL record
// can (Tx.Put merges a table's batches). A fused program deals one batch
// per table, so the backend must refuse it rather than fold one batch
// twice.
func TestDistributedTxRefusesRepeatedTable(t *testing.T) {
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(q.Name, q.Def, q.BaseSchemas(), Distributed(2), KeyRanks(tpch.PrimaryKeyRanks))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	b := newTableFeed(t, q, 0.05, 1).next(tpch.Lineitem, 3)
	tx := []compile.TableBatch{{Table: tpch.Lineitem, Batch: b}, {Table: tpch.Lineitem, Batch: b}}
	if _, err := e.be.ApplyTx(tx, nil); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("a transaction naming lineitem twice returned %v, want a refusal", err)
	}
}
