package ivm

import (
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/dist"
	"repro/internal/mring"
	"repro/internal/tpch"
)

// replicatedUpkeep names, per query, the view over customers that the
// placement replicates because its customer trigger already broadcasts
// the upkeep (dist.Place): the orders trigger then joins it in place.
var replicatedUpkeep = map[string]string{"Q3": "M2", "Q10": "M2", "Q18": "M3"}

// upkeepScript is a transaction script over customer, orders and
// lineitem for Q3, Q10 and Q18. Every transaction changes all three
// tables, customers (the replicated views' writer) among them, in a
// first-touch order that rotates; every third one also deletes the
// oldest live customer, order and two lineitems. Its rows are built to
// keep the three results non-empty: half the customers are in Q3's
// segment, orders fall in Q3's and Q10's date windows, a third of the
// lineitems carry Q10's return flag, and each order takes 8 lineitems
// of 40-49 units, past Q18's 300.
func upkeepScript(txs int) [][]tpch.Batch {
	gen := tpch.NewGenerator(0.01, 3)
	var custs, orders, items []mring.Tuple
	var script [][]tpch.Batch
	for i := 0; i < txs; i++ {
		rels := map[string]*mring.Relation{}
		add := func(table string, tp mring.Tuple, m float64) {
			if rels[table] == nil {
				rels[table] = mring.NewRelation(tpch.Schemas[table])
			}
			rels[table].Add(tp, m)
		}
		for j := 0; j < 2; j++ {
			c := gen.Tuple(tpch.Customer)
			c[1] = mring.Int(int64(1 + j)) // c_mktsegment
			custs = append(custs, c)
			add(tpch.Customer, c, 1)
		}
		for j := 0; j < 2; j++ {
			o := gen.Tuple(tpch.Orders)
			o[1] = custs[(3*i+j)%len(custs)][0] // o_custkey
			o[2] = mring.Int([]int64{19931115, 19950101}[j])
			orders = append(orders, o)
			add(tpch.Orders, o, 1)
			for k := 0; k < 8; k++ {
				l := gen.Tuple(tpch.Lineitem)
				l[0] = o[0] // l_orderkey
				l[3] = mring.Float(float64(40 + (i+k)%10))
				l[6] = mring.Int(19950401) // l_shipdate
				l[9] = mring.Int(int64(k % 3))
				items = append(items, l)
				add(tpch.Lineitem, l, 1)
			}
		}
		if i%3 == 2 {
			add(tpch.Customer, custs[0], -1)
			add(tpch.Orders, orders[0], -1)
			add(tpch.Lineitem, items[0], -1)
			add(tpch.Lineitem, items[1], -1)
			custs, orders, items = custs[1:], orders[1:], items[2:]
		}
		tables := []string{tpch.Customer, tpch.Orders, tpch.Lineitem}
		var round []tpch.Batch
		for k := range tables {
			table := tables[(i+k)%len(tables)]
			round = append(round, tpch.Batch{Table: table, Rel: rels[table]})
		}
		script = append(script, round)
	}
	return script
}

// TestReplicatedUpkeepMatchesOracle holds Q3, Q10 and Q18, whose orders
// triggers join a replicated view over customers, equal to the local
// engine and to the oracle after every transaction of upkeepScript, on
// Distributed(2), Remote(2) and a Durable Distributed(2) engine reopened
// halfway from a checkpoint and its log. Remote(2) and the reopened
// engine must be bitwise what Distributed(2) gives.
func TestReplicatedUpkeepMatchesOracle(t *testing.T) {
	script := upkeepScript(18)
	for _, name := range []string{"Q3", "Q10", "Q18"} {
		t.Run(name, func(t *testing.T) {
			q, err := tpch.QueryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			newEngine := func(opts ...Option) *Engine {
				e, err := New(q.Name, q.Def, q.BaseSchemas(), append(opts, KeyRanks(tpch.PrimaryKeyRanks))...)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			local := newEngine()
			defer local.Close()
			dist2 := newEngine(Distributed(2))
			defer dist2.Close()
			if loc := dist2.be.(*distBackend).parts[replicatedUpkeep[name]]; loc.Kind != dist.LIndiff {
				t.Fatalf("%s located %v, want replicated", replicatedUpkeep[name], loc)
			}
			addrs, _ := startWorkers(t, 2)
			remote := newEngine(Remote(addrs...))
			defer remote.Close()
			dir := t.TempDir()
			durable := newEngine(Durable(dir), Distributed(2))

			accum := baseline.Changes{tpch.Customer: nil, tpch.Orders: nil, tpch.Lineitem: nil}
			for i, round := range script {
				if i == len(script)/4 {
					if err := durable.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				if i == len(script)/2 {
					// Reopen without closing, as a crash leaves the directory.
					durable = newEngine(Durable(dir), Distributed(2))
					defer durable.Close()
				}
				for _, e := range []*Engine{local, dist2, remote, durable} {
					applyRound(t, e, round)
				}
				for _, b := range round {
					accum.Add(b.Table, b.Rel)
				}
				label := fmt.Sprintf("tx %d", i)
				want := baseline.Eval(q.Def, baseline.Of(accum))
				if d := baseline.Diff(local.Result().rel, want); d != "" {
					t.Fatalf("%s: local against the oracle: %s", label, d)
				}
				if d := baseline.Diff(dist2.Result().rel, oracleRows(local.Result().rel)); d != "" {
					t.Fatalf("%s: Distributed(2) against local: %s", label, d)
				}
				if d := baseline.Diff(dist2.Result().rel, want); d != "" {
					t.Fatalf("%s: Distributed(2) against the oracle: %s", label, d)
				}
				requireBitwiseEqual(t, label+": Remote(2)", remote.Result().rel, dist2.Result().rel)
				requireBitwiseEqual(t, label+": Durable Distributed(2)", durable.Result().rel, dist2.Result().rel)
			}
			if local.Result().Len() == 0 {
				t.Fatal("empty result: the comparisons proved nothing")
			}
		})
	}
}

// TestRestorePartitionedUpkeepCheckpoint restores a Q3 checkpoint taken
// under the placement that partitions M2 on c_custkey, as engines did
// before replicating it. The restoring engine, which would replicate M2,
// must recompile to the recorded placement, its orders trigger back to
// three stages, and continue bitwise equal to an engine that ran the
// whole stream under that placement, and to the local engine.
func TestRestorePartitionedUpkeepCheckpoint(t *testing.T) {
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
	local := newEngine()
	writer := newEngine(Distributed(2))
	wdb := writer.be.(*distBackend)
	partitioned := wdb.parts.Clone()
	partitioned["M2"] = dist.Dist("c_custkey")
	if partitioned.Equal(wdb.parts) {
		t.Fatal("the placement already partitions M2: the restore would test nothing")
	}
	// The writer adopts the old placement through an empty checkpoint
	// that records it.
	empty := &cluster.Checkpoint{Workers: []map[string]cluster.Frag{{}, {}}, Driver: map[string]cluster.Frag{}, Parts: partitioned}
	if err := wdb.RestoreState(empty); err != nil {
		t.Fatal(err)
	}
	script := upkeepScript(24)
	half := len(script) / 2
	for _, round := range script[:half] {
		applyRound(t, local, round)
		applyRound(t, writer, round)
	}
	cp, err := wdb.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	restored := newEngine(Distributed(2))
	rdb := restored.be.(*distBackend)
	if err := rdb.RestoreState(cp); err != nil {
		t.Fatal(err)
	}
	if !rdb.parts.Equal(partitioned) {
		t.Fatalf("the restore kept M2 at %v, want the recorded %v", rdb.parts["M2"], partitioned["M2"])
	}
	if got := rdb.dprogs[tpch.Orders].Stages(); got != 3 {
		t.Fatalf("orders trigger under the recorded placement runs %d stages, want 3", got)
	}
	for i, round := range script[half:] {
		for _, e := range []*Engine{local, writer, restored} {
			applyRound(t, e, round)
		}
		label := fmt.Sprintf("tx %d after the restore", i)
		requireBitwiseEqual(t, label, restored.Result().rel, writer.Result().rel)
		requireBitwiseEqual(t, label+" against local", restored.Result().rel, local.Result().rel)
	}
	if local.Result().Len() == 0 {
		t.Fatal("empty Q3 result: the comparisons proved nothing")
	}
}

// TestOrdersShuffleIndependentOfState warms Distributed(2) Q3 at one and
// at four times the state, then drives the same orders-only transactions
// into each. A distributed plan moves deltas, never views, so the bytes
// an orders transaction shuffles must not grow with the state: within
// 1.1x, or zero on both sides. Gathering and broadcasting M2 per batch
// grows with the customers.
func TestOrdersShuffleIndependentOfState(t *testing.T) {
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	const customers = 200
	gen := tpch.NewGenerator(0.01, 7)
	var tail []*mring.Relation
	for i := 0; i < 10; i++ {
		r := mring.NewRelation(tpch.Schemas[tpch.Orders])
		for j := 0; j < 4; j++ {
			o := gen.Tuple(tpch.Orders)
			o[0] = mring.Int(int64(1_000_000 + 4*i + j))
			o[1] = mring.Int(int64(1 + (7*i+j)%customers))
			o[2] = mring.Int(19940101)
			r.Add(o, 1)
		}
		tail = append(tail, r)
	}
	perTx := func(scale int) float64 {
		gen := tpch.NewGenerator(0.01, 11)
		warm := map[string]*mring.Relation{}
		for table, n := range map[string]int{tpch.Customer: customers, tpch.Orders: 2 * customers, tpch.Lineitem: 8 * customers} {
			warm[table] = mring.NewRelation(tpch.Schemas[table])
			for k := 0; k < scale*n; k++ {
				tp := gen.Tuple(table)
				switch table {
				case tpch.Orders:
					tp[1] = mring.Int(int64(1 + k%(scale*customers)))
				case tpch.Lineitem:
					tp[0] = mring.Int(int64(1 + k%(scale*2*customers)))
				}
				warm[table].Add(tp, 1)
			}
		}
		e, err := New(q.Name, q.Def, q.BaseSchemas(), Distributed(2), KeyRanks(tpch.PrimaryKeyRanks))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		batches := map[string]*Batch{}
		for table, r := range warm {
			batches[table] = &Batch{rel: r}
		}
		if err := e.Warm(batches); err != nil {
			t.Fatal(err)
		}
		before := e.Metrics().ShuffledBytes
		for _, r := range tail {
			if err := e.ApplyBatch(tpch.Orders, &Batch{rel: r.Clone()}); err != nil {
				t.Fatal(err)
			}
		}
		if e.Result().Len() == 0 {
			t.Fatalf("empty Q3 result at %dx state: the tail joins nothing", scale)
		}
		return float64(e.Metrics().ShuffledBytes-before) / float64(len(tail))
	}
	small, large := perTx(1), perTx(4)
	if (small != 0 || large != 0) && large > 1.1*small {
		t.Fatalf("an orders transaction shuffles %.0f bytes at 4x state, %.0f at 1x: the plan moves a view", large, small)
	}
}
