package ivm

import (
	"testing"

	"repro/internal/tpch"
)

// allocGate is one allocation gate's workload: a query on a backend, fed
// the fixed TPC-H stream kept to a sliding window exactly as
// TestQ3AllocsPerChangedTuple and TestQ1AllocsPerChangedTuple feed it.
type allocGate struct {
	query     string
	opts      []Option
	subscribe bool
	chunk     int // stream events per transaction
	window    int // transactions a chunk stays live
	warm      int // transactions before measuring
	runs      int // measured transactions
}

// allocsPerChangedTuple warms an engine on the gate's stream and returns
// the heap allocations of Apply per changed tuple over the following
// transactions.
func allocsPerChangedTuple(t *testing.T, g allocGate) float64 {
	t.Helper()
	q, err := tpch.QueryByName(g.query)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q.Name, q.Def, q.BaseSchemas(), g.opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if g.subscribe {
		if _, err := eng.Subscribe(func(Delta) {}); err != nil {
			t.Fatal(err)
		}
	}
	stream := tpch.NewStream(tpch.NewGenerator(1, 1), q.Tables)
	var chunks [][]tpch.Batch
	var txs []*Tx
	var changed []int
	for i := 0; i < g.warm+g.runs+1; i++ {
		chunks = append(chunks, stream.NextBatches(g.chunk))
		tx, n := eng.NewTx(), 0
		change := func(b tpch.Batch, sign float64) {
			r := NewBatch(b.Rel.Schema())
			r.rel.MergeScaled(b.Rel, sign)
			if err := tx.Put(b.Table, r); err != nil {
				t.Fatal(err)
			}
			n += b.Rel.Len()
		}
		for _, b := range chunks[i] {
			change(b, 1)
		}
		if i >= g.window {
			for _, b := range chunks[i-g.window] {
				change(b, -1)
			}
		}
		txs, changed = append(txs, tx), append(changed, n)
	}
	for _, tx := range txs[:g.warm] {
		if err := eng.Apply(tx); err != nil {
			t.Fatal(err)
		}
	}
	next, tuples := g.warm, 0
	allocs := testing.AllocsPerRun(g.runs, func() {
		if err := eng.Apply(txs[next]); err != nil {
			t.Fatal(err)
		}
		if next > g.warm { // AllocsPerRun's first call is an unmeasured warm-up
			tuples += changed[next]
		}
		next++
	})
	return allocs * float64(g.runs) / float64(tuples)
}

// TestStorageAllocGates holds the slab-and-arena storage to its
// allocation budget: a stored tuple or group costs no allocation of its
// own, and per-statement group tables are reused, so what is left per
// changed tuple is transaction and transport overhead. Each gate runs
// the stream of the matching existing gate (Q3: 100 events per
// transaction; Q1: 10, with a subscriber).
func TestStorageAllocGates(t *testing.T) {
	q3 := allocGate{query: "Q3", chunk: 100, window: 20, warm: 40, runs: 40}
	q3dist := q3
	q3dist.opts = []Option{Distributed(2), KeyRanks(tpch.PrimaryKeyRanks)}
	for _, c := range []struct {
		name  string
		gate  allocGate
		bound float64
	}{
		{"Q3 local", q3, 0.5},
		{"Q1 local with a subscriber", allocGate{query: "Q1", subscribe: true, chunk: 10, window: 200, warm: 400, runs: 200}, 1.5},
		{"Q3 Distributed(2)", q3dist, 4.0},
	} {
		t.Run(c.name, func(t *testing.T) {
			perTuple := allocsPerChangedTuple(t, c.gate)
			t.Logf("%s: %.2f allocations per changed tuple", c.name, perTuple)
			if perTuple > c.bound {
				t.Fatalf("%s allocates %.2f times per changed tuple, want <= %.1f", c.name, perTuple, c.bound)
			}
		})
	}
}
