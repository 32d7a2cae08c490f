package ivm

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/tpch"
)

// TestQ3AllocsPerChangedTuple is the tier-1 gate on evaluation
// allocations. A local Q3 engine is warmed on a fixed TPC-H stream kept
// to a sliding window (each transaction inserts the next chunk of events
// and deletes the chunk inserted window transactions before), then
// testing.AllocsPerRun counts the heap allocations of Apply over the
// following transactions, per changed tuple. Allocation counts do not
// depend on the host, so the bound is exact.
func TestQ3AllocsPerChangedTuple(t *testing.T) {
	const (
		chunk  = 100  // stream events per transaction
		window = 20   // transactions a chunk stays live
		warm   = 40   // transactions before measuring
		runs   = 40   // measured transactions
		bound  = 0.02 // allocations per changed tuple; reads 0.005
	)
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q.Name, q.Def, q.BaseSchemas())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	stream := tpch.NewStream(tpch.NewGenerator(1, 1), q.Tables)
	var chunks [][]tpch.Batch
	var txs []*Tx
	var changed []int
	for i := 0; i < warm+runs+1; i++ {
		chunks = append(chunks, stream.NextBatches(chunk))
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
		if i >= window {
			for _, b := range chunks[i-window] {
				change(b, -1)
			}
		}
		txs, changed = append(txs, tx), append(changed, n)
	}
	for _, tx := range txs[:warm] {
		if err := eng.Apply(tx); err != nil {
			t.Fatal(err)
		}
	}
	next, tuples := warm, 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := eng.Apply(txs[next]); err != nil {
			t.Fatal(err)
		}
		if next > warm { // AllocsPerRun's first call is an unmeasured warm-up
			tuples += changed[next]
		}
		next++
	})
	perTuple := allocs * runs / float64(tuples)
	t.Logf("Q3 local: %.3f allocations per changed tuple (%d tuples over %d transactions)", perTuple, tuples, runs)
	if perTuple > bound {
		t.Fatalf("Q3 local allocates %.3f times per changed tuple, want <= %.2f", perTuple, bound)
	}
}

// TestQ1AllocsPerChangedTuple is the tier-1 allocation gate for small
// transactions, built as TestQ3AllocsPerChangedTuple is: a local Q1
// engine serving one subscriber, warmed on a fixed TPC-H stream kept to a
// sliding window, then the allocations of Apply over the following
// transactions per changed tuple. With ten changes per transaction, the
// per-transaction and per-statement costs of serving and evaluation
// dominate the count.
func TestQ1AllocsPerChangedTuple(t *testing.T) {
	const (
		chunk  = 10  // stream events per transaction
		window = 200 // transactions a chunk stays live
		warm   = 400 // transactions before measuring
		runs   = 200 // measured transactions
		bound  = 6.0 // allocations per changed tuple
	)
	q, err := tpch.QueryByName("Q1")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(q.Name, q.Def, q.BaseSchemas())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Subscribe(func(Delta) {}); err != nil {
		t.Fatal(err)
	}
	stream := tpch.NewStream(tpch.NewGenerator(1, 1), q.Tables)
	var chunks [][]tpch.Batch
	var txs []*Tx
	var changed []int
	for i := 0; i < warm+runs+1; i++ {
		chunks = append(chunks, stream.NextBatches(chunk))
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
		if i >= window {
			for _, b := range chunks[i-window] {
				change(b, -1)
			}
		}
		txs, changed = append(txs, tx), append(changed, n)
	}
	for _, tx := range txs[:warm] {
		if err := eng.Apply(tx); err != nil {
			t.Fatal(err)
		}
	}
	next, tuples := warm, 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := eng.Apply(txs[next]); err != nil {
			t.Fatal(err)
		}
		if next > warm { // AllocsPerRun's first call is an unmeasured warm-up
			tuples += changed[next]
		}
		next++
	})
	perTuple := allocs * runs / float64(tuples)
	t.Logf("Q1 local: %.2f allocations per changed tuple (%d tuples over %d transactions)", perTuple, tuples, runs)
	if perTuple > bound {
		t.Fatalf("Q1 local allocates %.2f times per changed tuple, want <= %.1f", perTuple, bound)
	}
}

// TestQ3TxBuildBytesPerChangedTuple measures what building a
// transaction through the public builder costs the heap: 1,000 Q3
// transactions of 100 changes each, built table by table with NewTx,
// Batch and Change as a client would, and nothing applied. It logs the
// bytes and allocations per changed tuple. Both are fixed for a fixed
// stream and Go release, so the bound is the measured reading plus 10 %;
// bytes per tuple scale with the size of mring.Value.
func TestQ3TxBuildBytesPerChangedTuple(t *testing.T) {
	const (
		txs        = 1000
		perTx      = 100
		bytesBound = 768.0 // bytes per changed tuple: 698.1 measured, plus 10 %
		allocBound = 0.60  // allocations per changed tuple: 0.547 measured, plus 10 %
	)
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	schemas := q.BaseSchemas()
	type change struct {
		table string
		t     Tuple
		mult  float64
	}
	stream := tpch.NewStream(tpch.NewGenerator(14, 1), q.Tables) // 107,100 events
	script := make([][]change, txs)
	for i := range script {
		for j := 0; j < perTx; j++ {
			ev, ok := stream.Next()
			if !ok {
				t.Fatal("stream ended early")
			}
			script[i] = append(script[i], change{ev.Table, ev.Tuple, float64(1 - 2*(j%2))})
		}
		// Table by table, as a script groups its changes.
		slices.SortStableFunc(script[i], func(a, b change) int { return strings.Compare(a.table, b.table) })
	}
	built := make([]*Tx, txs)
	build := func() {
		for i, changes := range script {
			tx := NewTx()
			for _, c := range changes {
				if err := tx.Batch(c.table, schemas[c.table]).Change(c.t, c.mult); err != nil {
					t.Fatal(err)
				}
			}
			built[i] = tx
		}
	}
	// The least of a few passes, so that no other goroutine's allocation
	// is counted.
	bytes, allocs := math.Inf(1), math.Inf(1)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/(txs*perTx))
		allocs = min(allocs, float64(after.Mallocs-before.Mallocs)/(txs*perTx))
	}
	t.Logf("Q3 transaction build: %.1f bytes, %.3f allocations per changed tuple (%d transactions of %d changes)",
		bytes, allocs, txs, perTx)
	if bytes > bytesBound {
		t.Errorf("building a Q3 transaction allocates %.1f bytes per changed tuple, want <= %.1f", bytes, bytesBound)
	}
	if allocs > allocBound {
		t.Errorf("building a Q3 transaction allocates %.3f times per changed tuple, want <= %.3f", allocs, allocBound)
	}
}
