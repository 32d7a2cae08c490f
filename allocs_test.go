package ivm

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/tpch"
)

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
		bytesBound = 440.0 // bytes per changed tuple: 399.6 measured, plus 10 %
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
