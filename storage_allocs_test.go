package ivm

import (
	"runtime"
	"testing"

	"repro/internal/tpch"
)

// allocGate is one allocation gate's workload: a query on a backend, fed
// a fixed TPC-H stream kept to a sliding window: each transaction inserts
// the next chunk of events and deletes the chunk inserted window
// transactions before.
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
// transactions, and the bytes they allocate per changed tuple.
func allocsPerChangedTuple(t *testing.T, g allocGate) (allocs, bytes float64) {
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
	var start, end runtime.MemStats
	perRun := testing.AllocsPerRun(g.runs, func() {
		if next == g.warm+1 { // AllocsPerRun's first call is an unmeasured warm-up
			runtime.ReadMemStats(&start)
		}
		if err := eng.Apply(txs[next]); err != nil {
			t.Fatal(err)
		}
		if next > g.warm {
			tuples += changed[next]
		}
		if next == g.warm+g.runs {
			runtime.ReadMemStats(&end)
		}
		next++
	})
	return perRun * float64(g.runs) / float64(tuples), float64(end.TotalAlloc-start.TotalAlloc) / float64(tuples)
}

// allocBound bounds the allocations and the bytes of Apply per changed
// tuple on one gate's stream. Allocation counts do not depend on the
// host, so the bounds are exact.
type allocBound struct {
	name           string
	gate           allocGate
	allocs, nbytes float64
}

func (b allocBound) check(t *testing.T) {
	allocs, bytes := allocsPerChangedTuple(t, b.gate)
	t.Logf("%s: %.3f allocations and %.0f bytes per changed tuple", b.name, allocs, bytes)
	if allocs > b.allocs {
		t.Errorf("allocates %.3f times per changed tuple, want <= %.3f", allocs, b.allocs)
	}
	if bytes > b.nbytes {
		t.Errorf("allocates %.0f bytes per changed tuple, want <= %.0f", bytes, b.nbytes)
	}
}

var (
	q3Gate = allocGate{query: "Q3", chunk: 100, window: 20, warm: 40, runs: 40}

	// Reads 0.005 allocations and under 1 byte; a Go slice per index key
	// read 0.048 allocations.
	q3LocalBound = allocBound{"Q3 local", q3Gate, 0.02, 8}

	// Ten changes per transaction: per-transaction and per-statement
	// costs of serving and evaluation dominate. Reads 0.852 allocations
	// and 90 bytes.
	q1LocalBound = allocBound{"Q1 local with a subscriber",
		allocGate{query: "Q1", subscribe: true, chunk: 10, window: 200, warm: 400, runs: 200}, 1.5, 100}

	// A distributed stage builds no relation of its own: installs refill
	// the fragments a shard owns, an exchange deals rows instead of
	// building a relation per destination, and the simulator sizes a
	// shuffle without encoding it. Reads 0.922 allocations and 94 bytes;
	// building a relation per deal and piece read 3.03 and 1,187.
	q3DistBound = allocBound{"Q3 Distributed(2)", func() allocGate {
		g := q3Gate
		g.opts = []Option{Distributed(2), KeyRanks(tpch.PrimaryKeyRanks)}
		return g
	}(), 1.25, 150}
)

// TestStorageAllocGates is the tier-1 gate on evaluation allocations,
// one row per engine stream. A stored tuple or group costs no allocation
// of its own and scratch relations are reused across statements, so
// what is left per changed tuple is transaction and transport overhead.
func TestStorageAllocGates(t *testing.T) {
	for _, b := range []allocBound{q3LocalBound, q1LocalBound, q3DistBound} {
		t.Run(b.name, b.check)
	}
}

// TestQ3AllocsPerChangedTuple runs the Q3 local row of
// TestStorageAllocGates on its own: a local Q3 engine, 100 stream events
// per transaction.
func TestQ3AllocsPerChangedTuple(t *testing.T) { q3LocalBound.check(t) }

// TestQ1AllocsPerChangedTuple runs the Q1 row of TestStorageAllocGates
// on its own: small transactions on a local engine serving a subscriber.
func TestQ1AllocsPerChangedTuple(t *testing.T) { q1LocalBound.check(t) }

// TestDistributedStageAllocGate runs the Q3 Distributed(2) row of
// TestStorageAllocGates on its own.
func TestDistributedStageAllocGate(t *testing.T) { q3DistBound.check(t) }

// TestPayloadAllocGates holds every relation payload to being written
// once, straight into the WAL record or request it travels in, and read
// in place from the bytes it arrived in. Q1 on a no-fsync log with a
// subscriber logs a record per transaction; Q3 on two in-process TCP
// worker servers ships every deal, piece and fragment both ways, and the
// gate counts the workers' allocations too. Building each payload as
// typed column arrays, encoding it into a buffer of its own and copying
// that into the record or request read 2.46 allocations and 585 bytes
// per changed tuple on Q1, and 9.09 allocations and 1,294 bytes on Q3.
func TestPayloadAllocGates(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	for _, c := range []struct {
		name           string
		gate           allocGate
		allocs, nbytes float64
	}{
		{"Q1 Durable(NoFsync) with a subscriber", allocGate{query: "Q1", subscribe: true, chunk: 10, window: 200, warm: 400, runs: 200,
			opts: []Option{Durable(t.TempDir(), NoFsync())}}, 1.2, 250},
		{"Q3 Remote(2)", allocGate{query: "Q3", chunk: 100, window: 20, warm: 40, runs: 40,
			opts: []Option{Remote(addrs...), KeyRanks(tpch.PrimaryKeyRanks)}}, 7.0, 800},
	} {
		t.Run(c.name, func(t *testing.T) {
			allocs, bytes := allocsPerChangedTuple(t, c.gate)
			t.Logf("%s: %.2f allocations and %.0f bytes per changed tuple", c.name, allocs, bytes)
			if allocs > c.allocs {
				t.Errorf("allocates %.2f times per changed tuple, want <= %.1f", allocs, c.allocs)
			}
			if bytes > c.nbytes {
				t.Errorf("allocates %.0f bytes per changed tuple, want <= %.0f", bytes, c.nbytes)
			}
		})
	}
}

// TestDistributedResultReadAllocGate holds a Result read on
// Distributed(2) to building the view once: the cluster keeps the
// relation it built as its last-committed read cache and hands out that
// one, copying it only if a later commit must fold a delta into it. So a
// read allocates what one copy of the view does plus the stage's fixed
// overhead (17 allocations on this stream); copying each read into the
// cache as well read 51 allocations against a copy's 17. A read kept
// across later commits must not change.
func TestDistributedResultReadAllocGate(t *testing.T) {
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(q.Name, q.Def, q.BaseSchemas(), Distributed(2), KeyRanks(tpch.PrimaryKeyRanks))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Subscribe(func(Delta) {}); err != nil {
		t.Fatal(err)
	}
	stream := tpch.NewStream(tpch.NewGenerator(1, 3), q.Tables)
	for i := 0; i < 120; i++ {
		tx := e.NewTx()
		for _, b := range stream.NextBatches(50) {
			if err := tx.Put(b.Table, &Batch{rel: b.Rel}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Apply(tx); err != nil {
			t.Fatal(err)
		}
	}
	e.Result()
	view := e.Result().rel
	if view.Len() < 100 {
		t.Fatalf("the view holds %d groups: the gate would measure nothing", view.Len())
	}
	read := testing.AllocsPerRun(20, func() { e.Result() })
	clone := testing.AllocsPerRun(20, func() { view.Clone() })
	t.Logf("Result read: %.0f allocations; one copy of the %d-group view: %.0f", read, view.Len(), clone)
	if read > clone+20 {
		t.Errorf("a Result read allocates %.0f times, want <= one copy (%.0f) + 20", read, clone)
	}
	// A read hands out the cache; later commits fold their deltas into a
	// copy and leave the read as it was.
	view = e.Result().rel
	kept := view.Clone()
	for i := 0; i < 20; i++ {
		tx := e.NewTx()
		for _, b := range stream.NextBatches(50) {
			if err := tx.Put(b.Table, &Batch{rel: b.Rel}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Apply(tx); err != nil {
			t.Fatal(err)
		}
	}
	requireBitwiseEqual(t, "a Result read after later commits", view, kept)
	if e.Result().rel.Equal(kept) {
		t.Fatal("20 commits changed no group: the check would prove nothing")
	}
}
