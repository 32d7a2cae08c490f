package ivm

// Golden-result gate for the unified engine API: the TPC-H aggregate
// queries (Q1-style group-bys) must produce identical results through
// every execution plane — ivm.New's local backend and its distributed
// backend at 1, 8, and 16 workers — and equal the oracle
// (internal/baseline), which recomputes the query naively from every
// change fed to the base tables. Every engine here runs on the test
// goroutine — the simulated cluster runs its shards inline on it
// (DESIGN.md §4) — so -race (make test) certifies no concurrency in
// these tests; the concurrent fan-out to process workers is raced where
// Remote backends run, as in TestKernelFoldsOnEveryBackend.

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/dist"
	"repro/internal/mring"
	"repro/internal/tpch"
)

// goldenScript is q's stream at SF 0.03 (seed 5), each batch a round.
func goldenScript(q tpch.Query) [][]tpch.Batch {
	return batchRounds(tpch.NewStream(tpch.NewGenerator(0.03, 5), q.Tables), 250, -1)
}

// batchRounds draws a stream calls times (to its end when calls is
// negative), rows events at a time; each batch is a round of its own.
func batchRounds(stream *tpch.Stream, rows, calls int) [][]tpch.Batch {
	var rounds [][]tpch.Batch
	for ; calls != 0; calls-- {
		bs := stream.NextBatches(rows)
		if len(bs) == 0 {
			break
		}
		for _, b := range bs {
			rounds = append(rounds, []tpch.Batch{b})
		}
	}
	return rounds
}

// TestGoldenAggregatesAcrossEngines holds Q1, Q3 and Q6 on the local
// engine to the rebuild oracle, and Distributed(1), (8) and (16) to the
// local engine, both at 1e-6 with equal group counts.
func TestGoldenAggregatesAcrossEngines(t *testing.T) {
	var rows []row
	for _, name := range []string{"Q1", "Q3", "Q6"} {
		q, err := tpch.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		lanes := []lane{oracleLane(localLane())}
		for _, w := range []int{1, 8, 16} {
			l := distLane(w)
			l.ref = approx
			lanes = append(lanes, l)
		}
		r := tpchRow(name, q, goldenScript(q), lanes...)
		r.tol = approx
		rows = append(rows, r)
	}
	runRows(t, rows...)
}

// TestGoldenTxEqualsSequential pins the transaction semantics: folding
// one Apply(tx) over several tables produces exactly the same state as
// applying the same per-table batches as sequential single-table
// batches (in tx order), and both equal the rebuild oracle. Checked on
// both backends.
func TestGoldenTxEqualsSequential(t *testing.T) {
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	bases := q.BaseSchemas()
	newEngines := func(opts ...Option) (txEng, seqEng *Engine) {
		txEng, err := New(q.Name, q.Def, bases, opts...)
		if err != nil {
			t.Fatal(err)
		}
		seqEng, err = New(q.Name, q.Def, bases, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return txEng, seqEng
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"local", nil},
		{"distributed8", []Option{Distributed(8), KeyRanks(tpch.PrimaryKeyRanks)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			txEng, seqEng := newEngines(tc.opts...)

			// Group the stream into multi-table transactions: all batches
			// of one stream round form one Tx.
			gen := tpch.NewGenerator(0.03, 7)
			accum := baseline.Changes{}
			for _, tbl := range q.Tables {
				accum[tbl] = nil
			}
			stream := tpch.NewStream(gen, q.Tables)
			for {
				bs := stream.NextBatches(300)
				if len(bs) == 0 {
					break
				}
				tx := txEng.NewTx()
				for _, b := range bs {
					tx.Put(b.Table, &Batch{rel: b.Rel.Clone()})
					if err := seqEng.ApplyBatch(b.Table, &Batch{rel: b.Rel.Clone()}); err != nil {
						t.Fatal(err)
					}
					accum.Add(b.Table, b.Rel)
				}
				if err := txEng.Apply(tx); err != nil {
					t.Fatal(err)
				}
			}

			got, want := txEng.Result().rel, seqEng.Result().rel
			if !got.Equal(want) {
				t.Fatalf("Apply(tx) diverged from sequential batches\n got %v\nwant %v", got, want)
			}
			oracle := relationOf(q.Def.Schema(), baseline.Eval(q.Def, baseline.Of(accum)))
			if !got.EqualApprox(oracle, 1e-6) {
				t.Fatalf("Apply(tx) diverged from rebuild oracle\n got %v\nwant %v", got, oracle)
			}
		})
	}
}

// TestGoldenDistributedDeterminism pins the merge-order guarantee: two
// distributed deployments fed the identical stream produce bitwise-equal
// group values, because per-worker group tables always merge in
// worker-index order (goroutine completion order never influences the
// result).
func TestGoldenDistributedDeterminism(t *testing.T) {
	q, err := tpch.QueryByName("Q1")
	if err != nil {
		t.Fatal(err)
	}
	again := distLane(8)
	again.name += " again"
	runRows(t, tpchRow("", q, goldenScript(q), distLane(8), again))
}

// TestGoldenQ1GroupDomain is the literal golden check for the Q1-style
// aggregate: the pricing-summary group domain is the cross product of
// return flags and line statuses the generator emits, and every group
// value must be strictly positive (sums of quantities).
func TestGoldenQ1GroupDomain(t *testing.T) {
	q, err := tpch.QueryByName("Q1")
	if err != nil {
		t.Fatal(err)
	}
	r := tpchRow("", q, goldenScript(q), localLane())
	r.check = func(t *testing.T, lanes map[string]*laneRun) {
		lanes["local"].e.Result().Foreach(func(tp Tuple, agg float64) {
			if len(tp) != 2 {
				t.Fatalf("Q1 group arity %d, want 2 (returnflag, linestatus): %v", len(tp), tp)
			}
			if agg <= 0 {
				t.Errorf("Q1 group %v has non-positive quantity sum %g", tp, agg)
			}
		})
	}
	runRows(t, r)
}

// TestGatherMergesInWorkerOrder pins the order a gather merges the
// workers' fragments in: worker index, which is the order the local
// engine adds a batch's rows in when its i-th row lands on worker i. The
// three rows' values, 3, 1e16 and -1e16, sum to 4 in that order and to 3
// in reverse, so no other merge order passes.
func TestGatherMergesInWorkerOrder(t *testing.T) {
	bases := map[string]Schema{"R": {"a", "v"}}
	batch := mring.NewRelation(bases["R"])
	for w, v := range []float64{3, 1e16, -1e16} {
		a := 0
		for dist.PlaceIndex(Row(a, v), []int{0}, 3) != w {
			a++
		}
		batch.Add(Row(a, v), 1)
	}
	runRows(t, row{query: "QG", def: Sum(nil, Join(Table("R", "a", "v"), Val(Col("v")))), bases: bases,
		opts: []Option{KeyRanks(map[string]int{"a": 2})}, rounds: [][]tpch.Batch{{{Table: "R", Rel: batch}}},
		lanes: []lane{localLane(), distLane(3), remoteLane(3)},
		check: func(t *testing.T, lanes map[string]*laneRun) {
			if got := lanes["local"].e.Result().Get(Tuple{}); got != 4 {
				t.Fatalf("the local engine sums the batch to %g, want 4", got)
			}
		}})
}
