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
	"repro/internal/mring"
	"repro/internal/tpch"
)

// goldenStream drives one query's stream through a set of engines in
// lockstep and returns every change it fed them, for the oracle.
func goldenStream(t *testing.T, q tpch.Query, apply func(table string, b *Batch)) baseline.Changes {
	t.Helper()
	gen := tpch.NewGenerator(0.03, 5)
	accum := baseline.Changes{}
	for _, tbl := range q.Tables {
		accum[tbl] = nil
		if tbl == tpch.Nation || tbl == tpch.Region {
			accum.Add(tbl, gen.Static(tbl))
		}
	}
	stream := tpch.NewStream(gen, q.Tables)
	for {
		bs := stream.NextBatches(250)
		if len(bs) == 0 {
			break
		}
		for _, b := range bs {
			apply(b.Table, &Batch{rel: b.Rel})
			accum.Add(b.Table, b.Rel)
		}
	}
	return accum
}

// rebuildOracle recomputes the query from scratch over the base tables'
// changes through the oracle.
func rebuildOracle(q tpch.Query, accum baseline.Changes) *mring.Relation {
	out := mring.NewRelation(q.Def.Schema())
	for _, r := range baseline.Eval(q.Def, baseline.Of(accum)) {
		out.Add(r.Tuple, r.M)
	}
	return out
}

func TestGoldenAggregatesAcrossEngines(t *testing.T) {
	workerCounts := []int{1, 8, 16}
	for _, name := range []string{"Q1", "Q3", "Q6"} {
		t.Run(name, func(t *testing.T) {
			q, err := tpch.QueryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			bases := q.BaseSchemas()

			// One constructor path for both backends.
			local, err := New(q.Name, q.Def, bases)
			if err != nil {
				t.Fatal(err)
			}
			dists := map[int]*Engine{}
			for _, w := range workerCounts {
				if dists[w], err = New(q.Name, q.Def, bases,
					Distributed(w), KeyRanks(tpch.PrimaryKeyRanks)); err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
			}

			// Static dimensions load the same way everywhere; the stream
			// then feeds every engine the identical batch sequence.
			accum := goldenStream(t, q, func(table string, b *Batch) {
				if err := local.ApplyBatch(table, b); err != nil {
					t.Fatal(err)
				}
				for _, w := range workerCounts {
					if err := dists[w].ApplyBatch(table, b); err != nil {
						t.Fatalf("workers=%d: %v", w, err)
					}
				}
			})

			oracle := rebuildOracle(q, accum)
			want := local.Result().rel
			if !want.EqualApprox(oracle, 1e-6) {
				t.Fatalf("Engine diverges from rebuild oracle\n got (%d groups) %v\nwant (%d groups) %v",
					want.Len(), want, oracle.Len(), oracle)
			}
			for _, w := range workerCounts {
				got := dists[w].Result().rel
				if got.Len() != want.Len() {
					t.Fatalf("workers=%d: %d groups, Engine has %d", w, got.Len(), want.Len())
				}
				if !got.EqualApprox(want, 1e-6) {
					t.Fatalf("workers=%d diverged from Engine\n got %v\nwant %v", w, got, want)
				}
			}
		})
	}
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
			oracle := rebuildOracle(q, accum)
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
	bases := q.BaseSchemas()
	run := func() *mring.Relation {
		d, err := New(q.Name, q.Def, bases, Distributed(8), KeyRanks(tpch.PrimaryKeyRanks))
		if err != nil {
			t.Fatal(err)
		}
		goldenStream(t, q, func(table string, b *Batch) {
			if err := d.ApplyBatch(table, b); err != nil {
				t.Fatal(err)
			}
		})
		return d.Result().rel
	}
	a, b := run(), run()
	if a.Len() != b.Len() {
		t.Fatalf("runs differ in group count: %d vs %d", a.Len(), b.Len())
	}
	a.Foreach(func(tp mring.Tuple, m float64) {
		if got := b.Get(tp); got != m {
			t.Fatalf("distributed result not bitwise reproducible: %v -> %g vs %g", tp, m, got)
		}
	})
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
	local, err := New(q.Name, q.Def, q.BaseSchemas())
	if err != nil {
		t.Fatal(err)
	}
	goldenStream(t, q, func(table string, b *Batch) {
		if err := local.ApplyBatch(table, b); err != nil {
			t.Fatal(err)
		}
	})
	res := local.Result()
	if res.Len() == 0 {
		t.Fatal("Q1 produced no groups")
	}
	res.Foreach(func(tp Tuple, agg float64) {
		if len(tp) != 2 {
			t.Fatalf("Q1 group arity %d, want 2 (returnflag, linestatus): %v", len(tp), tp)
		}
		if agg <= 0 {
			t.Errorf("Q1 group %v has non-positive quantity sum %g", tp, agg)
		}
	})
}
