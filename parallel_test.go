package ivm

// Parallel-worker equivalence: the cluster executes distributed stages on
// real goroutines, and the merged distributed result must equal the
// single-node engine's after every batch. Run under -race this also
// certifies the shared-nothing worker execution is data-race free.

import (
	"fmt"
	"testing"

	"repro/internal/mring"
	"repro/internal/tpch"
)

func TestParallelWorkersMatchSingleNode(t *testing.T) {
	var rows []row
	for _, name := range []string{"Q3", "Q6", "Q1"} {
		q, err := tpch.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		distd := distLane(8)
		distd.ref = approx
		r := tpchRow(name, q, batchRounds(tpch.NewStream(tpch.NewGenerator(0.05, 1), q.Tables), 500, -1), localLane(), distd)
		r.every = true
		if name == "Q3" {
			r.empty = q3Empty
		}
		rows = append(rows, r)
	}
	runRows(t, rows...)
}

// TestParallelWorkerScaling checks equivalence across worker counts,
// including more workers than distinct partition keys.
func TestParallelWorkerScaling(t *testing.T) {
	q, err := tpch.QueryByName("Q6")
	if err != nil {
		t.Fatal(err)
	}
	bases := map[string]Schema{}
	for tbl, s := range q.BaseSchemas() {
		bases[tbl] = s
	}
	results := make([]*mring.Relation, 0, 3)
	for _, workers := range []int{1, 8, 16} {
		t.Run(fmt.Sprintf("w=%d", workers), func(t *testing.T) {
			eng, err := New(q.Name, q.Def, bases, Distributed(workers), KeyRanks(tpch.PrimaryKeyRanks))
			if err != nil {
				t.Fatal(err)
			}
			gen := tpch.NewGenerator(0.05, 2)
			stream := tpch.NewStream(gen, q.Tables)
			for {
				bs := stream.NextBatches(1000)
				if len(bs) == 0 {
					break
				}
				for _, b := range bs {
					if err := eng.ApplyBatch(b.Table, &Batch{rel: b.Rel}); err != nil {
						t.Fatal(err)
					}
				}
			}
			results = append(results, eng.Result().rel)
		})
	}
	for i := 1; i < len(results); i++ {
		if !results[i].EqualApprox(results[0], 1e-6) {
			t.Fatalf("worker-count run %d diverged:\n got %v\nwant %v", i, results[i], results[0])
		}
	}
}
