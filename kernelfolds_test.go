package ivm

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/tpch"
)

// TestKernelFoldsOnEveryBackend pins the plan wiring of every backend on
// a Q1 stream, whose pre-aggregation is the single-scan aggregate a
// columnar kernel once folded (the test keeps that kernel-era name). Each
// backend must fold it through its prepared row plans to the rebuild
// oracle's result and report the folds' scans in its merged stats — the
// local executor from its program's plan table, the simulated and the
// process cluster from the plan tables lowered once per block (the
// process cluster's workers lower theirs at deploy, and their counts
// arrive in the stage responses).
func TestKernelFoldsOnEveryBackend(t *testing.T) {
	q, err := tpch.QueryByName("Q1")
	if err != nil {
		t.Fatal(err)
	}
	bases := q.BaseSchemas()
	addrs, _ := startWorkers(t, 2)
	backends := []struct {
		name string
		opts []Option
	}{
		{"local", nil},
		{"distributed2", []Option{Distributed(2), KeyRanks(tpch.PrimaryKeyRanks)}},
		{"remote2", []Option{Remote(addrs...), KeyRanks(tpch.PrimaryKeyRanks)}},
	}
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			e, err := New(q.Name, q.Def, bases, be.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			accum := baseline.Changes{}
			for _, tbl := range q.Tables {
				accum[tbl] = nil
			}
			stream := tpch.NewStream(tpch.NewGenerator(0.01, 5), q.Tables)
			for i := 0; i < 4; i++ {
				for _, b := range stream.NextBatches(250) {
					if err := e.ApplyBatch(b.Table, &Batch{rel: b.Rel}); err != nil {
						t.Fatal(err)
					}
					accum.Add(b.Table, b.Rel)
				}
			}
			if got := e.Stats().Scans; got == 0 {
				t.Fatal("no aggregate fold scanned a tuple")
			}
			got, want := e.Result().rel, rebuildOracle(q, accum)
			if want.Len() == 0 {
				t.Fatal("the stream left Q1 empty")
			}
			if !got.EqualApprox(want, 1e-6) {
				t.Fatalf("diverges from the rebuild oracle\n got %v\nwant %v", got, want)
			}
		})
	}
}
