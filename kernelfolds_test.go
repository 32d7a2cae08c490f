package ivm

import (
	"testing"

	"repro/internal/tpch"
)

// TestKernelFoldsOnEveryBackend pins the kernel-plan wiring of every
// backend: a Q1 stream's pre-aggregation is a covered single-scan
// aggregate, so each backend must report columnar kernel folds in its
// merged stats — the local executor from its program's plan table, the
// simulated and the process cluster from the plan tables lowered once per
// block (the process cluster's workers lower theirs at deploy, and their
// folds arrive in the stage responses).
// The goldens compare results only, which the row path would also pass.
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
			stream := tpch.NewStream(tpch.NewGenerator(0.01, 5), q.Tables)
			for i := 0; i < 4; i++ {
				for _, b := range stream.NextBatches(250) {
					if err := e.ApplyBatch(b.Table, &Batch{rel: b.Rel}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got := e.Stats().KernelFolds; got == 0 {
				t.Fatal("no aggregate fold ran through the columnar kernels")
			}
		})
	}
}
