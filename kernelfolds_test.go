package ivm

import (
	"testing"

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
	var rows []row
	lanes := []lane{localLane(), distLane(2), remoteLane(2)}
	for i, name := range []string{"local", "distributed2", "remote2"} {
		r := tpchRow(name, q, batchRounds(tpch.NewStream(tpch.NewGenerator(0.01, 5), q.Tables), 250, 4), oracleLane(lanes[i]))
		r.tol = approx
		r.check = func(t *testing.T, lanes map[string]*laneRun) {
			for _, lr := range lanes {
				if lr.e.Stats().Scans == 0 {
					t.Fatal("no aggregate fold scanned a tuple")
				}
			}
		}
		rows = append(rows, r)
	}
	runRows(t, rows...)
}
