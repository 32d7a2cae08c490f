package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/dist"
	inet "repro/internal/net"
	"repro/internal/pool"
	"repro/internal/tpch"
)

// deployment is a TPC-H query compiled for the cluster.
type deployment struct {
	query  tpch.Query
	prog   *compile.Program
	parts  dist.PartInfo
	dprogs map[string]*dist.DistProgram
}

func deploy(t *testing.T, name string, level dist.OptLevel) *deployment {
	t.Helper()
	q, err := tpch.QueryByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	parts := dist.ChoosePartitioning(prog, tpch.PrimaryKeyRanks)
	return &deployment{q, prog, parts, dist.CompileProgram(prog, parts, level)}
}

// run streams one chunk of batchSize events through a fresh cluster of
// the given workers, preloaded with the query's static dimensions, and
// returns the chunk's summed metrics.
func (d *deployment) run(t *testing.T, workers, batchSize int) cluster.Metrics {
	t.Helper()
	cl := cluster.New(cluster.DefaultConfig(workers), dist.ViewSchemas(d.prog), d.parts)
	gen := tpch.NewGenerator(4, 1)
	var total cluster.Metrics
	for _, tbl := range d.query.Tables {
		if tbl == tpch.Nation || tbl == tpch.Region {
			if _, err := cl.RunPartitionedBatch(d.dprogs[tbl], gen.Static(tbl)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, b := range tpch.NewStream(gen, d.query.Tables).NextBatches(batchSize) {
		m, err := cl.RunPartitionedBatch(d.dprogs[b.Table], b.Rel)
		if err != nil {
			t.Fatal(err)
		}
		total.Add(m)
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// TestFig9Smoke is Fig. 9, weak scaling, on the cluster's virtual time:
// 100 tuples per worker from 4 to 32 workers. Latency rises with the
// workers on every query, as synchronization grows. The single-stage Q6
// is the cheapest at every count, and Q7, with the most stages, is the
// dearest and grows the most.
func TestFig9Smoke(t *testing.T) {
	t.Parallel()
	tab := figure(t)
	workers := []int{4, 8, 16, 32}
	lat := map[string][]float64{}
	for _, name := range []string{"Q6", "Q17", "Q3", "Q7"} {
		dep := deploy(t, name, dist.O3)
		for i, w := range workers {
			m := dep.run(t, w, 100*w)
			lat[name] = append(lat[name], ms(m.Latency))
			fmt.Fprintf(tab, "%-3s workers %2d latency %6.1f ms shuffled %6.2f KB/worker\n", name, w, ms(m.Latency), float64(m.ShuffledBytes)/float64(w)/1024)
			if i > 0 && lat[name][i] <= lat[name][i-1] {
				t.Errorf("%s: latency fell from %.1f to %.1f ms at %d workers", name, lat[name][i-1], lat[name][i], w)
			}
		}
	}
	for i, w := range workers {
		for _, name := range []string{"Q17", "Q3"} {
			if lat["Q6"][i] >= lat[name][i] || lat["Q7"][i] <= lat[name][i] {
				t.Errorf("%d workers: %s at %.1f ms is not between Q6 (%.1f) and Q7 (%.1f)", w, name, lat[name][i], lat["Q6"][i], lat["Q7"][i])
			}
		}
	}
	grow := func(name string) float64 { return lat[name][len(workers)-1] - lat[name][0] }
	for _, name := range []string{"Q6", "Q17", "Q3"} {
		if grow("Q7") <= grow(name) {
			t.Errorf("Q7's latency grew %.1f ms, %s's %.1f ms", grow("Q7"), name, grow(name))
		}
	}
}

// TestFig10Smoke is Fig. 10, strong scaling: one 1,000-event batch on 1
// to 8 workers. The compute of the slowest worker falls as workers are
// added, as in the paper, but latency rises: compute is at most about 1 ms
// of a 35-435 ms batch, and the per-worker scheduling cost dominates. The
// paper's comparison with re-evaluation on Spark SQL is not reproduced
// (EXPERIMENTS.md).
func TestFig10Smoke(t *testing.T) {
	t.Parallel()
	tab := figure(t)
	for _, name := range []string{"Q6", "Q17", "Q3", "Q7"} {
		dep := deploy(t, name, dist.O3)
		var prev cluster.Metrics
		for i, w := range []int{1, 2, 4, 8} {
			m := dep.run(t, w, 1000)
			fmt.Fprintf(tab, "%-3s workers %d latency %5.1f ms slowest compute %.3f ms\n", name, w, ms(m.Latency), ms(m.ComputeMax))
			if i > 0 && (m.ComputeMax >= prev.ComputeMax || m.Latency-m.ComputeMax <= prev.Latency-prev.ComputeMax) {
				t.Errorf("%s at %d workers: compute %v (was %v), platform time %v (was %v)",
					name, w, m.ComputeMax, prev.ComputeMax, m.Latency-m.ComputeMax, prev.Latency-prev.ComputeMax)
			}
			prev = m
		}
	}
}

// TestFig13Smoke is Fig. 13, the optimization ablation, on distributed
// Q3: each level shuffles no more bytes than the one before it, and
// block fusion (O3) runs fewer stages than O2 at lower latency.
func TestFig13Smoke(t *testing.T) {
	t.Parallel()
	tab := figure(t)
	levels := []dist.OptLevel{dist.O0, dist.O1, dist.O2, dist.O3}
	for _, w := range []int{2, 4} {
		ms3 := make([]cluster.Metrics, len(levels))
		for i, lv := range levels {
			ms3[i] = deploy(t, "Q3", lv).run(t, w, 200)
			fmt.Fprintf(tab, "workers %d O%d shuffled %6d B stages %2d latency %5.1f ms\n", w, i, ms3[i].ShuffledBytes, ms3[i].Stages, ms(ms3[i].Latency))
			if i > 0 && ms3[i].ShuffledBytes > ms3[i-1].ShuffledBytes {
				t.Errorf("%d workers: O%d shuffled %d bytes, more than O%d's %d", w, i, ms3[i].ShuffledBytes, i-1, ms3[i-1].ShuffledBytes)
			}
		}
		o2, o3 := ms3[2], ms3[3]
		if o3.Stages >= o2.Stages || o3.Latency >= o2.Latency {
			t.Errorf("%d workers: fusion left %d stages (O2 %d) and %.1f ms (O2 %.1f)", w, o3.Stages, o2.Stages, ms(o3.Latency), ms(o2.Latency))
		}
	}
}

// TestTable3Smoke is Table 3: the jobs, stages, fused blocks and views of
// every TPC-H query's distributed program, summed over its stream
// relations. Q6 is the simplest, one job of one stage.
func TestTable3Smoke(t *testing.T) {
	t.Parallel()
	tab := figure(t)
	n := 0
	for _, q := range tpch.Queries() {
		dep := deploy(t, q.Name, dist.O3)
		jobs, stages, blocks := 0, 0, 0
		for _, tbl := range q.Tables {
			if tbl == tpch.Nation || tbl == tpch.Region {
				continue
			}
			dp := dep.dprogs[tbl]
			jobs = max(jobs, dp.Jobs())
			stages += dp.Stages()
			blocks += len(dp.Blocks)
		}
		fmt.Fprintf(tab, "%-4s jobs %d stages %2d blocks %2d views %2d\n", q.Name, jobs, stages, blocks, len(dep.prog.Views))
		if q.Name == "Q6" && (jobs != 1 || stages != 1) {
			t.Errorf("Q6 should be 1 job / 1 stage, got %d / %d", jobs, stages)
		}
		n++
	}
	if n < 15 {
		t.Fatalf("expected a row per TPC-H query, got %d", n)
	}
}

// TestFig5Smoke is Fig. 5: block fusion on Q3 never adds a local or a
// distributed block to a trigger.
func TestFig5Smoke(t *testing.T) {
	t.Parallel()
	tab := figure(t)
	before, after := deploy(t, "Q3", dist.O1), deploy(t, "Q3", dist.O3)
	count := func(dp *dist.DistProgram) (local, distb int) {
		for _, b := range dp.Blocks {
			if b.Mode == dist.LDist {
				distb++
			} else {
				local++
			}
		}
		return
	}
	for _, tbl := range []string{tpch.Lineitem, tpch.Orders, tpch.Customer} {
		lb, db := count(before.dprogs[tbl])
		la, da := count(after.dprogs[tbl])
		fmt.Fprintf(tab, "%-8s local %d -> %d, distributed %d -> %d\n", tbl, lb, la, db, da)
		if la > lb || da > db {
			t.Errorf("%s: blocks grew after fusion", tbl)
		}
	}
}

// TestAblationsSmoke is the columnar-shuffle ablation (Sec. 5.2.2):
// typed columns against per-value kind tags on Q3's update batches. The
// row side is the same payload with a kind byte per value of every
// kind-pure column, as a row layout tags every value; it must be larger.
func TestAblationsSmoke(t *testing.T) {
	t.Parallel()
	tab := figure(t)
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	stream := tpch.NewStream(tpch.NewGenerator(2, 1), q.Tables)
	for i := 0; i < 4; i++ {
		col, row := 0, 0
		for _, b := range stream.NextBatches(20000) {
			p := inet.EncodePayload(b.Rel, nil)
			pb, err := inet.DecodePayload(p)
			if err != nil {
				t.Fatal(err)
			}
			col += len(p)
			row += len(p)
			for c := range pb.Schema {
				if pb.Kind(c) != pool.Mixed {
					row += pb.Len()
				}
			}
		}
		if col == 0 {
			break
		}
		fmt.Fprintf(tab, "batch %d columnar %d KB row %d KB ratio %.2f\n", i, col/1024, row/1024, float64(row)/float64(col))
		if row <= col {
			t.Errorf("batch %d: row layout %d bytes, columnar %d", i, row, col)
		}
	}
}
