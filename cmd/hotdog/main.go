// Command hotdog regenerates the paper's tables and figures on the
// scaled-down workloads. Run with no arguments for the full sweep, or
// name experiments:
//
//	hotdog [flags] [fig5 fig7 fig8 fig9 fig10 fig12 fig13 table1 table2
//	                table3 ablations ablation-domain ablation-columnar
//	                memory]
//
// Flags:
//
//	-sf float      TPC-H/DS scale factor (default 0.5)
//	-quick         shrink distributed sweeps for a fast pass
//	-queries list  comma-separated query filter for local experiments
//
// Every experiment runs the engine's own paths (see internal/bench):
// the local ones stream batches through compile.Executor, single-tuple
// columns as one-event batches, and the distributed ones enter each
// batch through cluster.RunPartitionedBatch and report the cluster's
// virtual time. table2 reports counted work per streamed tuple.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	sf := flag.Float64("sf", 0.5, "TPC-H/TPC-DS scale factor")
	quick := flag.Bool("quick", false, "shrink distributed sweeps")
	queries := flag.String("queries", "", "comma-separated query filter (local experiments)")
	flag.Parse()

	lcfg := bench.DefaultLocalConfig()
	lcfg.SF = *sf
	if *queries != "" {
		lcfg.Queries = strings.Split(*queries, ",")
	}
	dcfg := bench.DefaultDistConfig()
	if *quick {
		dcfg.WeakWorkers = []int{4, 8, 16, 32}
		dcfg.PerWorkerBatch = 100
		dcfg.StrongWorkers = []int{4, 8, 16, 32}
		dcfg.StrongBatches = []int{2000, 4000}
		dcfg.BatchesPerPoint = 1
	}

	type experiment struct {
		name string
		run  func() (*bench.Table, error)
	}
	all := []experiment{
		{"table3", func() (*bench.Table, error) { return bench.Table3() }},
		{"fig5", func() (*bench.Table, error) { return bench.Fig5() }},
		{"fig7", func() (*bench.Table, error) { return bench.Fig7(lcfg) }},
		{"fig8", func() (*bench.Table, error) { return bench.Fig8(lcfg) }},
		{"table1", func() (*bench.Table, error) { return bench.Table1(lcfg) }},
		{"table2", func() (*bench.Table, error) { return bench.Table2(lcfg) }},
		{"fig12", func() (*bench.Table, error) { return bench.Fig12(lcfg) }},
		{"fig9", func() (*bench.Table, error) { return bench.Fig9(dcfg) }},
		{"fig10", func() (*bench.Table, error) { return bench.Fig10(dcfg) }},
		{"fig13", func() (*bench.Table, error) { return bench.Fig13(dcfg) }},
		{"ablations", func() (*bench.Table, error) { return bench.AblationPreAgg(lcfg) }},
		{"ablation-domain", func() (*bench.Table, error) { return bench.AblationDomainExtraction(lcfg) }},
		{"ablation-columnar", func() (*bench.Table, error) { return bench.AblationColumnarShuffle(dcfg) }},
		{"memory", func() (*bench.Table, error) { return bench.MemoryReport(lcfg) }},
	}

	want := flag.Args()
	selected := func(name string) bool {
		if len(want) == 0 {
			return true
		}
		for _, w := range want {
			if w == name {
				return true
			}
		}
		return false
	}

	known := map[string]bool{}
	for _, e := range all {
		known[e.name] = true
	}
	failed := false
	for _, w := range want {
		if !known[w] {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", w)
			failed = true
		}
	}
	for _, e := range all {
		if !selected(e.name) {
			continue
		}
		start := time.Now()
		tab, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			failed = true
			continue
		}
		fmt.Println(tab.Render())
		fmt.Printf("[%s completed in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}
