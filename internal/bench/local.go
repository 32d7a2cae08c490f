package bench

import (
	"fmt"
	"time"

	"repro/internal/compile"
	"repro/internal/expr"
	"repro/internal/mring"
	"repro/internal/tpcds"
	"repro/internal/tpch"
)

// LocalConfig scales the single-node experiments.
type LocalConfig struct {
	// SF is the TPC-H/DS scale factor (1.0 = the micro unit of the
	// generators).
	SF float64
	// Seed fixes stream generation.
	Seed int64
	// Queries restricts the query set (nil = all).
	Queries []string
}

// DefaultLocalConfig is the quick-run configuration.
func DefaultLocalConfig() LocalConfig { return LocalConfig{SF: 0.5, Seed: 1} }

func (c LocalConfig) wants(name string) bool {
	if len(c.Queries) == 0 {
		return true
	}
	for _, q := range c.Queries {
		if q == name {
			return true
		}
	}
	return false
}

// startTables returns q's base tables before its stream: the static
// dimensions (nation, region) drawn from gen, every stream table empty.
func startTables(q tpch.Query, gen *tpch.Generator) map[string]*mring.Relation {
	out := map[string]*mring.Relation{}
	for _, tbl := range q.Tables {
		if tbl == tpch.Nation || tbl == tpch.Region {
			out[tbl] = gen.Static(tbl)
		} else {
			out[tbl] = mring.NewRelation(tpch.Schemas[tbl])
		}
	}
	return out
}

// streamQuery hands apply up to maxBatches chunks of batchSize events of
// stream (the whole stream when maxBatches is 0), one table batch at a
// time, and returns the events handed over and the time it took.
func streamQuery(stream *tpch.Stream, batchSize, maxBatches int, apply func(table string, batch *mring.Relation)) (int, time.Duration) {
	tuples := 0
	start := time.Now()
	for b := 0; maxBatches == 0 || b < maxBatches; b++ {
		bs := stream.NextBatches(batchSize)
		if len(bs) == 0 {
			break
		}
		for _, tb := range bs {
			tuples += tb.Rel.Len()
			apply(tb.Table, tb.Rel)
		}
	}
	return tuples, time.Since(start)
}

// runLocalStream compiles a TPC-H query with opts, starts it from its
// start tables and streams its whole workload at sf through it in
// batches of batchSize events. It returns the executor with the tuples
// streamed and the time they took.
func runLocalStream(q tpch.Query, sf float64, seed int64, batchSize int, opts compile.Options) (*compile.Executor, int, time.Duration, error) {
	prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), opts)
	if err != nil {
		return nil, 0, 0, err
	}
	ex := compile.NewExecutor(prog)
	gen := tpch.NewGenerator(sf, seed)
	ex.InitFromBases(startTables(q, gen))
	n, d := streamQuery(tpch.NewStream(gen, q.Tables), batchSize, 0, ex.ApplyBatch)
	return ex, n, d, nil
}

// Fig7 reproduces the normalized-throughput-vs-batch-size experiment for
// the TPC-H queries. Single-tuple execution (= 1.0) is the same stream in
// one-event batches.
func Fig7(cfg LocalConfig) (*Table, error) {
	t := &Table{
		Title:   "Figure 7: normalized throughput of TPC-H queries per batch size (baseline = single-tuple, one-event batches)",
		Columns: []string{"query"},
		Notes: "paper shape: ~half the queries peak at or below 1x (single-tuple wins); " +
			"batch pre-aggregation queries (Q1, Q20, Q22) gain large factors; peaks fall at 1k-10k",
	}
	for _, bs := range BatchSizes {
		t.Columns = append(t.Columns, fmt.Sprintf("bs=%d", bs))
	}
	for _, q := range tpch.Queries() {
		if !cfg.wants(q.Name) {
			continue
		}
		_, n, base, err := runLocalStream(q, cfg.SF, cfg.Seed, 1, compile.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("%s single-tuple: %w", q.Name, err)
		}
		baseTput := float64(n) / base.Seconds()
		row := []string{q.Name}
		for _, bs := range BatchSizes {
			_, n2, dur, err := runLocalStream(q, cfg.SF, cfg.Seed, bs, compile.DefaultOptions())
			if err != nil {
				return nil, fmt.Errorf("%s bs=%d: %w", q.Name, bs, err)
			}
			row = append(row, f2((float64(n2)/dur.Seconds())/baseTput))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig12 is the TPC-DS variant of Fig7.
func Fig12(cfg LocalConfig) (*Table, error) {
	t := &Table{
		Title:   "Figure 12: normalized throughput of TPC-DS queries per batch size (baseline = single-tuple, one-event batches)",
		Columns: []string{"query"},
		Notes:   "paper shape: single-tuple often wins; filtering queries gain up to ~5x",
	}
	for _, bs := range BatchSizes {
		t.Columns = append(t.Columns, fmt.Sprintf("bs=%d", bs))
	}
	for _, q := range tpcds.Queries() {
		if !cfg.wants(q.Name) {
			continue
		}
		run := func(batchSize int) (float64, error) {
			prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
			if err != nil {
				return 0, err
			}
			ex := compile.NewExecutor(prog)
			gen := tpcds.NewGenerator(cfg.SF, cfg.Seed)
			init := map[string]*mring.Relation{}
			for _, tbl := range q.Tables {
				if tbl == tpcds.StoreSales {
					init[tbl] = mring.NewRelation(tpcds.Schemas[tbl])
				} else {
					init[tbl] = gen.Static(tbl)
				}
			}
			ex.InitFromBases(init)
			next := gen.FactBatches(batchSize)
			tuples := 0
			start := time.Now()
			for b := next(); b != nil; b = next() {
				tuples += b.Len()
				ex.ApplyBatch(tpcds.StoreSales, b)
			}
			return float64(tuples) / time.Since(start).Seconds(), nil
		}
		baseTput, err := run(1)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		row := []string{q.Name}
		for _, bs := range BatchSizes {
			tput, err := run(bs)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.Name, err)
			}
			row = append(row, f2(tput/baseTput))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// warmDatabase materializes the full stream at sf into base-table
// contents (plus static dimensions) — the grown database against which
// refresh rates are measured.
func warmDatabase(q tpch.Query, sf float64, seed int64) map[string]*mring.Relation {
	gen := tpch.NewGenerator(sf, seed)
	out := startTables(q, gen)
	streamQuery(tpch.NewStream(gen, q.Tables), 10000, 0, func(table string, b *mring.Relation) { out[table].Merge(b) })
	return out
}

// refresh streams up to maxBatches batches of batchSize events into an
// executor that has already ingested the warm database, so each batch
// must refresh the view; it returns the events applied and the time they
// took. Slow strategies are capped at a few batches per cell: enough for
// a rate, cheap enough to terminate.
func refresh(q tpch.Query, ex *compile.Executor, seed int64, batchSize, maxBatches int) (int, time.Duration) {
	stream := tpch.NewStream(tpch.NewGenerator(0.05, seed+1000), q.Tables)
	return streamQuery(stream, batchSize, maxBatches, ex.ApplyBatch)
}

// refreshRate is refresh's steady-state view refresh throughput.
func refreshRate(q tpch.Query, ex *compile.Executor, seed int64, batchSize, maxBatches int) float64 {
	n, d := refresh(q, ex, seed, batchSize, maxBatches)
	if n == 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// strategy is one maintenance strategy of Fig. 8 and Table 1, compiled
// to a program the one executor runs. maxBatches caps its batches per
// measured cell.
type strategy struct {
	label      string
	maxBatches int
	build      func(name string, q expr.Expr, bases map[string]mring.Schema) (*compile.Program, error)
}

// strategies lists re-evaluation, classical (first-order) IVM and
// recursive IVM, slowest first.
func strategies() []strategy {
	return []strategy{
		{"re-eval", 3, compile.ReEvalProgram},
		{"classical", 5, compile.FirstOrderProgram},
		{"recursive", 50, func(name string, q expr.Expr, bases map[string]mring.Schema) (*compile.Program, error) {
			return compile.Compile(name, q, bases, compile.DefaultOptions())
		}},
	}
}

// Fig8 compares re-evaluation, classical IVM, and recursive IVM on
// TPC-H Q17 across batch sizes (the paper's PostgreSQL comparison).
func Fig8(cfg LocalConfig) (*Table, error) {
	return engineComparison(cfg, []string{"Q17"},
		"Figure 8: Q17 view refresh rate (tuples/sec): re-eval vs classical IVM vs recursive IVM",
		"paper shape: recursive IVM leads by 2-4 orders of magnitude at every batch size")
}

// Table1 is the full grid of Fig8 over the whole TPC-H suite.
func Table1(cfg LocalConfig) (*Table, error) {
	var names []string
	for _, q := range tpch.Queries() {
		names = append(names, q.Name)
	}
	return engineComparison(cfg, names,
		"Table 1: throughput (tuples/sec) of re-eval, classical IVM, recursive IVM per batch size",
		"paper shape: recursive IVM wins by orders of magnitude in all but the re-evaluation queries (Q11-style)")
}

func engineComparison(cfg LocalConfig, names []string, title, notes string) (*Table, error) {
	t := &Table{
		Title:   title,
		Columns: []string{"query", "engine", "single"},
		Notes:   notes,
	}
	for _, bs := range BatchSizes {
		t.Columns = append(t.Columns, fmt.Sprintf("bs=%d", bs))
	}
	for _, name := range names {
		if !cfg.wants(name) {
			continue
		}
		q, err := tpch.QueryByName(name)
		if err != nil {
			return nil, err
		}
		// Every strategy refreshes the same grown database: the view
		// refresh rate is a steady-state property. The database must
		// dwarf the largest batch, as in the paper (10GB streams vs 100k
		// batches), for re-evaluation's recompute-everything cost to show.
		warmSF := cfg.SF * 8
		if warmSF < 0.8 {
			warmSF = 0.8
		}
		warm := warmDatabase(q, warmSF, cfg.Seed)
		for _, s := range strategies() {
			prog, err := s.build(q.Name, q.Def, q.BaseSchemas())
			if err != nil {
				return nil, err
			}
			row := []string{name, s.label, ""}
			if s.label == "recursive" {
				ex := compile.NewExecutor(prog)
				ex.InitFromBases(warm)
				row[2] = f0(refreshRate(q, ex, cfg.Seed, 1, 2000))
			}
			// One executor per row: the warm start is the dominant cost
			// and refresh rates remain steady-state as the measured
			// batches accumulate.
			ex := compile.NewExecutor(prog)
			ex.InitFromBases(warm)
			for i, bs := range BatchSizes {
				row = append(row, f0(refreshRate(q, ex, cfg.Seed+int64(i), bs, s.maxBatches)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// Table2 stands in for the paper's cache-locality experiment: TPC-H Q3
// maintained at each batch size, with the work the triggers count
// (lookups, scans, emits and index builds) reported per streamed tuple.
func Table2(cfg LocalConfig) (*Table, error) {
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Table 2: counted work of TPC-H Q3 per batch size",
		Columns: []string{"batch", "tuples", "lookups", "scans", "emits", "index ops", "work/tuple"},
		Notes: "paper: batch=1 executes ~10x more instructions than batch=1000; counted work per tuple " +
			"stays within ~1.1x across batch sizes, so that gap does not reproduce here",
	}
	for _, bs := range BatchSizes {
		ex, n, _, err := runLocalStream(q, cfg.SF, cfg.Seed, bs, compile.DefaultOptions())
		if err != nil {
			return nil, err
		}
		st := ex.Stats
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", bs),
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", st.Lookups),
			fmt.Sprintf("%d", st.Scans),
			fmt.Sprintf("%d", st.Emits),
			fmt.Sprintf("%d", st.IndexOps),
			f2(float64(st.Lookups+st.Scans+st.Emits+st.IndexOps) / float64(n)),
		})
	}
	return t, nil
}

// AblationPreAgg quantifies batch pre-aggregation (the Sec. 3.3 design
// choice): throughput with and without it, per query.
func AblationPreAgg(cfg LocalConfig) (*Table, error) {
	t := &Table{
		Title:   "Ablation: batch pre-aggregation on/off (throughput ratio on/off, batch=1000)",
		Columns: []string{"query", "with", "without", "ratio"},
		Notes:   "paper: pre-aggregation brings up to 3 orders of magnitude (Q20/Q22-class)",
	}
	on := compile.DefaultOptions()
	off := on
	off.PreAggregate = false
	for _, q := range tpch.Queries() {
		if !cfg.wants(q.Name) {
			continue
		}
		_, n1, d1, err := runLocalStream(q, cfg.SF, cfg.Seed, 1000, on)
		if err != nil {
			return nil, err
		}
		_, n2, d2, err := runLocalStream(q, cfg.SF, cfg.Seed, 1000, off)
		if err != nil {
			return nil, err
		}
		tp1 := float64(n1) / d1.Seconds()
		tp2 := float64(n2) / d2.Seconds()
		t.Rows = append(t.Rows, []string{q.Name, f0(tp1), f0(tp2), f2(tp1 / tp2)})
	}
	return t, nil
}

// AblationDomainExtraction compares nested-query maintenance with and
// without the Fig. 1 rewrite.
func AblationDomainExtraction(cfg LocalConfig) (*Table, error) {
	t := &Table{
		Title:   "Ablation: domain extraction on/off for nested TPC-H queries (batch=1000)",
		Columns: []string{"query", "with (tup/s)", "without (tup/s)", "speedup"},
		Notes:   "without domain extraction, deltas of nested queries re-evaluate the query twice per batch",
	}
	on := compile.DefaultOptions()
	off := on
	off.DomainExtraction = false
	off.ReEvalUncorrelated = false
	for _, q := range tpch.Queries() {
		if !q.Nested || !cfg.wants(q.Name) {
			continue
		}
		_, n1, d1, err := runLocalStream(q, cfg.SF, cfg.Seed, 1000, on)
		if err != nil {
			return nil, err
		}
		// The naive variant is drastically slower; run it at reduced scale.
		_, n2, d2, err := runLocalStream(q, cfg.SF/5, cfg.Seed, 1000, off)
		if err != nil {
			return nil, err
		}
		tp1 := float64(n1) / d1.Seconds()
		tp2 := float64(n2) / d2.Seconds()
		t.Rows = append(t.Rows, []string{q.Name, f0(tp1), f0(tp2), f2(tp1 / tp2)})
	}
	return t, nil
}

// MemoryReport shows the auxiliary-view footprint per query after the
// full stream (the Sec. 6.1 memory-requirements discussion).
func MemoryReport(cfg LocalConfig) (*Table, error) {
	t := &Table{
		Title:   "Memory: materialized tuples across all auxiliary views after the stream",
		Columns: []string{"query", "views", "tuples", "stream tuples"},
		Notes:   "auxiliary views stay below fact-table size (star schema integrity argument)",
	}
	for _, q := range tpch.Queries() {
		if !cfg.wants(q.Name) {
			continue
		}
		ex, streamed, _, err := runLocalStream(q, cfg.SF, cfg.Seed, 1000, compile.DefaultOptions())
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			q.Name,
			fmt.Sprintf("%d", len(ex.Program().Views)),
			fmt.Sprintf("%d", ex.MemoryFootprint()),
			fmt.Sprintf("%d", streamed),
		})
	}
	return t, nil
}
