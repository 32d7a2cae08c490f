// Command benchjson runs the tier-2 benchmark suite's representative
// measurements and writes them to a JSON file (BENCH_<pr>.json), so the
// performance trajectory of the engine is tracked in-repo from PR 2
// onward. It records the storage-layer microbenchmark (hash-native
// relation vs. the string-keyed reference it replaced), the aggregation
// microbenchmark (hash-native group table vs. the string-keyed group map
// it replaced), the local Q3 maintenance stream, and the distributed Q3
// deployment with its shuffle volume.
//
// With -baseline it then diffs the tracked microbenchmark speedup
// ratios against a prior report and exits non-zero when one regresses
// more than 15% — the CI perf gate. The gate compares ratios, not raw
// ops/sec: each report measures the reference and the native
// implementation in the same process on the same machine, so the ratio
// transfers across hardware while absolute throughput does not.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	ivm "repro"
	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
	inet "repro/internal/net"
	"repro/internal/pool"
	"repro/internal/tpch"
)

// Result is one benchmark measurement row.
type Result struct {
	Name          string  `json:"name"`
	Query         string  `json:"query,omitempty"`
	BatchSize     int     `json:"batch_size,omitempty"`
	Workers       int     `json:"workers,omitempty"`
	TuplesPerSec  float64 `json:"tuples_per_sec,omitempty"`
	OpsPerSec     float64 `json:"ops_per_sec,omitempty"`
	ShuffledBytes int64   `json:"shuffled_bytes,omitempty"`
	// Millis and ReplayedRecords describe the Recovery rows: reopen wall
	// time of a crashed durable directory and the WAL-tail length it
	// replayed.
	Millis          float64 `json:"millis,omitempty"`
	ReplayedRecords int     `json:"replayed_records,omitempty"`
}

// Report is the file layout of BENCH_<pr>.json.
type Report struct {
	PR        int      `json:"pr"`
	GoVersion string   `json:"go_version"`
	Results   []Result `json:"results"`
	// AddGetSpeedup is hash-native ops/sec over the string-keyed
	// reference's (the PR 2 acceptance criterion tracks ≥1.5x).
	AddGetSpeedup float64 `json:"addget_speedup"`
	// AggGroupSpeedup is group-table ops/sec over the string-keyed
	// group-map reference's (the PR 4 acceptance criterion tracks ≥1.5x).
	AggGroupSpeedup float64 `json:"agggroup_speedup,omitempty"`
	// ColFilterSpeedup is the selection-vector predicate kernel's rows/sec
	// over a tuple-at-a-time Value-compare scan of the same data.
	ColFilterSpeedup float64 `json:"colfilter_speedup,omitempty"`
	// ColFoldSpeedup is the full vectorized FoldStmt (filter + multiply +
	// group fold) over the row-wise interpreter on the same statement,
	// measured in steady state: the version-cached columnar mirror
	// survives across folds, as it does in a maintenance stream. The
	// acceptance floor tracks the better of the two columnar ratios at
	// ≥1.5x (tightened from 1.3x when ColFold moved to steady state).
	ColFoldSpeedup float64 `json:"colfold_speedup,omitempty"`
	// MultiViewSpeedup is the registry's stream-maintenance throughput
	// serving 16 overlapping views from one shared program, over 16
	// independent engines fed the same stream. The PR 7 acceptance
	// criterion tracks it at ≥2x.
	MultiViewSpeedup float64 `json:"multiview_speedup,omitempty"`
	// SkewRebalanceSpeedup is the virtual-compute speedup of the skew
	// feedback loop on a 90%-hot stream at 8 workers: tuples per virtual
	// ComputeMax second with AutoTune repartitioning over the static
	// unweighted placement. Measured on the simulator's cost clock, not
	// wall time, so it is stable on any host. The PR 8 acceptance floor
	// tracks it at ≥1.2x.
	SkewRebalanceSpeedup float64 `json:"skewrebalance_speedup,omitempty"`
}

// stringKeyedRelation is the pre-refactor reference storage: a map from
// canonical string keys to (tuple, multiplicity), kept here only to
// measure the refactor's effect on the hot path.
type stringKeyedRelation struct {
	m map[string]struct {
		t mring.Tuple
		v float64
	}
}

func (r *stringKeyedRelation) add(t mring.Tuple, m float64) {
	k := t.Key()
	e, ok := r.m[k]
	if !ok {
		r.m[k] = struct {
			t mring.Tuple
			v float64
		}{t.Clone(), m}
		return
	}
	e.v += m
	if e.v > -mring.Eps && e.v < mring.Eps {
		delete(r.m, k)
		return
	}
	r.m[k] = e
}

func (r *stringKeyedRelation) get(t mring.Tuple) float64 { return r.m[t.Key()].v }

func addGetTuples(n int) []mring.Tuple {
	ts := make([]mring.Tuple, n)
	for i := range ts {
		ts[i] = mring.Tuple{
			mring.Int(int64(i)),
			mring.Str(fmt.Sprintf("cust#%06d", i%512)),
			mring.Float(float64(i) * 1.5),
		}
	}
	return ts
}

// measure runs fn repeatedly for at least minDur and returns ops/sec,
// where one fn call counts opsPerCall operations.
func measure(minDur time.Duration, opsPerCall int, fn func()) float64 {
	// Warm up once so map growth and code paths are hot.
	fn()
	start := time.Now()
	calls := 0
	for time.Since(start) < minDur {
		fn()
		calls++
	}
	return float64(calls*opsPerCall) / time.Since(start).Seconds()
}

func benchAddGet() (stringKeyed, hashNative float64) {
	const n = 4096
	tuples := addGetTuples(n)
	stringKeyed = measure(time.Second, 2*n, func() {
		r := &stringKeyedRelation{m: make(map[string]struct {
			t mring.Tuple
			v float64
		})}
		for _, t := range tuples {
			r.add(t, 1)
		}
		var sink float64
		for _, t := range tuples {
			sink += r.get(t)
		}
		_ = sink
	})
	hashNative = measure(time.Second, 2*n, func() {
		r := mring.NewRelation(mring.Schema{"k", "name", "v"})
		for _, t := range tuples {
			r.Add(t, 1)
		}
		var sink float64
		for _, t := range tuples {
			sink += r.Get(t)
		}
		_ = sink
	})
	return stringKeyed, hashNative
}

// stringKeyedAggregator is the pre-PR-4 evalAgg grouping: a fresh key
// tuple per produced row, its canonical string key, and a Go map from key
// to accumulator. Kept only to measure what the group table replaced.
type stringKeyedAggregator struct {
	groups map[string]*skGroup
	order  []string
}

type skGroup struct {
	t mring.Tuple
	m float64
}

func (a *stringKeyedAggregator) add(row mring.Tuple, pos []int, m float64) {
	t := make(mring.Tuple, len(pos))
	for i, p := range pos {
		t[i] = row[p]
	}
	k := t.Key()
	g, ok := a.groups[k]
	if !ok {
		g = &skGroup{t: t}
		a.groups[k] = g
		a.order = append(a.order, k)
	}
	g.m += m
}

// aggGroupRows builds the group-update workload: a batch with a skewed
// group domain over (string flag, int status) plus a value column, the
// shape of a TPC-H Q1-class pricing summary delta.
func aggGroupRows(n int) []mring.Tuple {
	rows := make([]mring.Tuple, n)
	for i := range rows {
		rows[i] = mring.Tuple{
			mring.Str(fmt.Sprintf("flag#%02d", i%24)),
			mring.Int(int64(i % 7)),
			mring.Float(float64(i) * 0.25),
		}
	}
	return rows
}

// benchAggGroup measures AggGroupUpdate: one per-batch grouped
// aggregation (build the table from every row, then drain the groups),
// string-keyed reference vs. hash-native group table.
func benchAggGroup() (stringKeyed, groupTable float64) {
	const n = 8192
	rows := aggGroupRows(n)
	pos := []int{0, 1}
	schema := mring.Schema{"flag", "status"}
	stringKeyed = measure(time.Second, n, func() {
		a := &stringKeyedAggregator{groups: make(map[string]*skGroup)}
		for _, r := range rows {
			a.add(r, pos, 1)
		}
		var sink float64
		for _, k := range a.order {
			sink += a.groups[k].m
		}
		_ = sink
	})
	groupTable = measure(time.Second, n, func() {
		gt := mring.NewGroupTable(schema)
		key := make(mring.Tuple, len(pos))
		for _, r := range rows {
			for i, p := range pos {
				key[i] = r[p]
			}
			gt.Add(key, 1)
		}
		var sink float64
		gt.Foreach(func(_ mring.Tuple, m float64) { sink += m })
		_ = sink
	})
	return stringKeyed, groupTable
}

// sinkLen defeats dead-code elimination in the columnar micros.
var sinkLen int

// colBenchSchema is the Q6-shaped scan workload: ship date (int, small
// domain so group-bys stay realistic), quantity, discount, and price.
var colBenchSchema = mring.Schema{"sdate", "qty", "disc", "price"}

func colBenchRelation(n int) *mring.Relation {
	r := mring.NewRelation(colBenchSchema)
	for i := 0; i < n; i++ {
		r.Add(mring.Tuple{
			mring.Int(19930101 + int64(i%2500)),
			mring.Float(float64(i%50) + 0.5),
			mring.Float(float64(i%11) * 0.01),
			mring.Float(float64(i%977) * 1.25),
		}, 1)
	}
	return r
}

// benchColFilter measures ColFilter: the Q6 predicate chain as selection-
// vector kernels over a columnar batch vs. the tuple-at-a-time
// Value-compare scan the row path performs, on identical data.
func benchColFilter() (rowwise, kernel float64) {
	const n = 32768
	rel := colBenchRelation(n)
	batch := pool.MirrorOf(rel).Base()
	tuples := make([]mring.Tuple, 0, batch.Len())
	rel.Foreach(func(t mring.Tuple, _ float64) { tuples = append(tuples, t.Clone()) })

	preds := []pool.Pred{
		{Col: 0, Op: pool.PGe, Lit: mring.Int(19940101)},
		{Col: 0, Op: pool.PLt, Lit: mring.Int(19950101)},
		{Col: 1, Op: pool.PLt, Lit: mring.Float(24)},
	}
	cmps := []expr.CmpOp{expr.CGe, expr.CLt, expr.CLt}

	rowwise = measure(time.Second, len(tuples), func() {
		survivors := 0
		for _, t := range tuples {
			keep := true
			for k := range preds {
				if !expr.EvalCmp(cmps[k], t[preds[k].Col], preds[k].Lit) {
					keep = false
					break
				}
			}
			if keep {
				survivors++
			}
		}
		sinkLen = survivors
	})
	identity := pool.NewSel(batch.Len())
	scratch := make(pool.Sel, batch.Len())
	kernel = measure(time.Second, batch.Len(), func() {
		sel := scratch[:copy(scratch, identity)]
		for _, p := range preds {
			sel = batch.FilterPred(p, sel)
		}
		sinkLen = len(sel)
	})
	return rowwise, kernel
}

// benchColFold measures ColFold: one full FoldStmt of a Q6-shaped
// pre-aggregation (date-grouped revenue with the Q6 predicates) through
// eval's row-wise interpreter vs. its vectorized kernel dispatch. The
// kernel side reuses the relation's version-cached columnar mirror
// across folds — the steady state of a maintenance stream, where the
// mirror converts once per batch of base-table changes, not once per
// fold. (Rebuilding the mirror every fold, as this benchmark once did,
// understated the kernel ratio by charging the one-time conversion to
// every iteration.)
func benchColFold() (rowwise, kernel float64) {
	const n = 32768
	env := eval.NewEnv()
	env.Bind("R", colBenchRelation(n))
	rel := env.Rel("R")
	stmt := expr.Sum([]string{"sdate"}, expr.Join(
		expr.Base("R", colBenchSchema...),
		expr.CmpE(expr.CGe, expr.V("sdate"), expr.LitI(19940101)),
		expr.CmpE(expr.CLt, expr.V("sdate"), expr.LitI(19950101)),
		expr.CmpE(expr.CLt, expr.V("qty"), expr.LitI(24)),
		expr.ValE(expr.MulV(expr.V("price"), expr.V("disc"))),
	))
	tgtSchema := mring.Schema{"sdate"}

	rowCtx := eval.NewCtx(env)
	rowCtx.DisableKernels = true
	rowwise = measure(time.Second, rel.Len(), func() {
		tgt := mring.NewRelation(tgtSchema)
		rowCtx.FoldStmt(tgt, eval.OpAdd, stmt)
		sinkLen = tgt.Len()
	})
	kerCtx := eval.NewCtx(env)
	kernel = measure(time.Second, rel.Len(), func() {
		tgt := mring.NewRelation(tgtSchema)
		kerCtx.FoldStmt(tgt, eval.OpAdd, stmt)
		sinkLen = tgt.Len()
	})
	if kerCtx.KernelFolds == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: ColFold never dispatched to the kernel path")
		os.Exit(1)
	}
	return rowwise, kernel
}

// colKernelFloor is the ISSUE 6 acceptance criterion, tightened once
// ColFold measured steady state: at least one scan-heavy columnar
// kernel must clear 1.5x over its row-wise reference measured in the
// same run (both kernels currently clear 10x).
const colKernelFloor = 1.5

// multiViewFloor is the ISSUE 7 acceptance criterion: serving 16
// overlapping views from one shared registry program must sustain at
// least 2x the maintenance throughput of 16 independent engines.
const multiViewFloor = 2.0

// multiViewQuery builds one of four overlapping query shapes over
// R(a,k) ⋈ S(k,c), with variable names salted by the copy index —
// copies of a shape must canonicalize to the same plan even though no
// two are written with the same variables.
func multiViewQuery(shape, copyIdx int) ivm.Expr {
	a := fmt.Sprintf("a_%d", copyIdx)
	k := fmt.Sprintf("k_%d", copyIdx)
	c := fmt.Sprintf("c_%d", copyIdx)
	join := ivm.Join(ivm.Table("R", a, k), ivm.Table("S", k, c))
	switch shape % 4 {
	case 0: // per-key join count
		return ivm.Sum([]string{k}, join)
	case 1: // total join count
		return ivm.Sum(nil, join)
	case 2: // per-key filtered revenue
		return ivm.Sum([]string{k}, ivm.Join(
			ivm.Table("R", a, k), ivm.Table("S", k, c),
			ivm.Cond(ivm.Lt, ivm.Col(a), ivm.Col(c)),
			ivm.Val(ivm.Mul2(ivm.Col(a), ivm.Col(c))),
		))
	default: // per-(key,code) count
		return ivm.Sum([]string{k, c}, join)
	}
}

// benchMultiView measures MultiView: the maintenance throughput of 16
// overlapping views (4 distinct shapes x 4 structurally identical
// copies) over one update stream, served by 16 independent engines vs.
// one shared-program registry. Each measured pass rebuilds the serving
// side — so the registry's plan cache and sub-plan dedup are part of
// what is measured — and streams the same pre-generated transactions;
// ops are stream tuples, counted once per pass regardless of how many
// views consume them.
func benchMultiView() (independent, shared float64) {
	const (
		nViews  = 16
		rounds  = 20
		perR    = 300
		perS    = 180
		keyCard = 32
	)
	bases := map[string]ivm.Schema{"R": {"a", "k"}, "S": {"k", "c"}}

	type round struct{ r, s []ivm.Tuple }
	stream := make([]round, rounds)
	tuples := 0
	for i := range stream {
		for j := 0; j < perR; j++ {
			v := i*perR + j
			stream[i].r = append(stream[i].r, ivm.Row(v%977, v%keyCard))
		}
		for j := 0; j < perS; j++ {
			v := i*perS + j
			stream[i].s = append(stream[i].s, ivm.Row(v%keyCard, v%41))
		}
		tuples += perR + perS
	}
	feed := func(apply func(*ivm.Tx) error, newTx func() *ivm.Tx) {
		for i := range stream {
			tx := newTx()
			for _, t := range stream[i].r {
				if err := tx.Insert("R", t); err != nil {
					panic(err)
				}
			}
			for _, t := range stream[i].s {
				if err := tx.Insert("S", t); err != nil {
					panic(err)
				}
			}
			if err := apply(tx); err != nil {
				panic(err)
			}
		}
	}

	independent = measure(time.Second, tuples, func() {
		engines := make([]*ivm.Engine, nViews)
		for i := range engines {
			e, err := ivm.New(fmt.Sprintf("V%d", i), multiViewQuery(i, i), bases)
			if err != nil {
				panic(err)
			}
			engines[i] = e
		}
		for _, e := range engines {
			feed(e.Apply, e.NewTx)
		}
	})
	shared = measure(time.Second, tuples, func() {
		reg, err := ivm.NewRegistry(bases)
		if err != nil {
			panic(err)
		}
		for i := 0; i < nViews; i++ {
			if err := reg.Register(fmt.Sprintf("V%d", i), multiViewQuery(i, i)); err != nil {
				panic(err)
			}
		}
		feed(reg.Apply, reg.NewTx)
	})
	return independent, shared
}

// skewRebalanceFloor is the ISSUE 8 acceptance criterion: the skew
// feedback loop must cut virtual critical-path compute by at least 1.2x
// on a hot-key stream.
const skewRebalanceFloor = 1.2

// skewedRow draws the 90%-hot workload the skew benchmark streams: most
// rows hit one hot partitioning key h=0 spread over many u, the rest
// spread over cold h with few u; id keeps rows distinct.
func skewedRow(rng *rand.Rand, id int) ivm.Tuple {
	var u, h int
	if rng.Intn(10) < 9 {
		h, u = 0, rng.Intn(1000)
	} else {
		h, u = 1+rng.Intn(7), rng.Intn(10)
	}
	return ivm.Row(id, u, h, float64(1+rng.Intn(5)))
}

// benchSkewRebalance measures SkewRebalance on the simulator's virtual
// cost clock: a stream 90%-hot on the column the unweighted heuristic
// partitions by, at 8 workers, static placement vs. AutoTune's
// measured-skew repartitioning. The score is tuples per virtual
// ComputeMax second — the accumulated critical-path compute of the cost
// model — so the ratio does not depend on host core count or load
// (this repository's CI runs on a single-core box, where wall time
// cannot see the balance win).
func benchSkewRebalance() (static, tuned float64) {
	bases := map[string]ivm.Schema{"R": {"id", "u", "h", "v"}}
	q := ivm.Sum([]string{"u", "h"}, ivm.Join(
		ivm.Table("R", "id", "u", "h", "v"), ivm.Val(ivm.Col("v"))))
	ranks := map[string]int{"h": 5, "u": 4}
	const rounds, perRound = 40, 512
	run := func(opts ...ivm.Option) float64 {
		e, err := ivm.New("Skew", q, bases,
			append([]ivm.Option{ivm.Distributed(8), ivm.KeyRanks(ranks)}, opts...)...)
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(3))
		id := 0
		for r := 0; r < rounds; r++ {
			tx := e.NewTx()
			for i := 0; i < perRound; i++ {
				if err := tx.Insert("R", skewedRow(rng, id)); err != nil {
					panic(err)
				}
				id++
			}
			if err := e.Apply(tx); err != nil {
				panic(err)
			}
		}
		return float64(rounds*perRound) / e.Metrics().ComputeMax.Seconds()
	}
	static = run()
	tuned = run(ivm.AutoTune(ivm.TuneConfig{SkewPatience: 2, SkewCooldown: 8}))
	return static, tuned
}

// aggSpeedupFloor is the ISSUE 4 acceptance criterion: the group table
// must stay ≥1.5x over the string-keyed reference aggregator. main
// enforces it on every run — with or without -baseline — because the
// PR 2 baseline report predates the AggGroupUpdate benchmark, so a
// ratio diff alone would silently skip it.
const aggSpeedupFloor = 1.5

// medianRatioRep runs a paired (reference, native) micro benchmark three
// times and returns the repetition with the median native/reference
// ratio, so a GC pause or a noisy neighbor landing in a single ~1s
// measurement window cannot swing the ratio the CI gate checks.
func medianRatioRep(bench func() (ref, native float64)) (ref, native float64) {
	type rep struct{ ref, native float64 }
	reps := make([]rep, 3)
	for i := range reps {
		reps[i].ref, reps[i].native = bench()
	}
	sort.Slice(reps, func(i, j int) bool {
		return reps[i].native/reps[i].ref < reps[j].native/reps[j].ref
	})
	m := reps[len(reps)/2]
	return m.ref, m.native
}

// loadBaseline reads and parses a prior report. main calls it before
// the new report is written, so diffing against the file the run itself
// overwrites (the default: this PR's committed report) compares against
// the committed measurements, never against the fresh ones.
func loadBaseline(path string) (Report, error) {
	var base Report
	raw, err := os.ReadFile(path)
	if err != nil {
		return base, fmt.Errorf("read baseline: %w", err)
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		return base, fmt.Errorf("parse baseline: %w", err)
	}
	return base, nil
}

// diffBaseline gates the tracked microbenchmarks against a previous
// report by their speedup ratios (native over string-keyed reference,
// both measured in this run, so the ratio is hardware-independent) and
// returns an error listing every ratio that dropped more than maxDrop
// below the baseline's. Ratios the baseline report predates are diffed
// as n/a.
func diffBaseline(rep Report, base Report, baselinePath string, maxDrop float64) error {
	if base.GoVersion != "" && base.GoVersion != rep.GoVersion {
		fmt.Printf("note: baseline %s was recorded with %s, this run uses %s — ratio drift may be toolchain, not code\n",
			baselinePath, base.GoVersion, rep.GoVersion)
	}
	var failures []string
	check := func(name string, was, now float64) {
		if now <= 0 {
			failures = append(failures, fmt.Sprintf("%s speedup missing from this run", name))
			return
		}
		if was <= 0 {
			fmt.Printf("diff vs %s: %s speedup n/a -> %.2fx (no baseline ratio)\n",
				baselinePath, name, now)
			return
		}
		change := now/was - 1
		fmt.Printf("diff vs %s: %s speedup %.2fx -> %.2fx (%+.1f%%)\n",
			baselinePath, name, was, now, change*100)
		if now < was*(1-maxDrop) {
			failures = append(failures, fmt.Sprintf("%s speedup regressed %.1f%% (limit %.0f%%)",
				name, -change*100, maxDrop*100))
		}
	}
	check("RelationAddGet", base.AddGetSpeedup, rep.AddGetSpeedup)
	check("AggGroupUpdate", base.AggGroupSpeedup, rep.AggGroupSpeedup)
	check("ColFilter", base.ColFilterSpeedup, rep.ColFilterSpeedup)
	check("ColFold", base.ColFoldSpeedup, rep.ColFoldSpeedup)
	check("MultiView", base.MultiViewSpeedup, rep.MultiViewSpeedup)
	check("SkewRebalance", base.SkewRebalanceSpeedup, rep.SkewRebalanceSpeedup)
	if len(failures) > 0 {
		return fmt.Errorf("%s", strings.Join(failures, "; "))
	}
	return nil
}

// benchLocalStream and benchDistributed deliberately mirror the tier-2
// benchmarks in bench_test.go (executor/cluster driven directly, same
// deployment pipeline and round-robin batch spread) so the JSON numbers
// are comparable with `make bench` across PRs; keep the three in sync.
func benchLocalStream(name string, sf float64, batch int) (Result, error) {
	q, err := tpch.QueryByName(name)
	if err != nil {
		return Result{}, err
	}
	prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
	if err != nil {
		return Result{}, err
	}
	ex := compile.NewExecutor(prog)
	gen := tpch.NewGenerator(sf, 1)
	init := map[string]*mring.Relation{}
	for _, tbl := range q.Tables {
		if tbl == tpch.Nation || tbl == tpch.Region {
			init[tbl] = gen.Static(tbl)
		} else {
			init[tbl] = mring.NewRelation(tpch.Schemas[tbl])
		}
	}
	ex.InitFromBases(init)
	stream := tpch.NewStream(gen, q.Tables)
	tuples := 0
	start := time.Now()
	for {
		bs := stream.NextBatches(batch)
		if len(bs) == 0 {
			break
		}
		for _, b := range bs {
			tuples += b.Rel.Len()
			ex.ApplyBatch(b.Table, b.Rel)
		}
	}
	return Result{
		Name:         fmt.Sprintf("%s/local/bs=%d", name, batch),
		Query:        name,
		BatchSize:    batch,
		TuplesPerSec: float64(tuples) / time.Since(start).Seconds(),
	}, nil
}

// benchNetShuffle drives the same deployment pipeline as
// benchDistributed through the process cluster: worker servers on
// loopback TCP, every install/run/fetch crossing real sockets through
// the framed transport. The tuples/sec entry tracks the wire overhead
// of the process deployment; ShuffledBytes counts actual payload bytes
// shipped.
func benchNetShuffle(name string, sf float64, workers, batch int) (Result, error) {
	q, err := tpch.QueryByName(name)
	if err != nil {
		return Result{}, err
	}
	prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
	if err != nil {
		return Result{}, err
	}
	parts := dist.ChoosePartitioning(prog, tpch.PrimaryKeyRanks)
	dprogs := dist.CompileProgram(prog, parts, dist.O3)
	addrs := make([]string, workers)
	for i := range addrs {
		srv, err := cluster.ListenAndServeWorker(inet.TCP{}, "127.0.0.1:0")
		if err != nil {
			return Result{}, err
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	pc, err := cluster.Connect(inet.TCP{}, addrs, dist.ViewSchemas(prog), parts)
	if err != nil {
		return Result{}, err
	}
	defer pc.Close()
	gen := tpch.NewGenerator(sf, 1)
	stream := tpch.NewStream(gen, q.Tables)
	tuples := 0
	var shuffled int64
	start := time.Now()
	for {
		bs := stream.NextBatches(batch)
		if len(bs) == 0 {
			break
		}
		for _, b := range bs {
			m, err := pc.RunPartitionedBatch(dprogs[b.Table], b.Rel)
			if err != nil {
				return Result{}, err
			}
			shuffled += m.ShuffledBytes
			tuples += b.Rel.Len()
		}
	}
	return Result{
		Name:          fmt.Sprintf("NetShuffle/%s/w=%d/bs=%d", name, workers, batch),
		Query:         name,
		BatchSize:     batch,
		Workers:       workers,
		TuplesPerSec:  float64(tuples) / time.Since(start).Seconds(),
		ShuffledBytes: shuffled,
	}, nil
}

func benchDistributed(name string, sf float64, workers, batch int) (Result, error) {
	q, err := tpch.QueryByName(name)
	if err != nil {
		return Result{}, err
	}
	prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
	if err != nil {
		return Result{}, err
	}
	parts := dist.ChoosePartitioning(prog, tpch.PrimaryKeyRanks)
	dprogs := dist.CompileProgram(prog, parts, dist.O3)
	cl := cluster.New(cluster.DefaultConfig(workers), dist.ViewSchemas(prog), parts)
	gen := tpch.NewGenerator(sf, 1)
	stream := tpch.NewStream(gen, q.Tables)
	tuples := 0
	var shuffled int64
	start := time.Now()
	for {
		bs := stream.NextBatches(batch)
		if len(bs) == 0 {
			break
		}
		for _, b := range bs {
			frags := make([]*mring.Relation, workers)
			for i := range frags {
				frags[i] = mring.NewRelation(b.Rel.Schema())
			}
			i := 0
			b.Rel.Foreach(func(t mring.Tuple, m float64) {
				frags[i%workers].Add(t, m)
				i++
			})
			m, err := cl.RunPartitioned(dprogs[b.Table], frags)
			if err != nil {
				return Result{}, err
			}
			shuffled += m.ShuffledBytes
			tuples += b.Rel.Len()
		}
	}
	return Result{
		Name:          fmt.Sprintf("%s/dist/w=%d/bs=%d", name, workers, batch),
		Query:         name,
		BatchSize:     batch,
		Workers:       workers,
		TuplesPerSec:  float64(tuples) / time.Since(start).Seconds(),
		ShuffledBytes: shuffled,
	}, nil
}

func main() {
	out := flag.String("out", "", "output file (default BENCH_<pr>.json)")
	pr := flag.Int("pr", 4, "PR number recorded in the report")
	sf := flag.Float64("sf", 0.2, "TPC-H scale factor")
	baseline := flag.String("baseline", "", "prior BENCH_<n>.json to diff speedup ratios against (>15% drop fails)")
	flag.Parse()
	if *out == "" {
		*out = fmt.Sprintf("BENCH_%d.json", *pr)
	}
	// The baseline is loaded up front: it may be the very file this run
	// overwrites, in which case the gate must see the committed
	// measurements, not the fresh ones.
	var base Report
	if *baseline != "" {
		var err error
		if base, err = loadBaseline(*baseline); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}

	rep := Report{PR: *pr, GoVersion: runtime.Version()}

	sk, hn := medianRatioRep(benchAddGet)
	rep.Results = append(rep.Results,
		Result{Name: "RelationAddGet/string-keyed", OpsPerSec: sk},
		Result{Name: "RelationAddGet/hash-native", OpsPerSec: hn},
	)
	rep.AddGetSpeedup = hn / sk
	fmt.Printf("RelationAddGet: string-keyed %.0f ops/sec, hash-native %.0f ops/sec (%.2fx)\n", sk, hn, rep.AddGetSpeedup)

	ask, agt := medianRatioRep(benchAggGroup)
	rep.Results = append(rep.Results,
		Result{Name: "AggGroupUpdate/string-keyed", OpsPerSec: ask},
		Result{Name: "AggGroupUpdate/group-table", OpsPerSec: agt},
	)
	rep.AggGroupSpeedup = agt / ask
	fmt.Printf("AggGroupUpdate: string-keyed %.0f ops/sec, group-table %.0f ops/sec (%.2fx)\n", ask, agt, rep.AggGroupSpeedup)

	frow, fker := medianRatioRep(benchColFilter)
	rep.Results = append(rep.Results,
		Result{Name: "ColFilter/row-wise", OpsPerSec: frow},
		Result{Name: "ColFilter/kernel", OpsPerSec: fker},
	)
	rep.ColFilterSpeedup = fker / frow
	fmt.Printf("ColFilter: row-wise %.0f rows/sec, kernel %.0f rows/sec (%.2fx)\n", frow, fker, rep.ColFilterSpeedup)

	grow, gker := medianRatioRep(benchColFold)
	rep.Results = append(rep.Results,
		Result{Name: "ColFold/row-wise", OpsPerSec: grow},
		Result{Name: "ColFold/kernel", OpsPerSec: gker},
	)
	rep.ColFoldSpeedup = gker / grow
	fmt.Printf("ColFold: row-wise %.0f rows/sec, kernel %.0f rows/sec (%.2fx)\n", grow, gker, rep.ColFoldSpeedup)

	mvi, mvs := medianRatioRep(benchMultiView)
	rep.Results = append(rep.Results,
		Result{Name: "MultiView/independent-engines", TuplesPerSec: mvi},
		Result{Name: "MultiView/shared-registry", TuplesPerSec: mvs},
	)
	rep.MultiViewSpeedup = mvs / mvi
	fmt.Printf("MultiView: independent %.0f tuples/sec, shared %.0f tuples/sec (%.2fx)\n", mvi, mvs, rep.MultiViewSpeedup)

	srs, srt := medianRatioRep(benchSkewRebalance)
	rep.Results = append(rep.Results,
		Result{Name: "SkewRebalance/static", Workers: 8, TuplesPerSec: srs},
		Result{Name: "SkewRebalance/autotune", Workers: 8, TuplesPerSec: srt},
	)
	rep.SkewRebalanceSpeedup = srt / srs
	fmt.Printf("SkewRebalance: static %.0f tuples/vcpu-sec, autotune %.0f tuples/vcpu-sec (%.2fx)\n", srs, srt, rep.SkewRebalanceSpeedup)

	for _, name := range []string{"Q3", "Q6"} {
		r, err := benchLocalStream(name, *sf, 1000)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: %.0f tuples/sec\n", r.Name, r.TuplesPerSec)
		rep.Results = append(rep.Results, r)
	}
	r, err := benchDistributed("Q3", *sf, 16, 4000)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %.0f tuples/sec, %d shuffled bytes\n", r.Name, r.TuplesPerSec, r.ShuffledBytes)
	rep.Results = append(rep.Results, r)

	ns, err := benchNetShuffle("Q3", *sf, 4, 4000)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("%s: %.0f tuples/sec, %d shuffled bytes\n", ns.Name, ns.TuplesPerSec, ns.ShuffledBytes)
	rep.Results = append(rep.Results, ns)

	if err := appendDurabilityResults(&rep, *sf); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", *out)

	// The acceptance floor holds on every run, with or without a
	// baseline report to diff against (the report is written first so a
	// failing run still leaves the measurements behind as an artifact).
	if rep.AggGroupSpeedup < aggSpeedupFloor {
		fmt.Fprintf(os.Stderr, "benchjson: AggGroupUpdate speedup %.2fx below the %.1fx acceptance floor\n",
			rep.AggGroupSpeedup, aggSpeedupFloor)
		os.Exit(1)
	}
	if rep.ColFilterSpeedup < colKernelFloor && rep.ColFoldSpeedup < colKernelFloor {
		fmt.Fprintf(os.Stderr, "benchjson: no columnar kernel cleared the %.1fx floor (ColFilter %.2fx, ColFold %.2fx)\n",
			colKernelFloor, rep.ColFilterSpeedup, rep.ColFoldSpeedup)
		os.Exit(1)
	}
	if rep.MultiViewSpeedup < multiViewFloor {
		fmt.Fprintf(os.Stderr, "benchjson: MultiView shared/independent speedup %.2fx below the %.1fx acceptance floor\n",
			rep.MultiViewSpeedup, multiViewFloor)
		os.Exit(1)
	}
	if rep.SkewRebalanceSpeedup < skewRebalanceFloor {
		fmt.Fprintf(os.Stderr, "benchjson: SkewRebalance speedup %.2fx below the %.1fx acceptance floor\n",
			rep.SkewRebalanceSpeedup, skewRebalanceFloor)
		os.Exit(1)
	}
	if *baseline != "" {
		if err := diffBaseline(rep, base, *baseline, 0.15); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: baseline diff:", err)
			os.Exit(1)
		}
	}
}
