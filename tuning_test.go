package ivm

// Self-tuning runtime gates: AutoTune must never change maintained
// results, only cost. The goldens here stream dyadic-quantized TPC-H
// updates (values chosen so every aggregate is exact in float64, making
// sums independent of fold order across repartitions) and require
// bitwise-identical results with tuning on and off, on both backends.
// The remaining tests pin the feedback loop end to end — skew
// repartitioning, concurrent Stats snapshots, probe cost that a tuned
// engine keeps independent of view size — and a soak run (TUNE_SOAK)
// checks repartitioning settles.

import (
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/mring"
	"repro/internal/tpch"
)

// Lineitem column positions resolved by name, so the quantizer does not
// silently corrupt a different column if the schema evolves.
var liPriceCol, liDiscCol = func() (int, int) {
	p, d := -1, -1
	for i, c := range tpch.Schemas[tpch.Lineitem] {
		switch c {
		case "l_extendedprice":
			p = i
		case "l_discount":
			d = i
		}
	}
	return p, d
}()

// quantizeDyadic snaps lineitem's two continuous columns onto dyadic
// grids: extendedprice to whole units, discount (k/100 from the
// generator) to k/128. Every product the Q1/Q3/Q6 aggregates form is
// then exactly representable in float64 and sums are associative, so
// results must be bitwise identical no matter where they are folded.
// (k=7,8 still land inside Q6's [0.05, 0.07] discount band.)
func quantizeDyadic(table string, r *mring.Relation) *mring.Relation {
	if table != tpch.Lineitem {
		return r
	}
	out := mring.NewRelation(r.Schema())
	r.Foreach(func(t mring.Tuple, m float64) {
		q := t.Clone()
		q[liPriceCol] = mring.Float(math.Floor(t[liPriceCol].AsFloat()))
		q[liDiscCol] = mring.Float(math.Round(t[liDiscCol].AsFloat()*100) / 128)
		out.Add(q, m)
	})
	return out
}

// aggressiveTune makes the skew controller act as often as it can on
// short test streams.
func aggressiveTune() TuneConfig {
	return TuneConfig{SkewPatience: 1, SkewCooldown: 1}
}

// TestGoldenTuningEquivalence is the tuning-equivalence golden: for Q1,
// Q3, and Q6, an AutoTune engine and an untuned engine fed the identical
// quantized stream must end bitwise identical — on the local backend and
// at 1, 8, and 16 workers.
func TestGoldenTuningEquivalence(t *testing.T) {
	for _, name := range []string{"Q1", "Q3", "Q6"} {
		t.Run(name, func(t *testing.T) {
			q, err := tpch.QueryByName(name)
			if err != nil {
				t.Fatal(err)
			}
			bases := q.BaseSchemas()
			type pair struct {
				name        string
				base, tuned *Engine
			}
			mk := func(label string, opts ...Option) pair {
				base, err := New(q.Name, q.Def, bases, opts...)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				tuned, err := New(q.Name, q.Def, bases,
					append(append([]Option{}, opts...), AutoTune(aggressiveTune()))...)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return pair{label, base, tuned}
			}
			pairs := []pair{
				mk("local"),
				mk("dist1", Distributed(1), KeyRanks(tpch.PrimaryKeyRanks)),
				mk("dist8", Distributed(8), KeyRanks(tpch.PrimaryKeyRanks)),
				mk("dist16", Distributed(16), KeyRanks(tpch.PrimaryKeyRanks)),
			}

			gen := tpch.NewGenerator(0.03, 5)
			stream := tpch.NewStream(gen, q.Tables)
			for {
				bs := stream.NextBatches(137)
				if len(bs) == 0 {
					break
				}
				for _, b := range bs {
					rel := quantizeDyadic(b.Table, b.Rel)
					for _, p := range pairs {
						if err := p.base.ApplyBatch(b.Table, &Batch{rel: rel.Clone()}); err != nil {
							t.Fatalf("%s base: %v", p.name, err)
						}
						if err := p.tuned.ApplyBatch(b.Table, &Batch{rel: rel.Clone()}); err != nil {
							t.Fatalf("%s tuned: %v", p.name, err)
						}
					}
				}
			}

			for _, p := range pairs {
				want := p.base.Result().rel
				got := p.tuned.Result().rel
				if got.Len() != want.Len() {
					t.Fatalf("%s: tuned has %d groups, untuned %d", p.name, got.Len(), want.Len())
				}
				want.Foreach(func(tp mring.Tuple, m float64) {
					if g := got.Get(tp); g != m {
						t.Fatalf("%s: group %v = %g tuned vs %g untuned (must be bitwise identical)",
							p.name, tp, g, m)
					}
				})
				if !p.tuned.Stats().Tuning.Enabled {
					t.Fatalf("%s: AutoTune engine reports Enabled=false", p.name)
				}
			}
		})
	}
}

// TestTuningEquivalenceApprox repeats the on/off comparison on the raw
// (unquantized) generator stream: there a repartition may legitimately
// reassociate float sums, so the gate is 1e-6 relative, plus the
// rebuild oracle.
func TestTuningEquivalenceApprox(t *testing.T) {
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	bases := q.BaseSchemas()
	base, err := New(q.Name, q.Def, bases)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := New(q.Name, q.Def, bases,
		Distributed(8), KeyRanks(tpch.PrimaryKeyRanks), AutoTune(aggressiveTune()))
	if err != nil {
		t.Fatal(err)
	}
	accum := goldenStream(t, q, func(table string, b *Batch) {
		if err := base.ApplyBatch(table, &Batch{rel: b.rel.Clone()}); err != nil {
			t.Fatal(err)
		}
		if err := tuned.ApplyBatch(table, &Batch{rel: b.rel.Clone()}); err != nil {
			t.Fatal(err)
		}
	})
	got, want := tuned.Result().rel, base.Result().rel
	if !got.EqualApprox(want, 1e-6) {
		t.Fatalf("AutoTune result diverged from untuned engine\n got %v\nwant %v", got, want)
	}
	oracle := rebuildOracle(q, accum)
	if !got.EqualApprox(oracle, 1e-6) {
		t.Fatalf("AutoTune result diverged from rebuild oracle\n got %v\nwant %v", got, oracle)
	}
}

// TestStatsApplyRace is the regression test for the snapshot race:
// Stats, Result, and Metrics hammered concurrently with Apply must be
// clean under -race (make test) and must not perturb results. Covered
// with tuning off, tuning on, and on the distributed backend.
func TestStatsApplyRace(t *testing.T) {
	bases := map[string]Schema{"R": {"a", "b"}, "S": {"b", "c"}}
	q := Sum([]string{"a"}, Join(Table("R", "a", "b"), Table("S", "b", "c")))
	const rounds = 250
	feed := func(e *Engine) error {
		for i := 0; i < rounds; i++ {
			tx := e.NewTx()
			if err := tx.Insert("R", Row(i%17, i%13)); err != nil {
				return err
			}
			if err := tx.Insert("S", Row(i%13, i%29)); err != nil {
				return err
			}
			if err := e.Apply(tx); err != nil {
				return err
			}
		}
		return nil
	}
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"untuned", nil},
		{"autotune", []Option{AutoTune(aggressiveTune())}},
		{"distributed", []Option{Distributed(4),
			KeyRanks(map[string]int{"a": 3, "b": 2}), AutoTune(aggressiveTune())}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New("Q", q, bases, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 3; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						_ = e.Stats().Tuning.Imbalance
						_ = e.Result().Len()
						_ = e.Metrics()
					}
				}()
			}
			err = feed(e)
			close(stop)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New("Q", q, bases)
			if err != nil {
				t.Fatal(err)
			}
			if err := feed(ref); err != nil {
				t.Fatal(err)
			}
			if got, want := e.Result().rel, ref.Result().rel; !got.Equal(want) {
				t.Fatalf("concurrent observation perturbed the result\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestRegistryStatsApplyRace repeats the snapshot hammer on a Registry:
// its Stats/Result paths share the serving core but build lazily, so the
// first concurrent use is its own race candidate.
func TestRegistryStatsApplyRace(t *testing.T) {
	bases := map[string]Schema{"R": {"a", "b"}}
	r, err := NewRegistry(bases, AutoTune(aggressiveTune()))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register("bySum", Sum([]string{"a"}, Table("R", "a", "b"))); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("all", Sum([]string{"a", "b"}, Table("R", "a", "b"))); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.Stats(); err != nil {
					return
				}
				if _, err := r.Result("bySum"); err != nil {
					return
				}
			}
		}()
	}
	var feedErr error
	for i := 0; i < 250; i++ {
		tx := r.NewTx()
		if feedErr = tx.Insert("R", Row(i%11, i%7)); feedErr != nil {
			break
		}
		if feedErr = r.Apply(tx); feedErr != nil {
			break
		}
	}
	close(stop)
	wg.Wait()
	if feedErr != nil {
		t.Fatal(feedErr)
	}
	res, err := r.Result("bySum")
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 11 {
		t.Fatalf("bySum has %d groups, want 11", res.Len())
	}
}

// skewedRow draws from the skewed workload both the repartition test and
// the soak use: 90% of rows hit one hot partitioning key h=0 (spread
// over many u), the rest spread over cold h values with few u. id keeps
// every row distinct.
func skewedRow(rng *rand.Rand, id int) Tuple {
	var u, h int
	if rng.Intn(10) < 9 {
		h = 0
		u = rng.Intn(1000)
	} else {
		h = 1 + rng.Intn(7)
		u = rng.Intn(10)
	}
	return Row(id, u, h, float64(1+rng.Intn(5)))
}

// TestSkewRebalanceRepartitions pins the skew feedback loop end to end:
// a stream 90%-hot on the initially chosen partitioning column must
// trigger at least one measured-skew repartition (and, with cooldown,
// not thrash), the repartitioned engine must still match an untuned
// local engine bitwise (all values integral, so sums are exact), and the
// repartition must pay off: a static engine on the same placement
// heuristic must spend at least 1.2x the tuned engine's virtual
// critical-path compute (Metrics.ComputeMax, a deterministic op count on
// the simulator's cost clock, so the ratio repeats exactly on any host).
func TestSkewRebalanceRepartitions(t *testing.T) {
	bases := map[string]Schema{"R": {"id", "u", "h", "v"}}
	q := Sum([]string{"u", "h"}, Join(Table("R", "id", "u", "h", "v"), Val(Col("v"))))
	// h outranks u, so the unweighted heuristic partitions on the hot
	// column; the measured-skew weights must overturn that.
	ranks := map[string]int{"h": 5, "u": 4}
	cfg := TuneConfig{SkewPatience: 2, SkewCooldown: 4}
	tuned, err := New("Q", q, bases, Distributed(8), KeyRanks(ranks), AutoTune(cfg))
	if err != nil {
		t.Fatal(err)
	}
	static, err := New("Q", q, bases, Distributed(8), KeyRanks(ranks))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New("Q", q, bases)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(1))
	id := 0
	for round := 0; round < 40; round++ {
		bt, bs, br := NewBatch(bases["R"]), NewBatch(bases["R"]), NewBatch(bases["R"])
		for i := 0; i < 400; i++ {
			row := skewedRow(rng, id)
			id++
			for _, b := range []*Batch{bt, bs, br} {
				if err := b.Insert(row.Clone()); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := tuned.ApplyBatch("R", bt); err != nil {
			t.Fatal(err)
		}
		if err := static.ApplyBatch("R", bs); err != nil {
			t.Fatal(err)
		}
		if err := ref.ApplyBatch("R", br); err != nil {
			t.Fatal(err)
		}
	}

	st := tuned.Stats()
	if st.Tuning.Repartitions < 1 {
		t.Fatalf("skewed stream never triggered a repartition: %+v (imbalance %.2f)",
			st.Tuning, st.Tuning.Imbalance)
	}
	if st.Tuning.Repartitions > 4 {
		t.Fatalf("repartitioning thrashed: %d placements deployed", st.Tuning.Repartitions)
	}
	if len(st.Workers) != 8 {
		t.Fatalf("Stats.Workers has %d entries, want 8", len(st.Workers))
	}
	got, want := tuned.Result().rel, ref.Result().rel
	if !got.Equal(want) {
		t.Fatalf("repartitioned engine diverged from untuned local engine\n got %v\nwant %v", got, want)
	}
	staticMax, tunedMax := static.Metrics().ComputeMax, tuned.Metrics().ComputeMax
	ratio := float64(staticMax) / float64(tunedMax)
	t.Logf("ComputeMax static %v, tuned %v: %.2fx", staticMax, tunedMax, ratio)
	if ratio < 1.2 {
		t.Fatalf("repartitioning cut critical-path compute only %.2fx (static %v, tuned %v), want >= 1.2x",
			ratio, staticMax, tunedMax)
	}
}

// TestTunedProbeCostIndependentOfView pins the constant-cost probe
// (Sec. 5.1) under AutoTune. The program for S ⋈ R keeps an auxiliary
// view over R whose slice index on b is maintained by every R insert
// and probed only by S inserts. After a long R-only phase that grows
// the view to 10k tuples, one S row must still cost an index probe, not
// a scan of the view, on a tuned engine as on an untuned one.
func TestTunedProbeCostIndependentOfView(t *testing.T) {
	bases := map[string]Schema{"R": {"a", "b"}, "S": {"b", "c"}}
	q := Sum([]string{"a"}, Join(Table("S", "b", "c"), Table("R", "a", "b")))
	ref, err := New("Q", q, bases)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := New("Q", q, bases, AutoTune())
	if err != nil {
		t.Fatal(err)
	}
	engines := []*Engine{ref, tuned}
	apply := func(table string, rows ...Tuple) {
		for _, e := range engines {
			tx := e.NewTx()
			for _, r := range rows {
				if err := tx.Insert(table, r); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Apply(tx); err != nil {
				t.Fatal(err)
			}
		}
	}

	apply("S", Row(0, 1))
	for i := 0; i < 160; i++ {
		rows := make([]Tuple, 64)
		for j := range rows {
			k := i*64 + j
			rows[j] = Row(k, k)
		}
		apply("R", rows...)
	}
	before := []int64{ref.Stats().Scans, tuned.Stats().Scans}
	apply("S", Row(5, 2))
	for i, e := range engines {
		if d := e.Stats().Scans - before[i]; d > 8 {
			t.Errorf("engine %d (tuned=%v): one S row scanned %d tuples over a %d-row R view, want an index probe (≤ 8)",
				i, e.Stats().Tuning.Enabled, d, 160*64)
		}
	}
	if got, want := tuned.Result().rel, ref.Result().rel; !got.Equal(want) {
		t.Fatalf("AutoTune changed results\n got %v\nwant %v", got, want)
	}
}

// TestTuneConfigValidation: a TuneConfig field out of range makes New
// and NewRegistry fail instead of, for a negative patience, rebalancing
// after every transaction. Zero still means the default.
func TestTuneConfigValidation(t *testing.T) {
	q := Sum([]string{"a"}, Table("R", "a"))
	bases := map[string]Schema{"R": {"a"}}
	for _, tc := range []struct {
		name string
		cfg  TuneConfig
		ok   bool
	}{
		{"zero", TuneConfig{}, true},
		{"set", TuneConfig{SkewThreshold: 2, SkewPatience: 4, SkewCooldown: 8}, true},
		{"negative patience", TuneConfig{SkewPatience: -1}, false},
		{"negative cooldown", TuneConfig{SkewCooldown: -1}, false},
		{"negative threshold", TuneConfig{SkewThreshold: -0.5}, false},
		{"NaN threshold", TuneConfig{SkewThreshold: math.NaN()}, false},
		{"+Inf threshold", TuneConfig{SkewThreshold: math.Inf(1)}, false},
		{"-Inf threshold", TuneConfig{SkewThreshold: math.Inf(-1)}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New("Q", q, bases, AutoTune(tc.cfg))
			if (err == nil) != tc.ok {
				t.Errorf("New(AutoTune(%+v)) error = %v, want ok=%v", tc.cfg, err, tc.ok)
			}
			_, err = NewRegistry(bases, AutoTune(tc.cfg))
			if (err == nil) != tc.ok {
				t.Errorf("NewRegistry(AutoTune(%+v)) error = %v, want ok=%v", tc.cfg, err, tc.ok)
			}
		})
	}
}

// TestTuningSoak runs the full loop — skewed stream, skew controller
// live — for TUNE_SOAK (default 2s; CI runs 30s under -race) and
// asserts repartitioning settles instead of thrashing.
func TestTuningSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped with -short")
	}
	d := 2 * time.Second
	if s := os.Getenv("TUNE_SOAK"); s != "" {
		p, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("bad TUNE_SOAK %q: %v", s, err)
		}
		d = p
	}
	bases := map[string]Schema{"R": {"id", "u", "h", "v"}}
	q := Sum([]string{"u", "h"}, Join(Table("R", "id", "u", "h", "v"), Val(Col("v"))))
	e, err := New("Q", q, bases, Distributed(8),
		KeyRanks(map[string]int{"h": 5, "u": 4}),
		AutoTune(TuneConfig{SkewPatience: 2, SkewCooldown: 8}))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(9))
	deadline := time.Now().Add(d)
	id := 0
	for time.Now().Before(deadline) {
		b := NewBatch(bases["R"])
		for i := 0; i < 512; i++ {
			if err := b.Insert(skewedRow(rng, id)); err != nil {
				t.Fatal(err)
			}
			id++
		}
		if err := e.ApplyBatch("R", b); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Tuning.Repartitions > 5 {
		t.Fatalf("repartitioning did not settle: %d placements in %v (%d rows applied)",
			st.Tuning.Repartitions, d, id)
	}
}
