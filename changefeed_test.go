package ivm

// Changefeed gate: Subscribe must deliver the exact per-transaction
// result deltas on both backends, gathered deterministically on the
// distributed path (per-worker contributions merge in worker-index
// order). Replaying the delta stream into an empty relation must
// reconstruct Result(); with integral data the streams are
// bitwise-identical across the local engine and 1/8/16 workers — every
// capture path (driver-maintained, replicated, worker-partitioned top
// views) is covered. Run under -race (make test) this also certifies
// the per-worker delta sinks share nothing.

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/mring"
	"repro/internal/tpch"
)

// replayer accumulates a delta stream and checks it reconstructs the
// engine result.
type replayer struct {
	rel     *mring.Relation
	stream  []string
	lastSeq int64
}

func subscribeReplay(t *testing.T, e *Engine) *replayer {
	t.Helper()
	// A recovered durable engine's feed continues its log's numbering.
	rp := &replayer{rel: mring.NewRelation(e.Result().rel.Schema()), lastSeq: e.Stats().Durability.Applied}
	e.Subscribe(func(d Delta) {
		if d.Seq != rp.lastSeq+1 {
			t.Fatalf("delta sequence skipped: %d after %d", d.Seq, rp.lastSeq)
		}
		rp.lastSeq = d.Seq
		d.Foreach(func(tp Tuple, change float64) { rp.rel.Add(tp, change) })
		rp.stream = append(rp.stream, d.String())
	})
	return rp
}

// intScript is a deterministic stream of integer-valued transactions
// over R(a,k), S(k,c) — inserts and deletes — so all aggregate
// arithmetic is exact and delta streams can be compared bitwise across
// backends and worker counts.
func intScript(t *testing.T) [][]tpch.Batch {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var rounds [][]tpch.Batch
	for round := 0; round < 12; round++ {
		br := NewBatch(Schema{"a", "k"})
		bs := NewBatch(Schema{"k", "c"})
		for i := 0; i < 40; i++ {
			if err := br.Insert(Row(rng.Intn(200), rng.Intn(8))); err != nil {
				t.Fatal(err)
			}
			if err := bs.Insert(Row(rng.Intn(8), rng.Intn(50))); err != nil {
				t.Fatal(err)
			}
		}
		if round%3 == 2 {
			// Retract a slice of what round round-2 inserted.
			if err := br.Delete(Row(rng.Intn(200), rng.Intn(8))); err != nil {
				t.Fatal(err)
			}
		}
		rounds = append(rounds, []tpch.Batch{{Table: "R", Rel: br.rel}, {Table: "S", Rel: bs.rel}})
	}
	return rounds
}

// TestChangefeedBitwiseAcrossWorkers drives one query shape per
// top-view placement (worker-partitioned, driver-local scalar,
// replicated) through the local backend and 1/8/16 workers: the
// results and the subscribed delta streams must be bitwise identical
// everywhere, and replaying any stream must reconstruct that engine's
// Result exactly.
func TestChangefeedBitwiseAcrossWorkers(t *testing.T) {
	join := Join(Table("R", "a", "k"), Table("S", "k", "c"))
	bases := map[string]Schema{"R": {"a", "k"}, "S": {"k", "c"}}
	cases := []struct {
		name  string
		query Expr
		ranks map[string]int
	}{
		// Group key k ranked: the top view partitions across workers.
		{"partitioned", Sum([]string{"k"}, join), map[string]int{"a": 3, "k": 2}},
		// Scalar result: the top view lives at the driver.
		{"driver-local", Sum(nil, join), map[string]int{"a": 3, "k": 2}},
		// Group key unranked: the top view replicates on every worker.
		{"replicated", Sum([]string{"k"}, join), map[string]int{"a": 3}},
	}
	var rows []row
	for _, tc := range cases {
		rows = append(rows, row{name: tc.name, query: "Q", def: tc.query, bases: bases,
			opts: []Option{KeyRanks(tc.ranks)}, rounds: intScript(t), feed: true,
			lanes: []lane{localLane(), distLane(1), distLane(8), distLane(16)},
			check: func(t *testing.T, lanes map[string]*laneRun) {
				for name, lr := range lanes {
					requireBitwiseEqual(t, name+": the replayed feed against Result", lr.feed.rel, lr.e.Result().rel)
				}
			}})
	}
	runRows(t, rows...)
}

// TestChangefeedReplayReconstructsTPCH replays the Q1/Q3/Q6 delta
// streams — float-valued aggregates through every top-view placement
// the TPC-H partitioning produces — and checks the replay matches
// Result within float tolerance for the Engine and the distributed
// backend at 1/8/16 workers.
func TestChangefeedReplayReconstructsTPCH(t *testing.T) {
	var rows []row
	for _, name := range []string{"Q1", "Q3", "Q6"} {
		q, err := tpch.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		lanes := []lane{localLane()}
		for _, w := range []int{1, 8, 16} {
			l := distLane(w)
			l.ref = skip
			lanes = append(lanes, l)
		}
		r := tpchRow(name, q, goldenScript(q), lanes...)
		r.feed = true
		r.check = func(t *testing.T, lanes map[string]*laneRun) {
			for name, lr := range lanes {
				if lr.feed.lastSeq == 0 {
					t.Fatalf("%s: no deltas delivered", name)
				}
				if !lr.feed.rel.EqualApprox(lr.e.Result().rel, 1e-6) {
					t.Fatalf("%s: replayed stream does not reconstruct Result\nreplay %v\nresult %v", name, lr.feed.rel, lr.e.Result().rel)
				}
			}
		}
		rows = append(rows, r)
	}
	runRows(t, rows...)
}

// TestChangefeedReEvaluationPolicy exercises delta capture on the
// re-evaluation path (OpSet top-view triggers from uncorrelated
// nesting), which installs results through transformer writes on the
// distributed backend.
func TestChangefeedReEvaluationPolicy(t *testing.T) {
	// x := COUNT(S) is uncorrelated with R, so updates to S recompute
	// the view (Sec. 3.2.3).
	inner := Sum(nil, Table("S", "c", "d"))
	q := Sum(nil, Join(
		Table("R", "a", "b"),
		Lift("x", inner),
		Cond(Lt, Col("a"), Col("x"))))
	bases := map[string]Schema{"R": {"a", "b"}, "S": {"c", "d"}}

	local, err := New("QRE", q, bases)
	if err != nil {
		t.Fatal(err)
	}
	distEng, err := New("QRE", q, bases, Distributed(4), KeyRanks(map[string]int{"a": 2, "c": 2}))
	if err != nil {
		t.Fatal(err)
	}
	engines := []*Engine{local, distEng}
	replays := []*replayer{subscribeReplay(t, local), subscribeReplay(t, distEng)}

	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 8; round++ {
		br := NewBatch(Schema{"a", "b"})
		bs := NewBatch(Schema{"c", "d"})
		for i := 0; i < 10; i++ {
			br.Insert(Row(rng.Intn(6), rng.Intn(30)))
		}
		if round%2 == 1 {
			bs.Insert(Row(rng.Intn(20), rng.Intn(20)))
		}
		for _, e := range engines {
			tx := e.NewTx()
			tx.Put("R", &Batch{rel: br.rel.Clone()})
			if bs.Len() > 0 {
				tx.Put("S", &Batch{rel: bs.rel.Clone()})
			}
			if err := e.Apply(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, label := range []string{"local", "distributed"} {
		res := engines[i].Result().rel
		if !replays[i].rel.EqualApprox(res, 1e-9) {
			t.Fatalf("%s: replay does not reconstruct re-evaluated result\nreplay %v\nresult %v",
				label, replays[i].rel, res)
		}
	}
	if !engines[1].Result().rel.EqualApprox(engines[0].Result().rel, 1e-9) {
		t.Fatalf("distributed re-evaluation diverged from local")
	}
}

// TestChangefeedWarmDelta pins the warm-start contract: Warm delivers
// the initial result contents as the first delta on both backends, and
// the replay invariant holds across warm start plus streamed updates.
func TestChangefeedWarmDelta(t *testing.T) {
	initR := NewBatch(Schema{"a", "k"})
	initS := NewBatch(Schema{"k", "c"})
	for i := 0; i < 60; i++ {
		initR.Insert(Row(i, i%5))
		initS.Insert(Row(i%5, i))
	}
	rounds := intScript(t)
	runRows(t, row{query: "QW", def: Sum([]string{"k"}, Join(Table("R", "a", "k"), Table("S", "k", "c"))),
		bases: map[string]Schema{"R": {"a", "k"}, "S": {"k", "c"}}, opts: []Option{KeyRanks(map[string]int{"a": 3, "k": 2})},
		warm: []tpch.Batch{{Table: "R", Rel: initR.rel}, {Table: "S", Rel: initS.rel}}, rounds: rounds, feed: true,
		lanes: []lane{localLane(), distLane(8)},
		check: func(t *testing.T, lanes map[string]*laneRun) {
			for name, lr := range lanes {
				if s := lr.feed.stream; len(s) != len(rounds)+1 || strings.HasSuffix(s[0], "{}") {
					t.Fatalf("%s: want the warm start's non-empty delta, then one per transaction; got %d deltas, the first %s", name, len(s), s[0])
				}
				requireBitwiseEqual(t, name+": the warm+stream replay against Result", lr.feed.rel, lr.e.Result().rel)
			}
		}})
}
