package bench

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
)

func tup(vs ...int) mring.Tuple {
	t := make(mring.Tuple, len(vs))
	for i, v := range vs {
		t[i] = mring.Int(int64(v))
	}
	return t
}

// engines builds all three strategies over the same query.
func engines(t *testing.T, q expr.Expr, bases map[string]mring.Schema) []Engine {
	t.Helper()
	prog, err := compile.Compile("Q", q, bases, compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return []Engine{NewReEval(q, bases), NewClassicalIVM(q, bases), recursiveEngine{compile.NewExecutor(prog)}}
}

func TestAllEnginesAgreeFlatJoin(t *testing.T) {
	q := expr.Sum([]string{"B"}, expr.Join(
		expr.Base("R", "A", "B"), expr.Base("S", "B", "C")))
	bases := map[string]mring.Schema{"R": {"A", "B"}, "S": {"B", "C"}}
	checkAgree(t, q, bases, 42)
}

func TestAllEnginesAgreeNested(t *testing.T) {
	inner := expr.Sum(nil, expr.Join(expr.Base("S", "B2", "C"), expr.Eq(expr.V("B"), expr.V("B2"))))
	q := expr.Sum(nil, expr.Join(
		expr.Base("R", "A", "B"),
		expr.LiftQ("X", inner),
		expr.CmpE(expr.CLt, expr.V("A"), expr.V("X"))))
	bases := map[string]mring.Schema{"R": {"A", "B"}, "S": {"B2", "C"}}
	checkAgree(t, q, bases, 7)
}

// checkAgree feeds every strategy the same random batches and holds
// each result to the oracle over the accumulated base tables.
func checkAgree(t *testing.T, q expr.Expr, bases map[string]mring.Schema, seed int64) {
	t.Helper()
	es := engines(t, q, bases)
	rng := rand.New(rand.NewSource(seed))
	db := baseline.DB{}
	var rels []string
	for n, s := range bases {
		db[n] = mring.NewRelation(s)
		rels = append(rels, n)
	}
	sort.Strings(rels)
	for b := 0; b < 12; b++ {
		rel := rels[rng.Intn(len(rels))]
		batch := mring.NewRelation(bases[rel])
		for i := 0; i < 6; i++ {
			batch.Add(tup(rng.Intn(4), rng.Intn(4)), 1)
		}
		db[rel].(*mring.Relation).Merge(batch)
		want := baseline.Eval(q, db)
		for _, e := range es {
			e.ApplyBatch(rel, batch.Clone())
			if d := baseline.Diff(e.Result(), want); d != "" {
				t.Fatalf("batch %d: %s diverged from the oracle: %s", b, e.Name(), d)
			}
		}
	}
}

func TestLoadBase(t *testing.T) {
	q := expr.Sum(nil, expr.Base("R", "A"))
	bases := map[string]mring.Schema{"R": {"A"}}
	re := NewReEval(q, bases)
	ci := NewClassicalIVM(q, bases)
	init := mring.NewRelation(mring.Schema{"A"})
	init.Add(tup(1), 3)
	re.LoadBase("R", init.Clone())
	ci.LoadBase("R", init.Clone())
	if re.Result().Get(mring.Tuple{}) != 3 || ci.Result().Get(mring.Tuple{}) != 3 {
		t.Fatal("LoadBase did not refresh results")
	}
	batch := mring.NewRelation(mring.Schema{"A"})
	batch.Add(tup(2), 2)
	re.ApplyBatch("R", batch.Clone())
	ci.ApplyBatch("R", batch.Clone())
	if re.Result().Get(mring.Tuple{}) != 5 || ci.Result().Get(mring.Tuple{}) != 5 {
		t.Fatal("post-load batches wrong")
	}
}

func TestClassicalCheaperThanReEvalOnJoins(t *testing.T) {
	// The whole point of IVM: for small batches over grown tables, the
	// classical delta visits far fewer tuples than recomputation.
	q := expr.Sum([]string{"B"}, expr.Join(
		expr.Base("R", "A", "B"), expr.Base("S", "B", "C")))
	bases := map[string]mring.Schema{"R": {"A", "B"}, "S": {"B", "C"}}
	re := NewReEval(q, bases)
	ci := NewClassicalIVM(q, bases)
	rng := rand.New(rand.NewSource(1))
	grow := func(rel string, n int) *mring.Relation {
		b := mring.NewRelation(bases[rel])
		for i := 0; i < n; i++ {
			b.Add(tup(rng.Intn(50), rng.Intn(50)), 1)
		}
		return b
	}
	re.ApplyBatch("R", grow("R", 2000))
	re.ApplyBatch("S", grow("S", 2000))
	ci.ApplyBatch("R", grow("R", 2000))
	ci.ApplyBatch("S", grow("S", 2000))
	re.Stats, ci.Stats = eval.Stats{}, eval.Stats{}
	for i := 0; i < 10; i++ {
		b := grow("R", 2)
		re.ApplyBatch("R", b.Clone())
		ci.ApplyBatch("R", b.Clone())
	}
	if ci.Stats.Scans >= re.Stats.Scans {
		t.Fatalf("classical IVM scans (%d) should be below re-eval scans (%d)",
			ci.Stats.Scans, re.Stats.Scans)
	}
}
