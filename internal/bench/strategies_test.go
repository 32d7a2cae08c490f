package bench

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/baseline"
	"repro/internal/compile"
	"repro/internal/expr"
	"repro/internal/mring"
)

// strategy is one program a refresh comparison runs: a maintenance
// strategy of Fig. 8 and Table 1, or a compile option of an ablation.
type strategy struct {
	label string
	build func(name string, q expr.Expr, bases map[string]mring.Schema) (*compile.Program, error)
}

// strategies lists re-evaluation, classical (first-order) IVM and
// recursive IVM.
func strategies() []strategy {
	return []strategy{
		{"re-eval", compile.ReEvalProgram},
		{"classical", compile.FirstOrderProgram},
		{"recursive", build(compile.DefaultOptions())},
	}
}

// build compiles a program with fixed options, in the shape of
// compile.ReEvalProgram and compile.FirstOrderProgram.
func build(opts compile.Options) func(string, expr.Expr, map[string]mring.Schema) (*compile.Program, error) {
	return func(name string, q expr.Expr, bases map[string]mring.Schema) (*compile.Program, error) {
		return compile.Compile(name, q, bases, opts)
	}
}

func tup(vs ...int) mring.Tuple {
	t := make(mring.Tuple, len(vs))
	for i, v := range vs {
		t[i] = mring.Int(int64(v))
	}
	return t
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

// checkAgree compiles every strategy Fig. 8 and Table 1 compare, feeds
// each the same random batches with deletions, and holds each result to
// the oracle over every change so far after every batch.
func checkAgree(t *testing.T, q expr.Expr, bases map[string]mring.Schema, seed int64) {
	t.Helper()
	ss := strategies()
	exs := make([]*compile.Executor, len(ss))
	for i, s := range ss {
		prog, err := s.build("Q", q, bases)
		if err != nil {
			t.Fatalf("%s: %v", s.label, err)
		}
		exs[i] = compile.NewExecutor(prog)
	}
	rng := rand.New(rand.NewSource(seed))
	accum := map[string]*mring.Relation{} // decides which deletions are valid
	changes := baseline.Changes{}
	var rels []string
	for n, s := range bases {
		accum[n] = mring.NewRelation(s)
		changes[n] = nil
		rels = append(rels, n)
	}
	sort.Strings(rels)
	for b := 0; b < 12; b++ {
		rel := rels[rng.Intn(len(rels))]
		batch := mring.NewRelation(bases[rel])
		for i := 0; i < 6; i++ {
			tp, m := tup(rng.Intn(4), rng.Intn(4)), 1.0
			if rng.Intn(4) == 0 && accum[rel].Get(tp)+batch.Get(tp) > 0 {
				m = -1 // deletion of an existing tuple
			}
			batch.Add(tp, m)
			changes.Row(rel, tp, m)
		}
		accum[rel].Merge(batch)
		want := baseline.Eval(q, baseline.Of(changes))
		for i, ex := range exs {
			ex.ApplyBatch(rel, batch.Clone())
			if d := baseline.Diff(ex.Result(), want); d != "" {
				t.Fatalf("batch %d: %s diverged from the oracle: %s", b, ss[i].label, d)
			}
		}
	}
}
