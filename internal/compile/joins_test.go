package compile

import (
	"math/rand"
	"testing"

	"repro/internal/baseline"
	"repro/internal/expr"
	"repro/internal/mring"
	"repro/internal/tpch"
)

func rel(name string, cols ...string) expr.Expr { return expr.Base(name, cols...) }
func eqv(a, b string) expr.Expr                 { return expr.Eq(expr.V(a), expr.V(b)) }

func TestUnifyEqualities(t *testing.T) {
	cases := []struct {
		name    string
		in, out expr.Expr
	}{{
		name: "join keeps the variable bound first",
		in:   expr.Sum(nil, expr.Join(rel("R", "a"), rel("S", "b"), eqv("b", "a"))),
		out:  expr.Sum(nil, expr.Join(rel("R", "a"), rel("S", "a"))),
	}, {
		name: "join keeps the exported variable",
		in:   expr.Sum([]string{"b"}, expr.Join(rel("R", "a"), rel("S", "b"), eqv("a", "b"))),
		out:  expr.Sum([]string{"b"}, expr.Join(rel("R", "b"), rel("S", "b"))),
	}, {
		name: "chains collapse to one variable",
		in: expr.Sum(nil, expr.Join(rel("R", "a"), rel("S", "b", "c"), rel("T", "d"),
			eqv("a", "b"), eqv("c", "d"))),
		out: expr.Sum(nil, expr.Join(rel("R", "a"), rel("S", "a", "c"), rel("T", "c"))),
	}, {
		name: "both variables exported: the predicate stays",
		in:   expr.Sum([]string{"a", "b"}, expr.Join(rel("R", "a"), rel("S", "b"), eqv("a", "b"))),
	}, {
		name: "one relation binds both: a filter, not a join",
		in:   expr.Sum(nil, expr.Join(rel("R", "a", "b"), eqv("a", "b"))),
	}, {
		name: "correlated with the context: the predicate stays",
		in: expr.Sum(nil, expr.Join(rel("R", "a"),
			expr.LiftQ("x", expr.Sum(nil, expr.Join(rel("S", "b"), eqv("b", "a")))))),
	}, {
		name: "nested references follow the renaming",
		in: expr.Sum(nil, expr.Join(rel("R", "a"), rel("S", "b"), eqv("b", "a"),
			expr.LiftQ("x", expr.Sum(nil, expr.Join(rel("T", "c"), eqv("c", "b")))))),
		out: expr.Sum(nil, expr.Join(rel("R", "a"), rel("S", "a"),
			expr.LiftQ("x", expr.Sum(nil, expr.Join(rel("T", "c"), eqv("c", "a")))))),
	}}
	for _, c := range cases {
		want := c.out
		if want == nil {
			want = c.in
		}
		if got := unifyEqualities(c.in); got.String() != want.String() {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, want)
		}
	}
}

// TestJoinStylesCompileIdentically writes the 3-way join of Example 2.1
// with shared column names and with equality predicates: both compile to
// the same program, share one registry shape, and match the oracle's
// evaluation of the predicate form.
func TestJoinStylesCompileIdentically(t *testing.T) {
	natural, bases := triJoinQuery()
	predicates := expr.Sum([]string{"B"}, expr.Join(
		expr.Base("R", "A", "B"), expr.Base("S", "B2", "C"), eqv("B2", "B"),
		expr.Base("T", "C2", "D"), eqv("C", "C2")))
	for _, opts := range allOptionCombos() {
		pn, err := Compile("Q", natural, bases, opts)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := Compile("Q", predicates, bases, opts)
		if err != nil {
			t.Fatal(err)
		}
		if pn.String() != pp.String() {
			t.Fatalf("opts %+v: join styles compile differently\nnatural:\n%s\npredicates:\n%s", opts, pn, pp)
		}
	}

	sc := NewSharedCompiler(bases, DefaultOptions())
	if err := sc.Register("natural", natural); err != nil {
		t.Fatal(err)
	}
	if err := sc.Register("predicates", predicates); err != nil {
		t.Fatal(err)
	}
	if sc.Shapes() != 1 {
		t.Fatalf("a registry compiles the two join styles as %d shapes, want 1", sc.Shapes())
	}

	prog, err := Compile("Q", predicates, bases, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(prog)
	db := baseline.DB{}
	for n, s := range bases {
		db[n] = mring.NewRelation(s)
	}
	rng := rand.New(rand.NewSource(5))
	for b := 0; b < 30; b++ {
		name := []string{"R", "S", "T"}[rng.Intn(3)]
		batch := mring.NewRelation(bases[name])
		for i := 0; i < 5; i++ {
			batch.Add(tup(rng.Intn(4), rng.Intn(4)), []float64{1, 2, -1}[rng.Intn(3)])
		}
		ex.ApplyBatch(name, batch)
		db[name].(*mring.Relation).Merge(batch)
		if d := baseline.Diff(ex.Result(), baseline.Eval(predicates, db)); d != "" {
			t.Fatalf("batch %d on %s diverges from the oracle: %s", b, name, d)
		}
	}
}

// scanCensus counts, per query, the relation terms of trigger statements
// that eval reaches with no column bound and that are not the update
// batch: each is a whole-view scan per evaluation.
func scanCensus(t *testing.T) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, q := range tpch.Queries() {
		prog, err := Compile(q.Name, q.Def, q.BaseSchemas(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, trg := range prog.Triggers {
			for _, s := range trg.Stmts {
				for _, a := range prog.plans[s.RHS].Accesses() {
					if r := a.Rel; len(a.Bound) == 0 && r.Kind == expr.RView && !prog.View(r.Name).Transient {
						out[q.Name]++
					}
				}
			}
		}
	}
	return out
}

// TestBatchScanCensus pins how many whole-view scans the TPC-H trigger
// programs contain. Written as equality predicates, every join scanned the
// view on its far side: 312 scans before unification and join ordering.
// Now every join probes. What remains is Q11: its uncorrelated nested
// total is maintained by re-evaluation, and its statements read the total
// from single-tuple views.
func TestBatchScanCensus(t *testing.T) {
	want := map[string]int{"Q11": 19}
	got := scanCensus(t)
	total := 0
	for _, c := range got {
		total += c
	}
	t.Logf("whole-view scans: %d", total)
	for _, q := range tpch.Queries() {
		if got[q.Name] != want[q.Name] {
			t.Errorf("%s scans %d whole views, want %d", q.Name, got[q.Name], want[q.Name])
		}
	}
}

// TestOrderJoins pins the three moves of the join order on one
// statement: a union holding the batch is distributed so each term leads
// with its batch, the outer view is probed rather than scanned, and a
// correlated equality binds the nested view's key instead of filtering a
// scan of it.
func TestOrderJoins(t *testing.T) {
	nested := expr.LiftQ("x", expr.Sum(nil, expr.Join(expr.View("W", "b"), eqv("b", "a"))))
	in := expr.Sum([]string{"c"}, expr.Join(expr.View("V", "a", "v"), expr.Add(
		expr.Join(expr.Delta("R", "a", "c"), nested, expr.ValE(expr.V("v"))),
		expr.Join(expr.View("U", "c"), expr.Delta("S", "a", "c")))))
	want := "Sum_[c](((ΔR(a,c) * (x := Sum_[](((b := a) * W(b)))) * V(a,v) * [v]) + (ΔS(a,c) * U(c) * V(a,v))))"
	isDelta := func(r *expr.Rel) bool { return r.Kind == expr.RDelta }
	if got := orderProducts(in, nil, isDelta).String(); got != want {
		t.Fatalf("got  %s\nwant %s", got, want)
	}
}

// TestQ3UpdateCostIndependentOfState streams Q3 and compares the
// evaluation work per changed tuple (lookups, scanned and emitted tuples)
// in the stream's second quarter against its last quarter, where the views
// hold more than twice as much state. A join that probes costs the same in
// both; one that scans a view grows with it.
func TestQ3UpdateCostIndependentOfState(t *testing.T) {
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(q.Name, q.Def, q.BaseSchemas(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(prog)
	stream := tpch.NewStream(tpch.NewGenerator(0.5, 3), q.Tables)
	type window struct{ ops, tuples int64 }
	var quarters [4]window
	var chunks [][]tpch.Batch
	for {
		bs := stream.NextBatches(50)
		if len(bs) == 0 {
			break
		}
		chunks = append(chunks, bs)
	}
	for i, bs := range chunks {
		w := &quarters[4*i/len(chunks)]
		before := ex.Stats
		for _, b := range bs {
			ex.ApplyBatch(b.Table, b.Rel)
			w.tuples += int64(b.Rel.Len())
		}
		w.ops += ex.Stats.Lookups - before.Lookups + ex.Stats.Scans - before.Scans + ex.Stats.Emits - before.Emits
	}
	perTuple := func(w window) float64 { return float64(w.ops) / float64(w.tuples) }
	early, late := perTuple(quarters[1]), perTuple(quarters[3])
	t.Logf("work per changed tuple: %.2f in the second quarter, %.2f in the last", early, late)
	if late > 1.25*early {
		t.Fatalf("work per changed tuple grew %.2fx with the state, want <= 1.25x", late/early)
	}
}
