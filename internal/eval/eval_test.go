package eval

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/expr"
	"repro/internal/mring"
)

func tup(vs ...any) mring.Tuple {
	t := make(mring.Tuple, len(vs))
	for i, v := range vs {
		switch x := v.(type) {
		case int:
			t[i] = mring.Int(int64(x))
		case float64:
			t[i] = mring.Float(x)
		case string:
			t[i] = mring.Str(x)
		default:
			panic("bad test value")
		}
	}
	return t
}

// fillRow is one change: a tuple and its multiplicity.
type fillRow = struct {
	t mring.Tuple
	m float64
}

// fill populates relation name in env with rows of (tuple, mult).
func fill(env *Env, name string, schema mring.Schema, rows ...fillRow) *mring.Relation {
	r := env.Define(name, schema)
	for _, row := range rows {
		r.Add(row.t, row.m)
	}
	return r
}

func row(m float64, vs ...any) fillRow { return fillRow{tup(vs...), m} }

// rawEnv is an Env that also keeps every change to its relations apart,
// in order, so the oracle reads the changes rather than relations the
// engine's storage has consolidated.
type rawEnv struct {
	*Env
	raw baseline.Changes
}

func newRawEnv() rawEnv { return rawEnv{NewEnv(), baseline.Changes{}} }

// define defines relation name, empty, and returns a writer of changes
// to it.
func (e rawEnv) define(name string, schema mring.Schema) rawRel {
	e.raw[name] = nil
	return rawRel{e.Define(name, schema), name, e.raw}
}

// fill is fill on a rawEnv.
func (e rawEnv) fill(name string, schema mring.Schema, rows ...fillRow) {
	r := e.define(name, schema)
	for _, row := range rows {
		r.Add(row.t, row.m)
	}
}

// rawRel adds each change to an engine relation and to the change
// stream.
type rawRel struct {
	rel  *mring.Relation
	name string
	raw  baseline.Changes
}

func (r rawRel) Add(t mring.Tuple, m float64) {
	r.rel.Add(t, m)
	r.raw.Row(r.name, t, m)
}

func TestEvalRelForeach(t *testing.T) {
	env := NewEnv()
	fill(env, "R", mring.Schema{"a", "b"}, row(2, 1, 10), row(3, 2, 20))
	ctx := NewCtx(env)
	got := ctx.Materialize(expr.Base("R", "a", "b"))
	if got.Get(tup(1, 10)) != 2 || got.Get(tup(2, 20)) != 3 {
		t.Fatalf("foreach wrong: %v", got)
	}
}

func TestEvalJoinAndAgg(t *testing.T) {
	// Example 2.1: Sum_[B](R(A,B) ⋈ S(B,C) ⋈ T(C,D))
	env := NewEnv()
	fill(env, "R", mring.Schema{"A", "B"}, row(1, 1, 10), row(1, 2, 10), row(1, 3, 20))
	fill(env, "S", mring.Schema{"B", "C"}, row(1, 10, 100), row(2, 20, 200))
	fill(env, "T", mring.Schema{"C", "D"}, row(1, 100, 7), row(1, 100, 8), row(1, 200, 9))
	q := expr.Sum([]string{"B"},
		expr.Join(expr.Base("R", "A", "B"), expr.Base("S", "B", "C"), expr.Base("T", "C", "D")))
	got := NewCtx(env).Materialize(q)
	// B=10: R(1,10)+R(2,10) each join S(10,100), T has two D rows -> mult 2*2=4
	if got.Get(tup(10)) != 4 {
		t.Errorf("B=10 mult = %g, want 4", got.Get(tup(10)))
	}
	// B=20: R(3,20) ⋈ S(20,200)×2 ⋈ T(200,9) -> 2
	if got.Get(tup(20)) != 2 {
		t.Errorf("B=20 mult = %g, want 2", got.Get(tup(20)))
	}
}

func TestEvalComparisonFilter(t *testing.T) {
	env := NewEnv()
	fill(env, "R", mring.Schema{"a", "b"}, row(1, 1, 5), row(1, 2, 10), row(1, 3, 15))
	q := expr.Sum([]string{"a"},
		expr.Join(expr.Base("R", "a", "b"), expr.CmpE(expr.CGt, expr.V("b"), expr.LitI(7))))
	got := NewCtx(env).Materialize(q)
	if got.Len() != 2 || got.Get(tup(2)) != 1 || got.Get(tup(3)) != 1 {
		t.Fatalf("filter wrong: %v", got)
	}
}

func TestEvalGetAndSlice(t *testing.T) {
	// R(a) ⋈ S(a, b): per R-tuple, a is bound -> slice on S.
	env := NewEnv()
	fill(env, "R", mring.Schema{"a"}, row(1, 1), row(1, 2))
	fill(env, "S", mring.Schema{"a", "b"}, row(1, 1, 10), row(2, 1, 11), row(1, 2, 20))
	q := expr.Join(expr.Base("R", "a"), expr.Base("S", "a", "b"))
	ctx := NewCtx(env)
	got := ctx.Materialize(q)
	if got.Get(tup(1, 10)) != 1 || got.Get(tup(1, 11)) != 2 || got.Get(tup(2, 20)) != 1 {
		t.Fatalf("slice join wrong: %v", got)
	}
	if ctx.Stats.IndexOps != 1 {
		t.Fatalf("expected 1 ad-hoc index build, got %d", ctx.Stats.IndexOps)
	}
	// Full-key lookup: both columns bound -> get.
	q2 := expr.Join(expr.Base("S", "a", "b"), expr.Base("S", "a", "b"))
	got2 := NewCtx(env).Materialize(q2)
	if got2.Get(tup(1, 10)) != 1 || got2.Get(tup(1, 11)) != 4 || got2.Get(tup(2, 20)) != 1 {
		t.Fatalf("self join wrong: %v", got2)
	}
}

func TestEvalValueTerm(t *testing.T) {
	// SELECT a, b, SUM(a) ... : R(a,b) ⋈ [a]
	env := NewEnv()
	fill(env, "R", mring.Schema{"a", "b"}, row(2, 3, 1), row(1, 5, 2))
	q := expr.Sum([]string{"b"}, expr.Join(expr.Base("R", "a", "b"), expr.ValE(expr.V("a"))))
	got := NewCtx(env).Materialize(q)
	if got.Get(tup(1)) != 6 || got.Get(tup(2)) != 5 {
		t.Fatalf("value term wrong: %v", got)
	}
}

func TestEvalAssignValue(t *testing.T) {
	env := NewEnv()
	fill(env, "R", mring.Schema{"a"}, row(1, 4))
	q := expr.Join(expr.Base("R", "a"), expr.LiftV("x", expr.MulV(expr.V("a"), expr.LitI(2))))
	got := NewCtx(env).Materialize(q)
	if got.Get(tup(4, 8)) != 1 {
		t.Fatalf("assign-value wrong: %v", got)
	}
}

func TestEvalNestedAggregate(t *testing.T) {
	// Example 3.1: COUNT(*) FROM R WHERE R.A < (SELECT COUNT(*) FROM S WHERE R.B = S.B)
	env := NewEnv()
	fill(env, "R", mring.Schema{"A", "B"}, row(1, 1, 7), row(1, 3, 7), row(1, 0, 9))
	fill(env, "S", mring.Schema{"B2", "C"}, row(1, 7, 1), row(1, 7, 2)) // two rows with B2=7
	inner := expr.Sum(nil, expr.Join(expr.Base("S", "B2", "C"), expr.Eq(expr.V("B"), expr.V("B2"))))
	q := expr.Sum(nil, expr.Join(
		expr.Base("R", "A", "B"),
		expr.LiftQ("X", inner),
		expr.CmpE(expr.CLt, expr.V("A"), expr.V("X"))))
	got := NewCtx(env).Materialize(q)
	// R(1,7): X=2, 1<2 ok. R(3,7): X=2, 3<2 no. R(0,9): X=0, 0<0 no.
	if got.Get(mring.Tuple{}) != 1 {
		t.Fatalf("nested agg count = %g, want 1", got.Get(mring.Tuple{}))
	}
}

func TestEvalExistsDistinct(t *testing.T) {
	// Example 3.2: SELECT DISTINCT A FROM R WHERE B > 3
	env := NewEnv()
	fill(env, "R", mring.Schema{"A", "B"}, row(5, 1, 4), row(2, 1, 9), row(1, 2, 1))
	q := expr.ExistsE(expr.Sum([]string{"A"},
		expr.Join(expr.Base("R", "A", "B"), expr.CmpE(expr.CGt, expr.V("B"), expr.LitI(3)))))
	got := NewCtx(env).Materialize(q)
	if got.Len() != 1 || got.Get(tup(1)) != 1 {
		t.Fatalf("distinct wrong: %v", got)
	}
}

// TestExistsScalarMatchesGrouped pins the Eps-semantics agreement
// between the two Exists shapes: a tiny never-canceled total (|v| < Eps
// but inserted fresh, which the group table preserves) must exist both
// when the aggregate is keyed by a group-by column and when it is
// scalar, and a total canceled by accumulation into (-Eps, Eps) must
// exist in neither.
func TestExistsScalarMatchesGrouped(t *testing.T) {
	env := NewEnv()
	r := mring.NewRelation(mring.Schema{"A"})
	r.Add(mring.Tuple{mring.Int(1)}, 1e-12)
	env.Bind("R", r)

	grouped := NewCtx(env).Materialize(
		expr.ExistsE(expr.Sum([]string{"A"}, expr.Base("R", "A"))))
	scalar := NewCtx(env).Materialize(
		expr.ExistsE(expr.Sum(nil, expr.Base("R", "A"))))
	if grouped.Len() != 1 {
		t.Fatalf("grouped Exists over tiny total: %d rows, want 1", grouped.Len())
	}
	if scalar.Len() != 1 {
		t.Fatalf("scalar Exists over tiny total: %d rows, want 1 (must match grouped)", scalar.Len())
	}

	// Scalar contributions that cancel inside the Exists accumulation —
	// two emissions from distinct relations whose sum lands in
	// (-Eps, Eps) — leave a float residue under plain summation (1e-15
	// here) but must cancel to nonexistence under the shared in-table
	// band semantics.
	pos := mring.NewRelation(mring.Schema{"A"})
	pos.Add(mring.Tuple{mring.Int(1)}, 1.0)
	env.Bind("P", pos)
	neg := mring.NewRelation(mring.Schema{"A"})
	neg.Add(mring.Tuple{mring.Int(1)}, -1.0+1e-15)
	env.Bind("N", neg)
	pair := NewCtx(env).Materialize(expr.ExistsE(expr.Add(
		expr.Sum(nil, expr.Base("P", "A")),
		expr.Sum(nil, expr.Base("N", "A")))))
	if pair.Len() != 0 {
		t.Fatalf("scalar Exists over band-canceled pair: %d rows, want 0", pair.Len())
	}
}

func TestEvalExistentialQuantification(t *testing.T) {
	// EXISTS variant: (X := Qn) ⋈ (X != 0)
	env := NewEnv()
	fill(env, "R", mring.Schema{"A", "B"}, row(1, 1, 7), row(1, 2, 8))
	fill(env, "S", mring.Schema{"B2"}, row(3, 7))
	inner := expr.Sum(nil, expr.Join(expr.Base("S", "B2"), expr.Eq(expr.V("B"), expr.V("B2"))))
	q := expr.Sum(nil, expr.Join(
		expr.Base("R", "A", "B"),
		expr.LiftQ("X", inner),
		expr.CmpE(expr.CNe, expr.V("X"), expr.LitI(0))))
	got := NewCtx(env).Materialize(q)
	if got.Get(mring.Tuple{}) != 1 {
		t.Fatalf("exists count = %g, want 1", got.Get(mring.Tuple{}))
	}
}

func TestEvalPlusStreamsThroughJoin(t *testing.T) {
	// (R + R) ⋈ S must equal 2*(R ⋈ S).
	env := NewEnv()
	fill(env, "R", mring.Schema{"a"}, row(1, 1))
	fill(env, "S", mring.Schema{"a", "b"}, row(1, 1, 2))
	q := expr.Join(expr.Add(expr.Base("R", "a"), expr.Base("R", "a")), expr.Base("S", "a", "b"))
	got := NewCtx(env).Materialize(q)
	if got.Get(tup(1, 2)) != 2 {
		t.Fatalf("streamed union wrong: %v", got)
	}
}

func TestEvalNegation(t *testing.T) {
	env := NewEnv()
	fill(env, "R", mring.Schema{"a"}, row(2, 1))
	q := expr.Add(expr.Base("R", "a"), expr.Neg(expr.Base("R", "a")))
	got := NewCtx(env).Materialize(q)
	if got.Len() != 0 {
		t.Fatalf("R - R should be empty: %v", got)
	}
}

func TestApplyOps(t *testing.T) {
	env := NewEnv()
	fill(env, "R", mring.Schema{"a"}, row(2, 1))
	target := mring.NewRelation(mring.Schema{"a"})
	ctx := NewCtx(env)
	ctx.Apply(target, OpAdd, expr.Base("R", "a"))
	ctx.Apply(target, OpAdd, expr.Base("R", "a"))
	if target.Get(tup(1)) != 4 {
		t.Fatalf("OpAdd wrong: %v", target)
	}
	ctx.Apply(target, OpSet, expr.Base("R", "a"))
	if target.Get(tup(1)) != 2 {
		t.Fatalf("OpSet wrong: %v", target)
	}
}

func TestAggRestoresBindings(t *testing.T) {
	// Correlated aggregate inside a join must not leak bindings.
	env := NewEnv()
	fill(env, "R", mring.Schema{"a"}, row(1, 1), row(1, 2))
	fill(env, "S", mring.Schema{"a", "b"}, row(1, 1, 5), row(1, 2, 6))
	q := expr.Sum([]string{"a"},
		expr.Join(expr.Base("R", "a"), expr.LiftQ("X",
			expr.Sum(nil, expr.Base("S", "a", "b")))))
	got := NewCtx(env).Materialize(q)
	// For each R row the nested Q counts S rows with matching a (correlated): 1 each.
	if got.Get(tup(1)) != 1 || got.Get(tup(2)) != 1 {
		t.Fatalf("correlated agg wrong: %v", got)
	}
}

func TestScalarLiftEmptyInnerIsZero(t *testing.T) {
	// COUNT over empty correlated set must lift X := 0, not filter the row.
	env := NewEnv()
	fill(env, "R", mring.Schema{"A"}, row(1, 5))
	env.Define("S", mring.Schema{"A2"})
	inner := expr.Sum(nil, expr.Join(expr.Base("S", "A2"), expr.Eq(expr.V("A"), expr.V("A2"))))
	q := expr.Sum(nil, expr.Join(
		expr.Base("R", "A"),
		expr.LiftQ("X", inner),
		expr.CmpE(expr.CGe, expr.V("A"), expr.V("X"))))
	got := NewCtx(env).Materialize(q)
	if got.Get(mring.Tuple{}) != 1 {
		t.Fatalf("empty nested agg should bind 0; got %v", got)
	}
}

// Property: for random flat join-aggregate queries, evaluation distributes
// over bag union of one input: Q(R1 + R2) = Q(R1) + Q(R2) for linear Q.
func TestQuickLinearity(t *testing.T) {
	build := func(seed int64) (*mring.Relation, *mring.Relation, *mring.Relation) {
		rng := rand.New(rand.NewSource(seed))
		mk := func() *mring.Relation {
			r := mring.NewRelation(mring.Schema{"a", "b"})
			for i := 0; i < rng.Intn(20); i++ {
				r.Add(tup(rng.Intn(4), rng.Intn(4)), float64(rng.Intn(5)-2))
			}
			return r
		}
		s := mring.NewRelation(mring.Schema{"b", "c"})
		for i := 0; i < 10; i++ {
			s.Add(tup(rng.Intn(4), rng.Intn(4)), float64(1+rng.Intn(3)))
		}
		return mk(), mk(), s
	}
	q := expr.Sum([]string{"b"}, expr.Join(expr.Base("R", "a", "b"), expr.Base("S", "b", "c")))
	prop := func(seed int64) bool {
		r1, r2, s := build(seed)
		run := func(r *mring.Relation) *mring.Relation {
			env := NewEnv()
			env.Bind("R", r)
			env.Bind("S", s)
			return NewCtx(env).Materialize(q)
		}
		sum := r1.Clone()
		sum.Merge(r2)
		lhs := run(sum)
		rhs := run(r1)
		rhs.Merge(run(r2))
		return lhs.EqualApprox(rhs, 1e-6)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccumulation(t *testing.T) {
	env := NewEnv()
	fill(env, "R", mring.Schema{"a"}, row(1, 1), row(1, 2))
	ctx := NewCtx(env)
	ctx.Materialize(expr.Base("R", "a"))
	if ctx.Stats.Scans != 2 || ctx.Stats.Emits != 2 {
		t.Fatalf("stats wrong: %+v", ctx.Stats)
	}
	var agg Stats
	agg.Add(ctx.Stats)
	agg.Add(ctx.Stats)
	if agg.Scans != 4 {
		t.Fatalf("Stats.Add wrong: %+v", agg)
	}
}

func TestEvalSliceTracksMutations(t *testing.T) {
	// Slice indexes are owned by the relations and maintained
	// incrementally, so re-evaluating after a mutation sees fresh contents
	// with no invalidation step.
	env := NewEnv()
	r := fill(env, "R", mring.Schema{"a"}, row(1, 1))
	fill(env, "S", mring.Schema{"a", "b"}, row(1, 1, 10))
	ctx := NewCtx(env)
	q := expr.Join(expr.Base("R", "a"), expr.Base("S", "a", "b"))
	if got := ctx.Materialize(q); got.Len() != 1 {
		t.Fatalf("first eval wrong: %v", got)
	}
	if ctx.Stats.IndexOps != 1 {
		t.Fatalf("expected one index build, stats: %+v", ctx.Stats)
	}
	env.Rel("S").Add(tup(1, 11), 1)
	env.Rel("S").Add(tup(2, 12), 1)
	r.Add(tup(2), 1)
	got := ctx.Materialize(q)
	if got.Len() != 3 {
		t.Fatalf("post-mutation eval wrong: %v", got)
	}
	if ctx.Stats.IndexOps != 1 {
		t.Fatalf("index must not be rebuilt, stats: %+v", ctx.Stats)
	}
	env.Rel("S").Add(tup(1, 10), -1) // delete: index must drop the tuple
	if got := ctx.Materialize(q); got.Len() != 2 {
		t.Fatalf("post-delete eval wrong: %v", got)
	}
}

func TestEvalDeltaNameResolution(t *testing.T) {
	// Base R and ΔR coexist under distinct environment names.
	env := NewEnv()
	fill(env, "R", mring.Schema{"a"}, row(1, 1))
	fill(env, DeltaName("R"), mring.Schema{"a"}, row(1, 2))
	ctx := NewCtx(env)
	base := ctx.Materialize(expr.Base("R", "a"))
	delta := ctx.Materialize(expr.Delta("R", "a"))
	if base.Get(tup(1)) != 1 || delta.Get(tup(2)) != 1 || delta.Len() != 1 {
		t.Fatalf("delta name resolution broken: base=%v delta=%v", base, delta)
	}
}

func TestEnvNamesAndMustRel(t *testing.T) {
	env := NewEnv()
	env.Define("A", mring.Schema{"x"})
	env.Define("B", mring.Schema{"y"})
	if len(env.Names()) != 2 {
		t.Fatalf("Names = %v", env.Names())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustRel should panic on missing relation")
		}
	}()
	env.MustRel("missing")
}

// TestPrepareRefusesUnboundRead pins that lowering rejects, before
// anything runs, a tree that reads a variable no term binds where it is
// read — in a value term, a group-by, or the output schema — and one that
// reads a variable only some terms of a union bind.
func TestPrepareRefusesUnboundRead(t *testing.T) {
	for _, e := range []expr.Expr{
		expr.ValE(expr.V("nope")),
		expr.Join(expr.Eq(expr.V("a"), expr.LitI(1)), expr.Base("R", "a")),
		expr.Sum([]string{"nope"}, expr.Base("R", "a")),
		expr.LiftV("x", expr.AddV(expr.V("a"), expr.LitI(1))),
		expr.Sum(nil, expr.Join(
			expr.Add(expr.Base("R", "a"), expr.Base("S", "b")),
			expr.Base("T", "a"))),
	} {
		if _, err := Prepare(e); err == nil {
			t.Errorf("Prepare(%v) accepted an unbound read", e)
		}
	}
	// A union whose terms bind different variables is fine as long as
	// nothing after it reads them.
	if _, err := Prepare(expr.Sum(nil, expr.Add(expr.Base("R", "a"), expr.Base("S", "b")))); err != nil {
		t.Fatalf("Prepare refused a union read by nothing: %v", err)
	}
}

// TestRepeatedColumnIsSelfEquality pins that a variable repeated within
// one relational term constrains the columns it names to be equal, on
// every access path: foreach (nothing bound), slice (another column
// bound), and get (every column bound). The oracle agrees.
func TestRepeatedColumnIsSelfEquality(t *testing.T) {
	env := newRawEnv()
	env.fill("R", mring.Schema{"a", "b"}, row(1, 1, 1), row(1, 1, 2), row(1, 3, 3))
	env.fill("T", mring.Schema{"k", "a", "b"}, row(1, 7, 1, 1), row(1, 7, 1, 2), row(1, 8, 2, 2))
	env.fill("S", mring.Schema{"k"}, row(1, 7), row(1, 8))
	env.fill("U", mring.Schema{"k"}, row(1, 1), row(1, 2), row(1, 3))
	for _, c := range []struct {
		path string
		q    expr.Expr
		want []int // each x once
	}{
		{"foreach", expr.Sum([]string{"x"}, expr.Base("R", "x", "x")), []int{1, 3}},
		{"slice", expr.Sum([]string{"x"}, expr.Join(expr.Base("S", "k"), expr.Base("T", "k", "x", "x"))), []int{1, 2}},
		{"get", expr.Sum([]string{"x"}, expr.Join(expr.Base("U", "x"), expr.Base("R", "x", "x"))), []int{1, 3}},
	} {
		var want baseline.Rows
		for _, x := range c.want {
			want = append(want, baseline.Row{Tuple: tup(x), M: 1})
		}
		for name, got := range map[string]baseline.Source{
			"prepared": NewCtx(env.Env).Materialize(c.q),
			"oracle":   baseline.Eval(c.q, baseline.Of(env.raw)),
		} {
			if d := baseline.Diff(got, want); d != "" {
				t.Fatalf("%s %s: %s", c.path, name, d)
			}
		}
	}
}

// TestSpareTablesBounded runs many distinct prepared plans through one
// context, each nesting a grouped aggregate under another, and checks
// what the context keeps: released scratch relations are reused, and the
// spares stay bounded by the aggregates one plan nests, not by how many
// plans have run.
func TestSpareTablesBounded(t *testing.T) {
	env := NewEnv()
	fill(env, "R", mring.Schema{"A", "B"}, row(1, 1, 10), row(1, 2, 10), row(1, 3, 20))
	fill(env, "S", mring.Schema{"B", "C"}, row(1, 10, 100), row(2, 20, 200))
	ctx := NewCtx(env)
	target := mring.NewRelation(mring.Schema{"B"})
	const plans = 200
	for i := 0; i < plans; i++ {
		q := expr.Sum([]string{"B"}, expr.Join(
			expr.Base("R", "A", "B"),
			expr.Sum([]string{"B"}, expr.Base("S", "B", "C")),
			expr.CmpE(expr.CLt, expr.V("A"), expr.LitI(int64(i%4)))))
		ps, err := Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		ctx.Plans = ps
		ctx.FoldStmt(target, OpAdd, q)
	}
	// Plans with i%4 = 2 and 3 admit A = 1 (B = 10, inner sum 1) and A =
	// 1, 2 (B = 10, twice); A = 3 never passes.
	if got, want := target.Get(tup(10)), float64(plans/4*(1+2)); got != want {
		t.Fatalf("B=10 accumulated %g, want %g", got, want)
	}
	spares := 0
	for _, s := range ctx.spare {
		spares += len(s)
	}
	if spares == 0 || spares > 2 {
		t.Fatalf("after %d plans the context keeps %d spare tables, want 1 or 2 (one per nested aggregate)", plans, spares)
	}
}
