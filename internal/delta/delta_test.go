package delta

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
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

// ivmSides evaluates both sides of the IVM equation for query q, its
// delta dq and a batch on rel through the oracle: M(D) + ΔQ(D, ΔD) and
// M(D + ΔD). D and ΔD are raw changes, so D + ΔD is their concatenation
// and the oracle sums it.
func ivmSides(q, dq expr.Expr, rels map[string]baseline.Rows, rel string, batch baseline.Rows) (got, want *mring.Relation) {
	pre := baseline.Of(rels)
	pre["Δ"+rel] = batch
	got = evalOracle(q, pre)
	got.Merge(evalOracle(dq, pre))
	post := baseline.ChangesOf(rels)
	post.Add(rel, batch)
	return got, evalOracle(q, baseline.Of(post))
}

func evalOracle(q expr.Expr, db baseline.DB) *mring.Relation {
	out := mring.NewRelation(q.Schema())
	for _, r := range baseline.Eval(q, db) {
		out.Add(r.Tuple, r.M)
	}
	return out
}

// checkIncremental verifies the IVM equation M(D+ΔD) = M(D) + ΔQ(D, ΔD)
// for query q over the given base relations and a batch on rel.
func checkIncremental(t *testing.T, q expr.Expr, rels map[string]baseline.Rows, rel string, batch baseline.Rows, opts Options) {
	t.Helper()
	dq := Derive(q, rel, opts)
	if got, want := ivmSides(q, dq, rels, rel, batch); !got.EqualApprox(want, 1e-6) {
		t.Fatalf("IVM equation violated for %s:\n delta: %s\n old+delta: %v\n recomputed: %v",
			dq, dq, got, want)
	}
}

// rowsOf lists changes, each row its multiplicity followed by its values.
func rowsOf(rows ...[]int) baseline.Rows {
	var r baseline.Rows
	for _, row := range rows {
		r = append(r, baseline.Row{Tuple: tup(row[1:]...), M: float64(row[0])})
	}
	return r
}

func TestDeriveFlatJoin(t *testing.T) {
	// Example 2.1: Sum_[B](R ⋈ S ⋈ T), delta for R.
	q := expr.Sum([]string{"B"}, expr.Join(
		expr.Base("R", "A", "B"), expr.Base("S", "B", "C"), expr.Base("T", "C", "D")))
	d := Derive(q, "R", Options{})
	// The delta must reference ΔR and not R.
	if !expr.HasRel(d, expr.RDelta, "R") || expr.HasRel(d, expr.RBase, "R") {
		t.Fatalf("bad delta: %s", d)
	}
	rels := map[string]baseline.Rows{
		"R": rowsOf([]int{1, 1, 10}, []int{1, 2, 20}),
		"S": rowsOf([]int{1, 10, 5}, []int{2, 20, 6}),
		"T": rowsOf([]int{1, 5, 0}, []int{1, 6, 1}),
	}
	batch := rowsOf([]int{1, 3, 10}, []int{-1, 1, 10})
	checkIncremental(t, q, rels, "R", batch, Options{})
}

func TestDeriveUpdateIndependent(t *testing.T) {
	q := expr.Sum(nil, expr.Base("S", "B"))
	if d := Derive(q, "R", Options{}); !expr.IsZero(d) {
		t.Fatalf("delta of update-independent query = %s, want 0", d)
	}
}

func TestDeriveSelfJoinSecondOrder(t *testing.T) {
	// Δ(R ⋈ R) includes the ΔR ⋈ ΔR term; verify numerically.
	q := expr.Sum(nil, expr.Join(expr.Base("R", "A"), expr.Base("R", "A")))
	rels := map[string]baseline.Rows{
		"R": rowsOf([]int{2, 1}, []int{1, 2}),
	}
	batch := rowsOf([]int{3, 1}, []int{-1, 2}, []int{1, 3})
	checkIncremental(t, q, rels, "R", batch, Options{})
}

func TestDeriveUnion(t *testing.T) {
	q := expr.Sum([]string{"A"}, expr.Add(expr.Base("R", "A"), expr.Base("S", "A")))
	rels := map[string]baseline.Rows{
		"R": rowsOf([]int{1, 1}),
		"S": rowsOf([]int{2, 1}, []int{1, 3}),
	}
	batch := rowsOf([]int{1, 3}, []int{-1, 1})
	checkIncremental(t, q, rels, "R", batch, Options{})
}

func TestDeriveWithComparison(t *testing.T) {
	q := expr.Sum([]string{"A"}, expr.Join(
		expr.Base("R", "A", "B"),
		expr.CmpE(expr.CGt, expr.V("B"), expr.LitI(3))))
	rels := map[string]baseline.Rows{
		"R": rowsOf([]int{1, 1, 5}, []int{1, 2, 2}),
	}
	batch := rowsOf([]int{1, 1, 9}, []int{-1, 1, 5}, []int{1, 3, 1})
	checkIncremental(t, q, rels, "R", batch, Options{})
}

func nestedCountQuery() expr.Expr {
	// Example 3.1: COUNT(*) FROM R WHERE R.A < (SELECT COUNT(*) FROM S WHERE R.B = S.B)
	inner := expr.Sum(nil, expr.Join(expr.Base("S", "B2", "C"), expr.Eq(expr.V("B"), expr.V("B2"))))
	return expr.Sum(nil, expr.Join(
		expr.Base("R", "A", "B"),
		expr.LiftQ("X", inner),
		expr.CmpE(expr.CLt, expr.V("A"), expr.V("X"))))
}

func TestDeriveNestedAggregateBothRelations(t *testing.T) {
	q := nestedCountQuery()
	rels := map[string]baseline.Rows{
		"R": rowsOf([]int{1, 0, 7}, []int{1, 1, 7}, []int{1, 5, 9}),
		"S": rowsOf([]int{1, 7, 1}, []int{1, 7, 2}, []int{1, 9, 3}),
	}
	for _, de := range []bool{false, true} {
		opts := Options{DomainExtraction: de}
		batchR := rowsOf([]int{1, 0, 9}, []int{-1, 1, 7})
		checkIncremental(t, q, rels, "R", batchR, opts)
		batchS := rowsOf([]int{1, 7, 4}, []int{-1, 9, 3}, []int{2, 11, 5})
		checkIncremental(t, q, rels, "S", batchS, opts)
	}
}

func TestDeriveDistinct(t *testing.T) {
	// Example 3.2: SELECT DISTINCT A FROM R WHERE B > 3.
	q := expr.ExistsE(expr.Sum([]string{"A"}, expr.Join(
		expr.Base("R", "A", "B"),
		expr.CmpE(expr.CGt, expr.V("B"), expr.LitI(3)))))
	rels := map[string]baseline.Rows{
		"R": rowsOf([]int{1, 1, 5}, []int{1, 1, 9}, []int{1, 2, 1}),
	}
	for _, de := range []bool{false, true} {
		// Batch deletes the last supporting row of A=1's second witness and
		// inserts a new A value.
		batch := rowsOf([]int{-1, 1, 5}, []int{1, 3, 8}, []int{1, 2, 9})
		checkIncremental(t, q, rels, "R", batch, Options{DomainExtraction: de})
	}
}

func TestDeriveDistinctDeleteAllWitnesses(t *testing.T) {
	q := expr.ExistsE(expr.Sum([]string{"A"}, expr.Base("R", "A", "B")))
	rels := map[string]baseline.Rows{
		"R": rowsOf([]int{1, 1, 5}, []int{1, 1, 6}),
	}
	batch := rowsOf([]int{-1, 1, 5}, []int{-1, 1, 6})
	checkIncremental(t, q, rels, "R", batch, Options{DomainExtraction: true})
}

func TestExtractDomDistinctShape(t *testing.T) {
	// For ΔQn = Sum_[A](ΔR(A,B) ⋈ (B>3)), the domain must bind exactly A
	// (the paper's Qdom := Exists(Sum_[A](Exists(ΔR(A,B)) ⋈ (B>3)))).
	dq := expr.Sum([]string{"A"}, expr.Join(
		expr.Delta("R", "A", "B"),
		expr.CmpE(expr.CGt, expr.V("B"), expr.LitI(3))))
	dom := ExtractDom(dq)
	if got := dom.Schema(); !got.Equal(mring.Schema{"A"}) {
		t.Fatalf("domain schema = %v, want [A]; dom = %s", got, dom)
	}
	if _, ok := dom.(*expr.Exists); !ok {
		t.Fatalf("domain should be Exists-wrapped: %s", dom)
	}
}

func TestExtractDomUncorrelatedIsOne(t *testing.T) {
	// Example 3.3: nested aggregate with no correlation — the delta domain
	// for updates to S bounds nothing, so extraction yields 1
	// (re-evaluation preferred).
	dq := expr.Sum(nil, expr.Delta("S", "B2", "C"))
	dom := ExtractDom(dq)
	if !isOne(dom) {
		t.Fatalf("uncorrelated domain = %s, want 1", dom)
	}
}

func TestExtractDomCorrelatedBindsVar(t *testing.T) {
	// Correlated nested delta: Sum_[](ΔS(B2,C) ⋈ (B=B2)) — the domain of
	// B2 values restricts B through the equality.
	dq := expr.Sum([]string{"B2"}, expr.Delta("S", "B2", "C"))
	dom := ExtractDom(dq)
	if !dom.Schema().Contains("B2") {
		t.Fatalf("domain %s should bind B2", dom)
	}
}

func TestInterUnionDoms(t *testing.T) {
	dr := expr.ExistsE(expr.Delta("R", "A", "B"))
	ds := expr.ExistsE(expr.Delta("S", "A", "C"))
	// Union branches: common column A.
	d := interDoms(dr, ds)
	if got := d.Schema(); !got.Equal(mring.Schema{"A"}) {
		t.Fatalf("interDoms schema = %v", got)
	}
	// If either side is unrestricted, result is unrestricted.
	if !isOne(interDoms(dr, &expr.Const{V: 1})) {
		t.Fatal("interDoms with 1 should be 1")
	}
	// Join combines bindings.
	u := unionDoms(dr, ds)
	if got := u.Schema(); !got.Equal(mring.Schema{"A", "B", "C"}) {
		t.Fatalf("unionDoms schema = %v", got)
	}
	if unionDoms(dr, &expr.Const{V: 1}) != dr {
		t.Fatal("unionDoms with 1 should be identity")
	}
}

// Property test: the IVM equation holds for a random family of queries
// (join + filter + optional nesting) under random batches including
// deletions, with and without domain extraction.
func TestQuickIVMEquation(t *testing.T) {
	queries := []expr.Expr{
		expr.Sum([]string{"B"}, expr.Join(expr.Base("R", "A", "B"), expr.Base("S", "B", "C"))),
		expr.Sum(nil, expr.Join(expr.Base("R", "A", "B"), expr.Base("S", "B", "C"),
			expr.CmpE(expr.CGe, expr.V("C"), expr.LitI(2)))),
		nestedCountQuery(),
		expr.ExistsE(expr.Sum([]string{"A"}, expr.Base("R", "A", "B"))),
		expr.Sum([]string{"A"}, expr.Join(expr.Base("R", "A", "B"), expr.ValE(expr.V("B")))),
	}
	prop := func(seed int64, qi uint8, de bool) bool {
		rng := rand.New(rand.NewSource(seed))
		q := queries[int(qi)%len(queries)]
		mk := func(n int) baseline.Rows {
			var r baseline.Rows
			for i := 0; i < n; i++ {
				r = append(r, baseline.Row{Tuple: tup(rng.Intn(4), rng.Intn(4)), M: float64(1 + rng.Intn(2))})
			}
			return r
		}
		rels := map[string]baseline.Rows{"R": mk(rng.Intn(12)), "S": mk(rng.Intn(12))}
		if qi%2 == 0 {
			rels["S"] = mk(rng.Intn(12))
		}
		target := "R"
		if rng.Intn(2) == 0 && len(expr.Relations(q, expr.RBase)) > 1 {
			target = expr.Relations(q, expr.RBase)[1]
		}
		var batch baseline.Rows
		for i := 0; i < rng.Intn(6); i++ {
			batch = append(batch, baseline.Row{Tuple: tup(rng.Intn(4), rng.Intn(4)), M: float64(rng.Intn(5) - 2)})
		}
		// Use the test helper inline (cannot call t.Fatalf in quick).
		got, want := ivmSides(q, Derive(q, target, Options{DomainExtraction: de}), rels, target, batch)
		return got.EqualApprox(want, 1e-6)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
