package expr

import (
	"testing"

	"repro/internal/mring"
)

func TestSchemas(t *testing.T) {
	r := Base("R", "a", "b")
	s := Base("S", "b", "c")
	j := Join(r, s)
	if got := j.Schema(); !got.Equal(mring.Schema{"a", "b", "c"}) {
		t.Fatalf("join schema = %v", got)
	}
	a := Sum([]string{"b"}, j)
	if got := a.Schema(); !got.Equal(mring.Schema{"b"}) {
		t.Fatalf("agg schema = %v", got)
	}
	l := LiftQ("x", Sum(nil, s))
	if got := l.Schema(); !got.Equal(mring.Schema{"x"}) {
		t.Fatalf("lift schema = %v", got)
	}
	l2 := LiftQ("x", Sum([]string{"c"}, s))
	if got := l2.Schema(); !got.Equal(mring.Schema{"c", "x"}) {
		t.Fatalf("lift-with-body schema = %v", got)
	}
	if got := CmpE(CLt, V("a"), LitI(3)).Schema(); len(got) != 0 {
		t.Fatalf("cmp schema = %v", got)
	}
	if got := ExistsE(j).Schema(); !got.Equal(mring.Schema{"a", "b", "c"}) {
		t.Fatalf("exists schema = %v", got)
	}
}

func TestJoinFlattening(t *testing.T) {
	r := Base("R", "a")
	s := Base("S", "b")
	u := Base("U", "c")
	j := Join(Join(r, s), u)
	m, ok := j.(*Mul)
	if !ok || len(m.Factors) != 3 {
		t.Fatalf("join not flattened: %v", j)
	}
	// identity constant dropped
	j2 := Join(&Const{V: 1}, r)
	if _, ok := j2.(*Rel); !ok {
		t.Fatalf("Join(1, R) = %v, want R", j2)
	}
	if e := Join(); e.String() != "1" {
		t.Fatalf("empty join = %v", e)
	}
}

func TestAddFlattening(t *testing.T) {
	r := Base("R", "a")
	s := Base("S", "a")
	u := Add(Add(r, s), r)
	p, ok := u.(*Plus)
	if !ok || len(p.Terms) != 3 {
		t.Fatalf("union not flattened: %v", u)
	}
	if e := Add(); !IsZero(e) {
		t.Fatalf("empty union = %v", e)
	}
	if e := Add(r); e != Expr(r) {
		t.Fatalf("singleton union should be the term")
	}
}

func TestSimplify(t *testing.T) {
	r := Base("R", "a")
	cases := []struct {
		in   Expr
		want string
	}{
		{Add(r, &Const{V: 0}), "R(a)"},
		{Join(r, &Const{V: 0}), "0"},
		{&Mul{Factors: []Expr{&Const{V: 2}, &Const{V: 3}}}, "6"},
		{&Plus{Terms: []Expr{&Const{V: 2}, &Const{V: 3}}}, "5"},
		{Sum(nil, &Const{V: 0}), "0"},
		{&Exists{Body: &Exists{Body: r}}, "Exists(R(a))"},
		{Neg(Neg(r)), "R(a)"},
	}
	for i, c := range cases {
		if got := Simplify(c.in).String(); got != c.want {
			t.Errorf("case %d: Simplify(%v) = %s, want %s", i, c.in, got, c.want)
		}
	}
}

func TestRelationsAndHas(t *testing.T) {
	q := Sum([]string{"b"},
		Join(Delta("R", "a", "b"), Base("S", "b", "c"), View("M", "c")))
	if got := Relations(q, RBase); len(got) != 1 || got[0] != "S" {
		t.Fatalf("base rels = %v", got)
	}
	if got := Relations(q, RDelta); len(got) != 1 || got[0] != "R" {
		t.Fatalf("delta rels = %v", got)
	}
	if !HasDelta(q) || !HasRel(q, RView, "M") || HasRel(q, RBase, "T") {
		t.Fatal("Has predicates broken")
	}
	if !HasBaseRelations(q) {
		t.Fatal("HasBaseRelations should see S and M")
	}
	if HasBaseRelations(Delta("R", "a")) {
		t.Fatal("delta alone is not a base relation")
	}
	if Degree(q) != 2 {
		t.Fatalf("Degree = %d, want 2", Degree(q))
	}
}

func TestVExprEval(t *testing.T) {
	env := map[string]mring.Value{"a": mring.Int(4), "b": mring.Float(2)}
	lookup := func(n string) mring.Value { return env[n] }
	cases := []struct {
		e    VExpr
		want float64
	}{
		{AddV(V("a"), V("b")), 6},
		{SubV(V("a"), V("b")), 2},
		{MulV(V("a"), V("b")), 8},
		{DivV(V("a"), V("b")), 2},
		{DivV(V("a"), LitF(0)), 0},
		{MulV(AddV(V("a"), LitI(1)), LitF(2)), 10},
	}
	for i, c := range cases {
		if got := c.e.EvalV(lookup).AsFloat(); got != c.want {
			t.Errorf("case %d: %v = %g, want %g", i, c.e, got, c.want)
		}
	}
}

func TestEvalCmp(t *testing.T) {
	one, two := mring.Int(1), mring.Int(2)
	if !EvalCmp(CLt, one, two) || EvalCmp(CLt, two, one) {
		t.Fatal("CLt broken")
	}
	if !EvalCmp(CLe, one, one) || !EvalCmp(CGe, two, two) {
		t.Fatal("CLe/CGe broken")
	}
	if !EvalCmp(CEq, one, mring.Float(1)) {
		t.Fatal("cross-kind CEq broken")
	}
	if !EvalCmp(CNe, one, two) || EvalCmp(CNe, one, one) {
		t.Fatal("CNe broken")
	}
	if !EvalCmp(CGt, two, one) {
		t.Fatal("CGt broken")
	}
}

func TestCloneIndependence(t *testing.T) {
	q := Sum([]string{"b"}, Join(Base("R", "a", "b"), CmpE(CGt, V("a"), LitI(3))))
	c := q.Clone()
	if q.String() != c.String() {
		t.Fatal("clone differs")
	}
	// mutate clone's rel cols; original must be unaffected
	Walk(c, func(n Expr) bool {
		if r, ok := n.(*Rel); ok {
			r.Cols[0] = "zz"
		}
		return true
	})
	if q.String() == c.String() {
		t.Fatal("clone shares storage with original")
	}
}

func TestStringRendering(t *testing.T) {
	q := Sum([]string{"b"},
		Join(Delta("R", "a", "b"), Base("S", "b", "c"), CmpE(CGt, V("a"), LitI(3))))
	want := "Sum_[b]((ΔR(a,b) * S(b,c) * (a > 3)))"
	if got := q.String(); got != want {
		t.Fatalf("String = %s, want %s", got, want)
	}
}

func TestEqualStructural(t *testing.T) {
	a := Join(Base("R", "a"), Base("S", "b"))
	b := Join(Base("R", "a"), Base("S", "b"))
	c := Join(Base("S", "b"), Base("R", "a"))
	if !Equal(a, b) {
		t.Fatal("identical trees not Equal")
	}
	if Equal(a, c) {
		t.Fatal("different factor order should not be Equal")
	}
}

func TestFreeVars(t *testing.T) {
	cases := []struct {
		e    Expr
		want []string
	}{
		// A bare relation produces everything, consumes nothing.
		{Base("R", "a", "b"), nil},
		// A comparison consumes both sides.
		{CmpE(CEq, V("x"), V("y")), []string{"x", "y"}},
		// Join order satisfies variables left to right.
		{Join(Base("R", "a"), CmpE(CGt, V("a"), LitI(1))), nil},
		{Join(CmpE(CGt, V("a"), LitI(1)), Base("R", "a")), []string{"a"}},
		// Correlated nested aggregate: B comes from outside.
		{Sum(nil, Join(Base("S", "b2"), Eq(V("b"), V("b2")))), []string{"b"}},
		// The lift produces its variable.
		{Join(LiftV("x", LitI(3)), CmpE(CLt, V("x"), LitI(5))), nil},
		// Union produces only what every branch produces.
		{Add(Base("R", "a", "b"), Base("S", "a", "c")), nil},
		{Join(Add(Base("R", "a"), Base("S", "a")), ValE(V("a"))), nil},
		// Exists passes through.
		{ExistsE(Join(Base("R", "a"), Eq(V("z"), V("a")))), []string{"z"}},
	}
	for i, c := range cases {
		got := FreeVars(c.e)
		if len(got) != len(c.want) {
			t.Errorf("case %d (%v): FreeVars = %v, want %v", i, c.e, got, c.want)
			continue
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Errorf("case %d (%v): FreeVars = %v, want %v", i, c.e, got, c.want)
			}
		}
	}
}

func TestAllVars(t *testing.T) {
	e := Sum([]string{"g"}, Join(
		Base("R", "a", "b"),
		CmpE(CGt, V("c"), LitI(1)),
		LiftV("d", V("a")),
		ValE(V("e"))))
	got := AllVars(e)
	for _, v := range []string{"a", "b", "c", "d", "e", "g"} {
		if !got.Contains(v) {
			t.Errorf("AllVars missing %q: %v", v, got)
		}
	}
}

func TestFloorDiv(t *testing.T) {
	lookup := func(string) mring.Value { return mring.Int(19950615) }
	if y := FloorDivV(V("d"), LitI(10000)).EvalV(lookup); y.AsInt() != 1995 {
		t.Fatalf("year = %d, want 1995", y.AsInt())
	}
	if z := FloorDivV(LitI(5), LitI(0)).EvalV(lookup); z.AsInt() != 0 {
		t.Fatalf("div by zero should be 0, got %d", z.AsInt())
	}
}
