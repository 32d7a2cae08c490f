package mring

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
	"weak"
)

func tup(vs ...any) Tuple {
	t := make(Tuple, len(vs))
	for i, v := range vs {
		switch x := v.(type) {
		case int:
			t[i] = Int(int64(x))
		case int64:
			t[i] = Int(x)
		case float64:
			t[i] = Float(x)
		case string:
			t[i] = Str(x)
		default:
			panic("bad test value")
		}
	}
	return t
}

func TestValueEqualNumericCrossKind(t *testing.T) {
	if !Int(3).Equal(Float(3)) {
		t.Fatal("Int(3) should equal Float(3)")
	}
	if Int(3).Equal(Float(3.5)) {
		t.Fatal("Int(3) should not equal Float(3.5)")
	}
	if Int(3).Equal(Str("3")) {
		t.Fatal("Int(3) should not equal Str(3)")
	}
	if !Str("a").Equal(Str("a")) {
		t.Fatal("string equality broken")
	}
}

func TestValueLessOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Int(1), Int(2), true},
		{Int(2), Int(1), false},
		{Float(1.5), Int(2), true},
		{Int(2), Float(1.5), false},
		{Int(5), Str("a"), true}, // numbers before strings
		{Str("a"), Int(5), false},
		{Str("a"), Str("b"), true},
	}
	for i, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("case %d: %v < %v = %v, want %v", i, c.a, c.b, got, c.want)
		}
	}
}

func TestTupleKeyCollision(t *testing.T) {
	// Int and integral Float must share a key (the data model treats them
	// as the same value).
	a := tup(3, "x")
	b := Tuple{Float(3), Str("x")}
	if a.Key() != b.Key() {
		t.Fatal("Int(3) and Float(3) keys differ")
	}
	// Distinct strings must not collide even with embedded separators.
	c := Tuple{Str("ab"), Str("c")}
	d := Tuple{Str("a"), Str("bc")}
	if c.Key() == d.Key() {
		t.Fatal("string tuple keys collide")
	}
}

func TestRelationAddRemove(t *testing.T) {
	r := NewRelation(Schema{"a", "b"})
	r.Add(tup(1, "x"), 2)
	r.Add(tup(1, "x"), 3)
	if got := r.Get(tup(1, "x")); got != 5 {
		t.Fatalf("Get = %g, want 5", got)
	}
	r.Add(tup(1, "x"), -5)
	if r.Len() != 0 {
		t.Fatal("tuple with zero multiplicity should be removed")
	}
	r.Add(tup(2, "y"), -1)
	if got := r.Get(tup(2, "y")); got != -1 {
		t.Fatalf("negative multiplicity lost: %g", got)
	}
}

func TestRelationSetAndClear(t *testing.T) {
	r := NewRelation(Schema{"a"})
	r.Set(tup(1), 7)
	r.Set(tup(2), 0) // no-op insert
	if r.Len() != 1 || r.Get(tup(1)) != 7 {
		t.Fatalf("Set failed: %v", r)
	}
	r.Set(tup(1), 0)
	if r.Len() != 0 {
		t.Fatal("Set to zero should delete")
	}
	r.Add(tup(3), 1)
	r.Clear()
	if r.Len() != 0 {
		t.Fatal("Clear failed")
	}
}

func TestRelationMergeEqual(t *testing.T) {
	a := NewRelation(Schema{"a"})
	b := NewRelation(Schema{"a"})
	a.Add(tup(1), 2)
	a.Add(tup(2), 3)
	b.Add(tup(2), 3)
	b.Add(tup(1), 2)
	if !a.Equal(b) {
		t.Fatal("relations with same content should be Equal")
	}
	b.Add(tup(3), 1)
	if a.Equal(b) {
		t.Fatal("different relations reported Equal")
	}
	a.Merge(b)
	if a.Get(tup(1)) != 4 || a.Get(tup(3)) != 1 {
		t.Fatalf("Merge wrong: %v", a)
	}
}

func TestMergeScaledNegation(t *testing.T) {
	a := NewRelation(Schema{"a"})
	a.Add(tup(1), 2)
	a.Add(tup(2), -3)
	b := a.Clone()
	a.MergeScaled(b, -1)
	if a.Len() != 0 {
		t.Fatalf("r + (-1)*r should be empty, got %v", a)
	}
}

func TestProjectSum(t *testing.T) {
	r := NewRelation(Schema{"a", "b"})
	r.Add(tup(1, "x"), 2)
	r.Add(tup(1, "y"), 3)
	r.Add(tup(2, "x"), 4)
	p := r.ProjectSum([]string{"a"})
	if p.Get(tup(1)) != 5 || p.Get(tup(2)) != 4 {
		t.Fatalf("ProjectSum wrong: %v", p)
	}
	// Projection onto nothing gives the grand total.
	g := r.ProjectSum(nil)
	if g.Get(Tuple{}) != 9 {
		t.Fatalf("grand total = %g, want 9", g.Get(Tuple{}))
	}
}

func TestSchemaOps(t *testing.T) {
	s := Schema{"a", "b", "c"}
	if s.Index("b") != 1 || s.Index("z") != -1 {
		t.Fatal("Index broken")
	}
	if got := s.Intersect(Schema{"c", "a", "z"}); !got.Equal(Schema{"a", "c"}) {
		t.Fatalf("Intersect = %v", got)
	}
	if got := s.Union(Schema{"c", "d"}); !got.Equal(Schema{"a", "b", "c", "d"}) {
		t.Fatalf("Union = %v", got)
	}
	if !s.Contains("a") || s.Contains("d") {
		t.Fatal("Contains broken")
	}
}

// Property: bag union is commutative and associative; r ⊎ (-1)·r = ∅.
func TestQuickBagUnionProperties(t *testing.T) {
	gen := func(seed int64) *Relation {
		rng := rand.New(rand.NewSource(seed))
		r := NewRelation(Schema{"a", "b"})
		n := rng.Intn(30)
		for i := 0; i < n; i++ {
			r.Add(tup(rng.Intn(5), rng.Intn(5)), float64(rng.Intn(7)-3))
		}
		return r
	}
	prop := func(s1, s2, s3 int64) bool {
		a, b, c := gen(s1), gen(s2), gen(s3)
		// commutative
		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if !ab.Equal(ba) {
			return false
		}
		// associative
		abc1 := ab.Clone()
		abc1.Merge(c)
		bc := b.Clone()
		bc.Merge(c)
		abc2 := a.Clone()
		abc2.Merge(bc)
		if !abc1.Equal(abc2) {
			return false
		}
		// inverse
		inv := a.Clone()
		inv.MergeScaled(a, -1)
		return inv.Len() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: tuple Key is injective w.r.t. Equal on random tuples.
func TestQuickKeyInjective(t *testing.T) {
	mk := func(seed int64) Tuple {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		tp := make(Tuple, n)
		for i := range tp {
			switch rng.Intn(3) {
			case 0:
				tp[i] = Int(int64(rng.Intn(10)))
			case 1:
				tp[i] = Float(float64(rng.Intn(10)) + 0.5)
			default:
				tp[i] = Str(string(rune('a' + rng.Intn(5))))
			}
		}
		return tp
	}
	prop := func(s1, s2 int64) bool {
		a, b := mk(s1), mk(s2)
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTupleProjectCloneHash(t *testing.T) {
	a := tup(1, "x", 2.5)
	c := a.Clone()
	c[0] = Int(9)
	if a[0].n != 1 {
		t.Fatal("Clone shares storage")
	}
	p := a.Project([]int{2, 0})
	if !p.Equal(Tuple{Float(2.5), Int(1)}) {
		t.Fatalf("Project = %v", p)
	}
	if a.Hash() == 0 {
		t.Fatal("suspicious zero hash")
	}
	if a.Hash() != tup(1, "x", 2.5).Hash() {
		t.Fatal("hash not deterministic")
	}
}

func TestRelationString(t *testing.T) {
	r := NewRelation(Schema{"a"})
	r.Add(tup(2), 1)
	r.Add(tup(1), 3)
	want := `[a]{(1)->3, (2)->1}`
	if got := r.String(); got != want {
		t.Fatalf("String = %s, want %s", got, want)
	}
}

// TestForeachSortedHandsOutCopies pins the aliasing rule's exception:
// Foreach hands out tuples that alias storage, ForeachSorted owned
// copies, which must survive the relation freeing, zeroing and reusing
// the slots they were read from.
func TestForeachSortedHandsOutCopies(t *testing.T) {
	r := NewRelation(Schema{"k", "name"})
	for i := 0; i < 10; i++ {
		r.Add(tup(i, fmt.Sprintf("name-%d", i)), 1)
	}
	var kept []Tuple
	r.ForeachSorted(func(tp Tuple, _ float64) { kept = append(kept, tp) })
	for i := 0; i < 10; i++ {
		r.Add(tup(i, fmt.Sprintf("name-%d", i)), -1)
		r.Add(tup(100+i, "other"), 1) // lands in the slot just freed
	}
	for i, tp := range kept {
		if want := tup(i, fmt.Sprintf("name-%d", i)); !tp.Equal(want) {
			t.Fatalf("kept tuple %d reads %v, want %v", i, tp, want)
		}
	}
}

// TestClearReleasesStrings checks that a relation lets go of a string's
// bytes once the tuple holding it is removed or the relation cleared:
// an arena skips zeroing freed slots only while it has never stored a
// string. It covers a relation that held strings from the start and one
// that held only numbers, was cleared, and then stored a string.
func TestClearReleasesStrings(t *testing.T) {
	str := func() string { return strings.Repeat("s", 64) } // fresh heap bytes per call
	for _, numbersFirst := range []bool{false, true} {
		for _, how := range []string{"remove", "Clear"} {
			r := NewRelation(Schema{"k", "s"})
			if numbersFirst {
				r.Add(Tuple{Int(1), Float(2)}, 1)
				r.Clear()
			}
			s := str()
			bytes := weak.Make(unsafe.StringData(s))
			r.Add(Tuple{Int(1), Str(s)}, 1)
			r.Add(Tuple{Int(2), Float(3)}, 1)
			if how == "remove" {
				r.Add(Tuple{Int(1), Str(str())}, -1)
			} else {
				r.Clear()
			}
			runtime.GC()
			if bytes.Value() != nil {
				t.Errorf("numbers first %v, after %s: the relation still holds the string's bytes", numbersFirst, how)
			}
			runtime.KeepAlive(r)
		}
	}
}
