package mring

import "testing"

// TestIndexChurnAllocatesNothing holds index maintenance to allocating
// nothing in steady state. A relation with two registered indexes takes
// a new distinct key per operation while its oldest key is deleted, so
// each operation adds a key to both indexes and drops one from both.
func TestIndexChurnAllocatesNothing(t *testing.T) {
	const live = 256
	r := NewRelation(Schema{"a", "b", "c"})
	byA, _ := r.EnsureIndex([]int{0})
	byBC, _ := r.EnsureIndex([]int{1, 2})
	tp := make(Tuple, 3)
	at := func(i int64) Tuple {
		tp[0], tp[1], tp[2] = Int(i), Int(i*7), Int(i%5)
		return tp
	}
	next := int64(0)
	churn := func() {
		r.Add(at(next), 1)
		r.Add(at(next-live), -1)
		next++
	}
	for ; next < live; next++ {
		r.Add(at(next), 1)
	}
	for i := 0; i < 4*live; i++ {
		churn()
	}
	if n := testing.AllocsPerRun(1000, churn); n != 0 {
		t.Fatalf("a churned key costs %.2f allocations, want 0", n)
	}
	if r.Len() != live {
		t.Fatalf("the relation holds %d tuples, want %d", r.Len(), live)
	}
	for _, c := range []struct {
		ix    *Index
		probe Tuple
	}{
		{byA, Tuple{Int(next - 1)}},
		{byBC, Tuple{Int((next - 1) * 7), Int((next - 1) % 5)}},
	} {
		n := 0
		c.ix.Probe(c.probe, func(Tuple, float64) { n++ })
		if n != 1 {
			t.Fatalf("probe %v found %d tuples, want 1", c.probe, n)
		}
	}
	gone := 0
	byA.Probe(Tuple{Int(next - live - 1)}, func(Tuple, float64) { gone++ })
	if gone != 0 {
		t.Fatalf("a deleted key's probe found %d tuples", gone)
	}
}
