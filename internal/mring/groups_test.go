package mring

import (
	"fmt"
	"math/rand"
	"testing"
)

// groupRef is the string-keyed model a relation used as a group table
// (an aggregate's groups) must match: canonical-key groups, in-table Eps
// cancellation, first-insertion iteration order.
type groupRef struct {
	vals     map[string]float64
	keys     map[string]Tuple
	inserted []string // every insertion, including ones later canceled
	dead     []bool   // tombstones aligned with inserted
	occ      map[string]int
}

func newGroupRef() *groupRef {
	return &groupRef{vals: map[string]float64{}, keys: map[string]Tuple{}, occ: map[string]int{}}
}

func (r *groupRef) add(key Tuple, v float64) {
	if v == 0 {
		return
	}
	k := key.Key()
	cur, ok := r.vals[k]
	if !ok {
		r.vals[k] = v
		r.keys[k] = key.Clone()
		r.inserted = append(r.inserted, k)
		r.dead = append(r.dead, false)
		r.occ[k] = len(r.inserted) - 1
		return
	}
	cur += v
	if cur > -Eps && cur < Eps {
		r.dead[r.occ[k]] = true
		delete(r.vals, k)
		delete(r.keys, k)
		delete(r.occ, k)
		return
	}
	r.vals[k] = cur
}

func assertGroupsSame(t *testing.T, gt *Relation, ref *groupRef, step int) {
	t.Helper()
	if gt.Len() != len(ref.vals) {
		t.Fatalf("step %d: Len=%d, reference has %d groups", step, gt.Len(), len(ref.vals))
	}
	gt.Foreach(func(key Tuple, v float64) {
		if want := ref.vals[key.Key()]; want != v {
			t.Fatalf("step %d: group %v = %g, reference %g", step, key, v, want)
		}
	})
	for k, want := range ref.vals {
		if got := gt.Get(ref.keys[k]); got != want {
			t.Fatalf("step %d: Get(%v) = %g, reference %g", step, ref.keys[k], got, want)
		}
	}
}

func runGroupTableProperty(t *testing.T, seed int64, hashFn func(Tuple) uint64) {
	rng := rand.New(rand.NewSource(seed))
	schema := Schema{"g", "h"}
	gt := NewRelation(schema)
	gt.SetHashFnForTest(hashFn)
	ref := newGroupRef()
	buf := make(Tuple, 2)
	for step := 0; step < 4000; step++ {
		key := randomTuple(rng) // the shared small-domain generator: frequent hits and cancels
		v := float64(rng.Intn(7) - 3)
		if rng.Intn(2) == 0 { // streaming Add through the reused buffer
			copy(buf, key)
			gt.Add(buf, v)
		} else { // Add of a fresh projection of a wider carrier
			carrier := Tuple{Str("pad"), key[0], key[1], Int(99)}
			gt.Add(carrier.Project([]int{1, 2}), v)
		}
		ref.add(key, v)
		if step%97 == 0 {
			assertGroupsSame(t, gt, ref, step)
		}
	}
	assertGroupsSame(t, gt, ref, -1)

	// Iteration order is first-insertion order: replaying Foreach against
	// the reference's live insertion sequence must line up key for key.
	var live []string
	for i, k := range ref.inserted {
		if !ref.dead[i] {
			live = append(live, k)
		}
	}
	requireGroupOrder(t, "groups", gt, live)

	// Copies keep the groups and their order: Clone, and Merge into an
	// empty relation, which inserts without lookups.
	into := NewRelation(schema)
	into.SetHashFnForTest(hashFn)
	into.Merge(gt)
	for _, c := range []struct {
		what string
		rel  *Relation
	}{{"Clone", gt.Clone()}, {"Merge", into}} {
		assertGroupsSame(t, c.rel, ref, -2)
		requireGroupOrder(t, c.what, c.rel, live)
	}
}

// requireGroupOrder checks that rel visits exactly the keys of live, in
// order.
func requireGroupOrder(t *testing.T, what string, rel *Relation, live []string) {
	t.Helper()
	i := 0
	rel.Foreach(func(key Tuple, _ float64) {
		if i >= len(live) || live[i] != key.Key() {
			t.Fatalf("%s: iteration order diverges at %v", what, key)
		}
		i++
	})
	if i != len(live) {
		t.Fatalf("%s: %d groups, want %d", what, i, len(live))
	}
}

func TestGroupTableMatchesStringKeyedModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runGroupTableProperty(t, seed, nil)
		})
	}
}

func TestGroupTableMatchesModelUnderForcedCollisions(t *testing.T) {
	collide := func(tp Tuple) uint64 { return tp.Hash() & 1 }
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runGroupTableProperty(t, seed, collide)
		})
	}
}

// TestGroupTableMergeOrder pins the determinism contract the distributed
// gather relies on: merging the same per-worker group relations in
// worker-index order twice produces bitwise-identical float sums.
func TestGroupTableMergeOrder(t *testing.T) {
	schema := Schema{"g"}
	mk := func() []*Relation {
		ws := make([]*Relation, 3)
		for i := range ws {
			ws[i] = NewRelation(schema)
			// Values chosen so addition order changes the rounded sum.
			ws[i].Add(Tuple{Int(1)}, 0.1*float64(i+1))
			ws[i].Add(Tuple{Int(2)}, 1e16)
			ws[i].Add(Tuple{Int(2)}, float64(i)-1)
		}
		return ws
	}
	merge := func(ws []*Relation) *Relation {
		out := NewRelation(schema)
		for _, w := range ws {
			out.Merge(w)
		}
		return out
	}
	a, b := merge(mk()), merge(mk())
	if a.Len() != b.Len() {
		t.Fatalf("merge lengths differ: %d vs %d", a.Len(), b.Len())
	}
	a.Foreach(func(key Tuple, v float64) {
		if got := b.Get(key); got != v {
			t.Fatalf("merge not reproducible: %v -> %g vs %g", key, v, got)
		}
	})
}
