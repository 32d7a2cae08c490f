package mring

import (
	"fmt"
	"testing"
)

// fuzzMults are the multiplicities a fuzzed op can carry: small values
// that cancel each other, zero (a no-op for Add, a delete for Set) and
// one below Eps (Add inserts it, Set deletes).
var fuzzMults = [8]float64{1, -1, 2, -2, 0.5, -3, 0, 1e-12}

// fuzzIndexes are the index column sets a fuzzed op can register.
var fuzzIndexes = [3][]int{{0}, {1}, {0, 1}}

// domainTuple decodes one byte into a tuple of the small domain
// randomTuple draws from, so ops hit stored tuples and cancel often.
func domainTuple(b byte) Tuple {
	a, c := int64(b>>3&7), int64(b&3)
	switch b >> 6 {
	case 0:
		return Tuple{Int(a), Int(c)}
	case 1:
		return Tuple{Float(float64(a)), Int(c)} // key-equal to case 0
	case 2:
		return Tuple{Int(a), Str(fmt.Sprintf("s%d", c))}
	default:
		return Tuple{Float(float64(a) + 0.5), Str(fmt.Sprintf("s%d", c))}
	}
}

// orderModel is the order every walk of a relation must follow: the keys
// of its live tuples in insertion order. An insertion appends; a removal
// takes the key out and leaves the others in place.
type orderModel []string

func (o *orderModel) remove(k string) {
	for i := range *o {
		if (*o)[i] == k {
			*o = append((*o)[:i], (*o)[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("order model lacks %q", k))
}

// checkForeach compares a relation's Foreach with the order model and the
// reference's multiplicities.
func checkForeach(t *testing.T, what string, rel *Relation, ord orderModel, ref *refModel, step int) {
	t.Helper()
	i := 0
	rel.Foreach(func(tp Tuple, m float64) {
		if i >= len(ord) || tp.Key() != ord[i] {
			t.Fatalf("step %d: %s Foreach returned %v at position %d, model order %q", step, what, tp, i, ord)
		}
		if m != ref.m[ord[i]] {
			t.Fatalf("step %d: %s Foreach: tuple %v has %g, model %g", step, what, tp, m, ref.m[ord[i]])
		}
		i++
	})
	if i != len(ord) {
		t.Fatalf("step %d: %s Foreach returned %d tuples, model order %q", step, what, i, ord)
	}
}

// checkProbe compares one index probe with the order model: the tuples
// that match probe, in insertion order, with the reference's
// multiplicities.
func checkProbe(t *testing.T, ix *Index, ord orderModel, ref *refModel, probe Tuple, step int) {
	t.Helper()
	var want []string
	for _, k := range ord {
		if ref.ts[k].EqualAt(ix.pos, probe) {
			want = append(want, k)
		}
	}
	i := 0
	ix.Probe(probe, func(tp Tuple, m float64) {
		if i >= len(want) || tp.Key() != want[i] {
			t.Fatalf("step %d: probe %v returned %v at position %d, model order %q", step, probe, tp, i, want)
		}
		if m != ref.m[want[i]] {
			t.Fatalf("step %d: probe %v: tuple %v has %g, model %g", step, probe, tp, m, ref.m[want[i]])
		}
		i++
	})
	if i != len(want) {
		t.Fatalf("step %d: probe %v returned %d tuples, model order %q", step, probe, i, want)
	}
}

// FuzzRelationOps decodes arbitrary bytes into a sequence of relation
// operations — Add, Set, cancelling Add, Clear, EnsureIndex, Probe,
// Clone, Merge into an empty relation, and Add and Reset on a second
// relation used as a group table — under the real hash or a
// forced-collision one (the first byte's low bit), and checks every
// result against plain-map models: after every op the relation's Foreach
// follows the insertion-order model, and so does every probe, clone and
// merge. Stale entry ids after free-slot reuse, corrupted chains, order
// links or key lists, and keys left behind by a Reset all show as a
// divergence.
func FuzzRelationOps(f *testing.F) {
	f.Add([]byte{0, 0, 9, 8, 9, 24, 9, 1, 9, 5, 0, 6, 9})
	f.Add([]byte{1, 0, 1, 0, 65, 2, 130, 3, 1, 0, 200, 5, 2, 6, 77, 4, 3, 0, 1})
	f.Add([]byte{1, 7, 40, 7, 41, 15, 40, 7, 3, 7, 42, 0, 200, 8, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 256 { // every op checks the whole model
			return
		}
		var hashFn func(Tuple) uint64
		if data[0]&1 == 1 {
			hashFn = func(tp Tuple) uint64 { return tp.Hash() & 1 }
		}
		schema := Schema{"a", "b"}
		rel := NewRelation(schema)
		rel.hashFn = hashFn
		ref := newRefModel(schema)
		var ord orderModel
		gt := NewRelation(schema)
		gt.hashFn = hashFn
		gref := newGroupRef()
		var ixs []*Index
		ensure := func(pos []int) *Index {
			ix, built := rel.EnsureIndex(pos)
			if built {
				ixs = append(ixs, ix)
			}
			return ix
		}
		data = data[1:]
		for step := 0; len(data) >= 2; step, data = step+1, data[2:] {
			op, b := data[0], data[1]
			tp, m := domainTuple(b), fuzzMults[op>>3&7]
			k := tp.Key()
			_, had := ref.ts[k]
			switch op & 7 {
			case 0, 1:
				rel.Add(tp, m)
				ref.add(tp, m)
			case 2:
				rel.Set(tp, m)
				ref.set(tp, m)
			case 3:
				m = -rel.Get(tp)
				rel.Add(tp, m)
				ref.add(tp, m)
			case 4:
				rel.Clear()
				ref.clear()
				ord = ord[:0]
			case 5:
				ensure(fuzzIndexes[b%3])
			case 6:
				ix := ensure(fuzzIndexes[b%3])
				checkProbe(t, ix, ord, ref, tp.Project(ix.pos), step)
			default:
				switch {
				case b < 32:
					gt.Reset(schema)
					gref = newGroupRef()
				case op>>6 == 1:
					checkForeach(t, "Clone", rel.Clone(), ord, ref, step)
				case op>>6 == 2:
					into := NewRelation(schema)
					into.hashFn = hashFn
					into.Merge(rel)
					checkForeach(t, "Merge", into, ord, ref, step)
				default:
					gt.Add(tp, m)
					gref.add(tp, m)
				}
				assertGroupsSame(t, gt, gref, step)
			}
			if _, has := ref.ts[k]; op&7 <= 3 && has != had {
				if has {
					ord = append(ord, k)
				} else {
					ord.remove(k)
				}
			}
			assertSame(t, rel, ref, step)
			checkForeach(t, "relation", rel, ord, ref, step)
		}
		for _, ix := range ixs {
			for _, tp := range ref.ts {
				checkProbe(t, ix, ord, ref, tp.Project(ix.pos), -1)
			}
		}
		live := gref.inserted[:0:0]
		for i, k := range gref.inserted {
			if !gref.dead[i] {
				live = append(live, k)
			}
		}
		i := 0
		gt.Foreach(func(key Tuple, _ float64) {
			if i >= len(live) || live[i] != key.Key() {
				t.Fatalf("group iteration diverges from first-insertion order at %v", key)
			}
			i++
		})
	})
}
