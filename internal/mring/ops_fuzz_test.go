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

// checkProbe compares one index probe with a scan of the model.
func checkProbe(t *testing.T, ix *Index, ref *refModel, probe Tuple, step int) {
	t.Helper()
	got := map[string]float64{}
	ix.Probe(probe, func(tp Tuple, m float64) {
		if _, dup := got[tp.Key()]; dup {
			t.Fatalf("step %d: probe %v returned %v twice", step, probe, tp)
		}
		got[tp.Key()] = m
	})
	n := 0
	for k, tp := range ref.ts {
		if !tp.EqualAt(ix.pos, probe) {
			continue
		}
		n++
		if m, ok := got[k]; !ok || m != ref.m[k] {
			t.Fatalf("step %d: probe %v: tuple %v has %g (present %v), model %g", step, probe, tp, m, ok, ref.m[k])
		}
	}
	if n != len(got) {
		t.Fatalf("step %d: probe %v returned %d tuples, model %d", step, probe, len(got), n)
	}
}

// FuzzRelationOps decodes arbitrary bytes into a sequence of relation
// and group-table operations — Add, Set, cancelling Add, Clear,
// EnsureIndex, Probe, GroupTable Add and Reset — under the real hash or
// a forced-collision one (the first byte's low bit), and checks every
// result against plain-map models. Stale entry ids after free-slot
// reuse, corrupted chains or index buckets, and keys left behind by a
// Reset all show as a divergence.
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
		gt := NewGroupTable(schema)
		if hashFn != nil {
			gt.SetHashFnForTest(hashFn)
		}
		gref := newGroupRef()
		data = data[1:]
		for step := 0; len(data) >= 2; step, data = step+1, data[2:] {
			op, b := data[0], data[1]
			tp, m := domainTuple(b), fuzzMults[op>>3&7]
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
			case 5:
				rel.EnsureIndex(fuzzIndexes[b%3])
			case 6:
				ix, _ := rel.EnsureIndex(fuzzIndexes[b%3])
				checkProbe(t, ix, ref, tp.Project(ix.pos), step)
			default:
				if b < 32 {
					gt.Reset(schema)
					gref = newGroupRef()
				} else {
					gt.Add(tp, m)
					gref.add(tp, m)
				}
				assertGroupsSame(t, gt, gref, step)
			}
			assertSame(t, rel, ref, step)
		}
		for _, ix := range rel.idxs {
			for _, tp := range ref.ts {
				checkProbe(t, ix, ref, tp.Project(ix.pos), -1)
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
