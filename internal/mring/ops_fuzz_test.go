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

// probeOrder models the order Probe must return a key's tuples in: per
// key hash, a list that appends on insert and, on removal, moves its last
// tuple into the removed one's place. An index registered on a relation
// that already holds tuples lists them in Foreach order.
type probeOrder struct {
	pos  []int
	hash func(Tuple) uint64
	keys map[uint64][]string
}

func newProbeOrder(rel *Relation, pos []int) *probeOrder {
	o := &probeOrder{pos: pos, hash: Tuple.Hash, keys: map[uint64][]string{}}
	if rel.hashFn != nil {
		o.hash = rel.hashFn
	}
	rel.Foreach(func(tp Tuple, _ float64) { o.insert(tp) })
	return o
}

func (o *probeOrder) insert(tp Tuple) {
	h := o.hash(tp.Project(o.pos))
	o.keys[h] = append(o.keys[h], tp.Key())
}

func (o *probeOrder) remove(tp Tuple) {
	h, k := o.hash(tp.Project(o.pos)), tp.Key()
	l := o.keys[h]
	for i := range l {
		if l[i] == k {
			l[i] = l[len(l)-1]
			o.keys[h] = l[:len(l)-1]
			return
		}
	}
	panic(fmt.Sprintf("probe order model lacks %v", tp))
}

// checkProbe compares one index probe with the order model and with a
// scan of the reference model: the same tuples, in the model's order,
// with the reference's multiplicities.
func checkProbe(t *testing.T, ix *Index, ord *probeOrder, ref *refModel, probe Tuple, step int) {
	t.Helper()
	var want []string
	for _, k := range ord.keys[ord.hash(probe)] {
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
	n := 0
	for _, tp := range ref.ts {
		if tp.EqualAt(ix.pos, probe) {
			n++
		}
	}
	if n != len(want) {
		t.Fatalf("step %d: probe %v: order model lists %d tuples, reference %d", step, probe, len(want), n)
	}
}

// FuzzRelationOps decodes arbitrary bytes into a sequence of relation
// and group-table operations — Add, Set, cancelling Add, Clear,
// EnsureIndex, Probe, GroupTable Add and Reset — under the real hash or
// a forced-collision one (the first byte's low bit), and checks every
// result against plain-map models, every probe's order included. Stale
// entry ids after free-slot reuse, corrupted chains or key lists, and
// keys left behind by a Reset all show as a divergence.
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
		orders := map[*Index]*probeOrder{}
		ensure := func(pos []int) *Index {
			ix, built := rel.EnsureIndex(pos)
			if built {
				orders[ix] = newProbeOrder(rel, ix.pos)
			}
			return ix
		}
		data = data[1:]
		for step := 0; len(data) >= 2; step, data = step+1, data[2:] {
			op, b := data[0], data[1]
			tp, m := domainTuple(b), fuzzMults[op>>3&7]
			k := tp.Key()
			old, had := ref.ts[k]
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
				for _, o := range orders {
					clear(o.keys)
				}
			case 5:
				ensure(fuzzIndexes[b%3])
			case 6:
				ix := ensure(fuzzIndexes[b%3])
				checkProbe(t, ix, orders[ix], ref, tp.Project(ix.pos), step)
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
			if _, has := ref.ts[k]; op&7 <= 3 && has != had {
				for _, o := range orders {
					if has {
						o.insert(tp)
					} else {
						o.remove(old)
					}
				}
			}
			assertSame(t, rel, ref, step)
		}
		for ix, o := range orders {
			for _, tp := range ref.ts {
				checkProbe(t, ix, o, ref, tp.Project(ix.pos), -1)
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
