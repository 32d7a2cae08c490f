package mring

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refModel is the string-keyed reference implementation the hash-native
// Relation must behave identically to: a map from canonical tuple keys to
// multiplicities with the same Eps zero-crossing rule.
type refModel struct {
	schema Schema
	m      map[string]float64
	ts     map[string]Tuple
}

func newRefModel(schema Schema) *refModel {
	return &refModel{schema: schema, m: map[string]float64{}, ts: map[string]Tuple{}}
}

func (r *refModel) add(t Tuple, m float64) {
	if m == 0 {
		return
	}
	k := t.Key()
	v, ok := r.m[k]
	if !ok {
		r.m[k] = m
		r.ts[k] = t.Clone()
		return
	}
	v += m
	if v > -Eps && v < Eps {
		delete(r.m, k)
		delete(r.ts, k)
		return
	}
	r.m[k] = v
}

func (r *refModel) set(t Tuple, m float64) {
	k := t.Key()
	if m > -Eps && m < Eps {
		delete(r.m, k)
		delete(r.ts, k)
		return
	}
	r.m[k] = m
	r.ts[k] = t.Clone()
}

func (r *refModel) clear() {
	clear(r.m)
	clear(r.ts)
}

func (r *refModel) get(t Tuple) float64 { return r.m[t.Key()] }

// assertSame checks the relation against the model tuple by tuple in both
// directions.
func assertSame(t *testing.T, rel *Relation, ref *refModel, step int) {
	t.Helper()
	if rel.Len() != len(ref.m) {
		t.Fatalf("step %d: Len=%d, reference has %d tuples", step, rel.Len(), len(ref.m))
	}
	rel.Foreach(func(tp Tuple, m float64) {
		if want := ref.get(tp); want != m {
			t.Fatalf("step %d: tuple %v has mult %g, reference %g", step, tp, m, want)
		}
	})
	for k, want := range ref.m {
		if got := rel.Get(ref.ts[k]); got != want {
			t.Fatalf("step %d: reference tuple %v mult %g, relation returned %g", step, ref.ts[k], want, got)
		}
	}
}

// randomTuple draws from a small value domain so that Add/Set hit existing
// tuples often and multiplicities cross zero regularly.
func randomTuple(rng *rand.Rand) Tuple {
	switch rng.Intn(4) {
	case 0:
		return Tuple{Int(int64(rng.Intn(8))), Int(int64(rng.Intn(4)))}
	case 1:
		return Tuple{Float(float64(rng.Intn(8))), Int(int64(rng.Intn(4)))} // collides with Int encoding
	case 2:
		return Tuple{Int(int64(rng.Intn(8))), Str(fmt.Sprintf("s%d", rng.Intn(4)))}
	default:
		return Tuple{Float(float64(rng.Intn(8)) + 0.5), Str(fmt.Sprintf("s%d", rng.Intn(4)))}
	}
}

// runRelationModelProperty drives random Add/Set/Merge/Clear/Probe
// sequences against the reference model. hashFn, when non-nil, overrides
// the relation's tuple hash (to force collision buckets).
func runRelationModelProperty(t *testing.T, seed int64, hashFn func(Tuple) uint64) {
	rng := rand.New(rand.NewSource(seed))
	schema := Schema{"a", "b"}
	rel := NewRelation(schema)
	rel.hashFn = hashFn
	ref := newRefModel(schema)
	// Register an index up front so every mutation also exercises the
	// incremental index maintenance paths.
	idx, _ := rel.EnsureIndex([]int{0})
	for step := 0; step < 4000; step++ {
		if step%701 == 700 { // periodic Clear: indexes stay registered
			rel.Clear()
			ref.clear()
			assertSame(t, rel, ref, step)
			continue
		}
		switch op := rng.Intn(20); {
		case op < 10: // Add
			tp := randomTuple(rng)
			m := float64(rng.Intn(7) - 3)
			rel.Add(tp, m)
			ref.add(tp, m)
		case op < 14: // Set
			tp := randomTuple(rng)
			m := float64(rng.Intn(5) - 2)
			rel.Set(tp, m)
			ref.set(tp, m)
		case op < 17: // Merge a small random relation
			o := NewRelation(schema)
			o.hashFn = hashFn
			for i := 0; i < rng.Intn(6); i++ {
				tp := randomTuple(rng)
				m := float64(rng.Intn(5) - 2)
				o.Add(tp, m)
				ref.add(tp, m)
			}
			rel.Merge(o)
		default: // index probe: compare against a reference scan
			probe := Tuple{randomTuple(rng)[0]}
			got := map[string]float64{}
			idx.Probe(probe, func(tp Tuple, m float64) { got[tp.Key()] = m })
			want := map[string]float64{}
			for k, tp := range ref.ts {
				if tp[0].Equal(probe[0]) {
					want[k] = ref.m[k]
				}
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: probe %v returned %d tuples, reference scan %d", step, probe, len(got), len(want))
			}
			for k, m := range want {
				if got[k] != m {
					t.Fatalf("step %d: probe %v tuple %v: got %g want %g", step, probe, ref.ts[k], got[k], m)
				}
			}
		}
		if step%97 == 0 {
			assertSame(t, rel, ref, step)
		}
	}
	assertSame(t, rel, ref, -1)
}

func TestRelationMatchesStringKeyedModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRelationModelProperty(t, seed, nil)
		})
	}
}

// TestRelationMatchesModelUnderForcedCollisions maps every tuple into two
// hash buckets, so nearly all entries share collision chains and index
// buckets hold mixed keys — the chain insert/unlink and bucket filter
// paths do all the work.
func TestRelationMatchesModelUnderForcedCollisions(t *testing.T) {
	collide := func(tp Tuple) uint64 { return tp.Hash() & 1 }
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runRelationModelProperty(t, seed, collide)
		})
	}
}

// TestForcedCollisionChainsExercised sanity-checks that the forced hash
// actually produces chains longer than one.
func TestForcedCollisionChainsExercised(t *testing.T) {
	rel := NewRelation(Schema{"a"})
	rel.hashFn = func(Tuple) uint64 { return 7 }
	for i := 0; i < 10; i++ {
		rel.Add(Tuple{Int(int64(i))}, 1)
	}
	occupied := 0
	for _, e := range rel.tab {
		if e != 0 {
			occupied++
		}
	}
	if rel.Len() != 10 || occupied != 1 {
		t.Fatalf("expected one bucket of 10 chained entries, got %d buckets / Len %d", occupied, rel.Len())
	}
	for i := 0; i < 10; i += 2 {
		rel.Add(Tuple{Int(int64(i))}, -1) // unlink from the middle of the chain
	}
	if rel.Len() != 5 {
		t.Fatalf("after deletions Len=%d, want 5", rel.Len())
	}
	for i := 0; i < 10; i++ {
		want := float64(i % 2)
		if got := rel.Get(Tuple{Int(int64(i))}); got != want {
			t.Fatalf("Get(%d)=%g, want %g", i, got, want)
		}
	}
}

// TestStorageIdentityMatchesCanonicalKey pins the relation's tuple
// identity to the canonical key encoding on the cases where Tuple.Equal
// diverges from it: NaN values (Equal is irreflexive, the key is not) and
// integers beyond 2^53 (the key keeps them exact, as Equal does between
// two integers). Both must behave exactly as string-keyed storage would.
func TestStorageIdentityMatchesCanonicalKey(t *testing.T) {
	nan := math.NaN()
	r := NewRelation(Schema{"a"})
	r.Add(Tuple{Float(nan)}, 1)
	r.Add(Tuple{Float(nan)}, 1)
	if r.Len() != 1 || r.Get(Tuple{Float(nan)}) != 2 {
		t.Fatalf("NaN tuples must accumulate in one entry: Len=%d Get=%g", r.Len(), r.Get(Tuple{Float(nan)}))
	}
	r.Add(Tuple{Float(nan)}, -2)
	if r.Len() != 0 {
		t.Fatalf("NaN tuple must cancel to empty, Len=%d", r.Len())
	}

	const big = int64(1) << 53
	r2 := NewRelation(Schema{"a"})
	r2.Add(Tuple{Int(big)}, 1)
	r2.Add(Tuple{Int(big + 1)}, -1)
	if r2.Len() != 2 || r2.Get(Tuple{Int(big)}) != 1 || r2.Get(Tuple{Int(big + 1)}) != -1 {
		t.Fatalf("integers beyond 2^53 must stay distinct: Len=%d", r2.Len())
	}
	if (Tuple{Int(big)}).Key() == (Tuple{Int(big + 1)}).Key() {
		t.Fatal("test premise: keys should differ")
	}
}

// BenchmarkRelationAddGet is the local hot path the hash-native storage
// targets: interleaved inserts, accumulations, and point lookups.
func BenchmarkRelationAddGet(b *testing.B) {
	const n = 4096
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple{Int(int64(i)), Str(fmt.Sprintf("cust#%06d", i%512)), Float(float64(i) * 1.5)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRelation(Schema{"k", "name", "v"})
		for _, t := range tuples {
			r.Add(t, 1)
		}
		var sink float64
		for _, t := range tuples {
			sink += r.Get(t)
		}
		if sink != n {
			b.Fatal("bad sum")
		}
	}
	b.ReportMetric(float64(b.N)*2*n/b.Elapsed().Seconds(), "ops/sec")
}
