package mring

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// orderSeq renders a relation's Foreach sequence and, through ix, the
// Probe sequence of every first-column key in turn, rows with their
// multiplicities.
func orderSeq(r *Relation, ix *Index) (foreach, probe []string) {
	render := func(out *[]string) func(Tuple, float64) {
		return func(t Tuple, m float64) { *out = append(*out, fmt.Sprintf("%v:%g", t, m)) }
	}
	r.Foreach(render(&foreach))
	for k := int64(0); k < 16; k++ {
		ix.Probe(Tuple{Int(k)}, render(&probe))
	}
	return foreach, probe
}

// restoreOp applies one operation of a random history to r: a deletion,
// a cancelling Add, a Set or an Add of key k.
func restoreOp(r *Relation, k int64, kind, m int) {
	tp := Tuple{Int(k % 16), Int(k / 16)}
	switch kind {
	case 0:
		r.Set(tp, 0)
	case 1:
		r.Add(tp, -r.Get(tp))
	case 2:
		r.Set(tp, float64(m))
	default:
		r.Add(tp, float64(m))
	}
}

// TestRestoreExactLayout is the property recovery rests on: after any
// history of inserts, updates, deletions and clears, a relation rebuilt
// by inserting the source's Foreach rows in order — into no preseeded
// table, into 8 buckets, or into the source's TableSize — visits the same
// rows in the same order, in Foreach and in every Probe, and keeps doing
// so under the same further operations; the rebuild preseeded to the
// source's TableSize keeps its table size too. So capacity is only a
// hint, and a fold after recovery replays the source's float additions.
func TestRestoreExactLayout(t *testing.T) { checkRestoreLayout(t, nil) }

// TestRestoreExactForcedCollisions repeats TestRestoreExactLayout under
// a hash that chains every tuple into two buckets, so chain order, not
// just bucket membership, must follow insertion order.
func TestRestoreExactForcedCollisions(t *testing.T) {
	checkRestoreLayout(t, func(t Tuple) uint64 { return t.Hash() & 1 })
}

func checkRestoreLayout(t *testing.T, hashFn func(Tuple) uint64) {
	schema := Schema{"k", "v"}
	for trial := 0; trial < 100; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		src := NewRelation(schema)
		src.hashFn = hashFn
		srcIx, _ := src.EnsureIndex([]int{0})
		for i, n := 0, rng.Intn(300); i < n; i++ {
			if rng.Intn(100) == 0 {
				src.Clear()
			}
			restoreOp(src, int64(rng.Intn(64)), rng.Intn(6), rng.Intn(7)-3)
		}
		var rebuilt []*Relation
		var ixs []*Index
		for _, buckets := range []int{0, 8, src.TableSize()} {
			r := NewRelation(schema)
			r.hashFn = hashFn
			if buckets > 0 {
				r.Preseed(buckets)
			}
			src.Foreach(r.Add)
			ix, _ := r.EnsureIndex([]int{0})
			rebuilt, ixs = append(rebuilt, r), append(ixs, ix)
		}
		for step := 0; step <= 60; step++ {
			if step > 0 {
				k, kind, m := int64(rng.Intn(64)), rng.Intn(6), rng.Intn(7)-3
				for _, r := range append(rebuilt, src) {
					restoreOp(r, k, kind, m)
				}
			}
			if got, want := rebuilt[2].TableSize(), src.TableSize(); got != want {
				t.Fatalf("trial %d, step %d: TableSize %d, want the source's %d", trial, step, got, want)
			}
			wf, wp := orderSeq(src, srcIx)
			for i, r := range rebuilt {
				if gf, gp := orderSeq(r, ixs[i]); !slices.Equal(gf, wf) || !slices.Equal(gp, wp) {
					t.Fatalf("trial %d, rebuild %d, step %d: order diverges\n Foreach got  %q\n Foreach want %q\n Probe got  %q\n Probe want %q",
						trial, i, step, gf, wf, gp, wp)
				}
			}
		}
	}
}

func TestPreseedPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"non-empty", func() {
			r := NewRelation(Schema{"k"})
			r.Add(Tuple{Int(1)}, 1)
			r.Preseed(8)
		}},
		{"not-power-of-two", func() { NewRelation(Schema{"k"}).Preseed(12) }},
		{"too-small", func() { NewRelation(Schema{"k"}).Preseed(4) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			tc.f()
		})
	}
}
