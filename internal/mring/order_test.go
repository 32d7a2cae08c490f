package mring

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// orderPinStream drives a seeded random stream of Add, Set, cancelling
// Adds and Clear through a relation with one secondary index, and a
// stream of accumulating and cancelling Adds through a relation used as
// a group table. It returns the relation's Foreach sequence, the index's
// Probe sequence for every first-column key in turn, and the group
// relation's Foreach sequence, each rendered as "a.b:m".
func orderPinStream(seed int64, hashFn func(Tuple) uint64) (foreach, probe, groups []string) {
	rng := rand.New(rand.NewSource(seed))
	render := func(out *[]string) func(Tuple, float64) {
		return func(t Tuple, m float64) {
			parts := make([]string, len(t))
			for i, v := range t {
				parts[i] = fmt.Sprint(v.n)
			}
			*out = append(*out, fmt.Sprintf("%s:%g", strings.Join(parts, "."), m))
		}
	}

	r := NewRelation(Schema{"a", "b"})
	r.hashFn = hashFn
	ix, _ := r.EnsureIndex([]int{0})
	for i := 0; i < 240; i++ {
		t := Tuple{Int(int64(rng.Intn(8))), Int(int64(rng.Intn(6)))}
		switch op := rng.Intn(100); {
		case op < 55:
			r.Add(t, float64(1+rng.Intn(3)))
		case op < 75:
			r.Set(t, float64(rng.Intn(3)))
		case op < 98:
			r.Add(t, -r.Get(t))
		case i < 160: // late Clears would leave too little to pin
			r.Clear()
		}
	}
	r.Foreach(render(&foreach))
	for k := int64(0); k < 8; k++ {
		ix.Probe(Tuple{Int(k)}, render(&probe))
	}

	g := NewRelation(Schema{"a"})
	g.hashFn = hashFn
	for i := 0; i < 120; i++ {
		k := Tuple{Int(int64(rng.Intn(16)))}
		if rng.Intn(4) == 0 {
			g.Add(k, -g.Get(k))
		} else {
			g.Add(k, float64(1+rng.Intn(3)))
		}
	}
	g.Foreach(render(&groups))
	return foreach, probe, groups
}

// TestIterationOrderPinned pins the storage iteration order as literal
// lists: Relation.Foreach and Index.Probe visit live tuples in insertion
// order, on a relation and on one used as a group table. Fold order, and
// with it every golden's bitwise float result, follows from it, so a
// storage change must reproduce them exactly. The order depends on the
// insertions alone, so the lists are the same with the real hash and
// with a forced-collision hash whose chains are long.
func TestIterationOrderPinned(t *testing.T) {
	for _, c := range []struct {
		name                   string
		hashFn                 func(Tuple) uint64
		foreach, probe, groups []string
	}{
		{
			name: "real hash",
			foreach: []string{
				"6.2:4", "1.1:5", "0.5:3", "7.3:3", "1.4:6", "3.1:2", "4.0:2", "0.0:1",
				"4.4:1", "2.3:4", "2.0:8", "2.4:5", "2.5:3", "5.1:5", "3.2:2", "1.3:1",
				"5.4:3", "3.3:3", "7.2:3", "6.5:2", "6.0:1", "1.5:1", "6.4:3", "1.0:3",
				"7.0:3", "2.2:4", "7.1:5", "0.2:1", "3.0:2", "2.1:1", "0.1:1",
			},
			probe: []string{
				"0.5:3", "0.0:1", "0.2:1", "0.1:1", "1.1:5", "1.4:6", "1.3:1", "1.5:1",
				"1.0:3", "2.3:4", "2.0:8", "2.4:5", "2.5:3", "2.2:4", "2.1:1", "3.1:2",
				"3.2:2", "3.3:3", "3.0:2", "4.0:2", "4.4:1", "5.1:5", "5.4:3", "6.2:4",
				"6.5:2", "6.0:1", "6.4:3", "7.3:3", "7.2:3", "7.0:3", "7.1:5",
			},
			groups: []string{
				"6:7", "1:11", "14:5", "12:3", "0:3", "15:9", "11:4", "9:3",
				"2:2", "10:2", "7:3", "5:1",
			},
		},
		{
			name:   "forced collisions",
			hashFn: func(t Tuple) uint64 { return t.Hash() & 1 },
			foreach: []string{
				"6.2:4", "1.1:5", "0.5:3", "7.3:3", "1.4:6", "3.1:2", "4.0:2", "0.0:1",
				"4.4:1", "2.3:4", "2.0:8", "2.4:5", "2.5:3", "5.1:5", "3.2:2", "1.3:1",
				"5.4:3", "3.3:3", "7.2:3", "6.5:2", "6.0:1", "1.5:1", "6.4:3", "1.0:3",
				"7.0:3", "2.2:4", "7.1:5", "0.2:1", "3.0:2", "2.1:1", "0.1:1",
			},
			probe: []string{
				"0.5:3", "0.0:1", "0.2:1", "0.1:1", "1.1:5", "1.4:6", "1.3:1", "1.5:1",
				"1.0:3", "2.3:4", "2.0:8", "2.4:5", "2.5:3", "2.2:4", "2.1:1", "3.1:2",
				"3.2:2", "3.3:3", "3.0:2", "4.0:2", "4.4:1", "5.1:5", "5.4:3", "6.2:4",
				"6.5:2", "6.0:1", "6.4:3", "7.3:3", "7.2:3", "7.0:3", "7.1:5",
			},
			groups: []string{
				"6:7", "1:11", "14:5", "12:3", "0:3", "15:9", "11:4", "9:3",
				"2:2", "10:2", "7:3", "5:1",
			},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			foreach, probe, groups := orderPinStream(31, c.hashFn)
			for _, s := range []struct {
				what      string
				got, want []string
			}{{"Foreach", foreach, c.foreach}, {"Probe", probe, c.probe}, {"group Foreach", groups, c.groups}} {
				if !slices.Equal(s.got, s.want) {
					t.Errorf("%s sequence changed:\n got  %q\n want %q", s.what, s.got, s.want)
				}
			}
		})
	}
}
