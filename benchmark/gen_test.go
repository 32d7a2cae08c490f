package main

import (
	"fmt"
	"hash/fnv"
	"testing"

	ivm "repro"
	"repro/internal/tpch"
)

func q3Gen(seed int64) *gen { return newGen(seed, q3Tables, q3Live, 100) }

func TestScriptRepeatsForASeed(t *testing.T) {
	const pinned = 0x4a9b5bf303427665 // of seed 1, so that a change of the generator shows as a change of every baseline
	a, b := scriptHash(q3Gen(1), tracedTx), scriptHash(q3Gen(1), tracedTx)
	if a != b {
		t.Fatalf("same seed gave scripts %x and %x", a, b)
	}
	if a != pinned {
		t.Errorf("script of seed 1 hashes to %#x, pinned %#x", a, uint64(pinned))
	}
	if c := scriptHash(q3Gen(2), tracedTx); c == a {
		t.Errorf("seeds 1 and 2 gave the same script %x", a)
	}
}

// The script keeps the database consistent: every live row references a
// live parent, when it is inserted and until it is deleted.
func TestForeignKeysHitLiveParents(t *testing.T) {
	g := q3Gen(7)
	fkCol := map[string]int{tpch.Orders: 1, tpch.Lineitem: 0} // o_custkey, l_orderkey
	for i := 0; i < 1000; i++ {
		g.next()
		for _, lt := range g.tables {
			if got, want := lt.hi-lt.lo, int64(len(lt.rows)); got != want {
				t.Fatalf("transaction %d: %s window holds %d rows, want %d", i, lt.name, got, want)
			}
			if lt.parent == nil {
				continue
			}
			for k := lt.lo; k < lt.hi; k++ {
				if fk := (*lt.at(k))[fkCol[lt.name]].AsInt(); fk < lt.parent.lo || fk >= lt.parent.hi {
					t.Fatalf("transaction %d: live %s row references %s key %d outside the live range [%d, %d)",
						i, lt.name, lt.parent.name, fk, lt.parent.lo, lt.parent.hi)
				}
			}
		}
	}
}

// No q3 workload may silently measure an empty join.
func TestQ3JoinIsProductive(t *testing.T) {
	w, err := workloadByName("q3_local")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		g := newGen(seed, w.tables, w.live, w.perTx)
		d, _, _, _, err := w.setup(g.window(), "")
		if err != nil {
			t.Fatal(err)
		}
		if groups := d.eng.Result().Len(); groups < 50 {
			t.Errorf("seed %d: warmed result has %d groups, want at least 50", seed, groups)
		}
		nonEmpty := 0
		if _, err := d.eng.Subscribe(func(delta ivm.Delta) {
			if delta.Len() > 0 {
				nonEmpty++
			}
		}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tracedTx; i++ {
			tx, err := buildTx(g.next())
			if err == nil {
				err = d.eng.Apply(tx)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if nonEmpty*10 < tracedTx*9 {
			t.Errorf("seed %d: %d of %d transactions changed the result, want at least 90%%", seed, nonEmpty, tracedTx)
		}
		d.close()
	}
}

// scriptHash fingerprints the initial window and the first n transactions
// of a seed's script.
func scriptHash(g *gen, n int) uint64 {
	h := fnv.New64a()
	for _, lt := range g.tables {
		for k := lt.lo; k < lt.hi; k++ {
			fmt.Fprintf(h, "%s %v\n", lt.name, *lt.at(k))
		}
	}
	for i := 0; i < n; i++ {
		for _, c := range g.next() {
			fmt.Fprintf(h, "%s %v %v\n", c.table, c.t, c.mult)
		}
		fmt.Fprintln(h)
	}
	return h.Sum64()
}
