package dist

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/expr"
	"repro/internal/tpch"
)

// Why a compiled TPC-H trigger moves a whole persistent view per batch.
const (
	// crossKey: one statement joins the delta with this view and with a
	// view partitioned on another key, so the compiler gathers this one
	// and broadcasts it. The cost grows with the view (ROADMAP item 15b:
	// repartition the delta along the chain instead).
	crossKey = "joined with a view on another key: gathered, then broadcast"
	// repartKey: as crossKey, but the view is repartitioned whole to the
	// other view's key.
	repartKey = "joined with a view on another key: repartitioned whole"
	// driverStmt: the statement maintaining Q16's replicated result runs
	// at the driver, because it reads that result in its anti-join, so it
	// gathers every partitioned view it joins.
	driverStmt = "read by a driver statement"
	// scalar: a driver-held scalar view, broadcast as its one row.
	scalar = "scalar view: one row"
)

// persistentMoves is the census of item 15a: every transformer in the
// TPC-H triggers at O3 whose body is a persistent view, keyed by query,
// trigger and transformer.
var persistentMoves = map[string]string{
	"Q2 partsupp GATHER(M3(p_partkey))":                     crossKey,
	"Q2 partsupp GATHER(M4(s_suppkey))":                     crossKey,
	"Q5 customer GATHER(M27(l_suppkey,c_nationkey))":        crossKey,
	"Q5 customer GATHER(M9(o_orderkey,c_custkey))":          crossKey,
	"Q5 lineitem GATHER(M27(l_suppkey,c_nationkey))":        crossKey,
	"Q5 lineitem GATHER(M9(o_orderkey,c_custkey))":          crossKey,
	"Q5 orders GATHER(M17(o_orderkey,l_suppkey))":           crossKey,
	"Q5 orders GATHER(M32(c_custkey,c_nationkey))":          crossKey,
	"Q5 supplier GATHER(M17(o_orderkey,l_suppkey))":         crossKey,
	"Q5 supplier GATHER(M32(c_custkey,c_nationkey))":        crossKey,
	"Q7 lineitem GATHER(M13(s_suppkey,s_nationkey))":        crossKey,
	"Q7 lineitem GATHER(M20(s_suppkey,s_nationkey))":        crossKey,
	"Q7 lineitem GATHER(M3(s_suppkey,n_names))":             crossKey,
	"Q7 orders GATHER(M17(o_custkey,c_nationkey))":          crossKey,
	"Q7 orders GATHER(M23(o_custkey,c_nationkey))":          crossKey,
	"Q7 orders GATHER(M6(o_custkey,n_namec))":               crossKey,
	"Q8 lineitem GATHER(M19(l_suppkey,s_nationkey))":        crossKey,
	"Q8 lineitem GATHER(M2(p_partkey))":                     crossKey,
	"Q8 lineitem GATHER(M3(l_suppkey))":                     crossKey,
	"Q8 lineitem GATHER(M33(l_suppkey,s_nationkey))":        crossKey,
	"Q8 lineitem GATHER(M52(p_partkey,p_type))":             crossKey,
	"Q8 orders GATHER(M28(o_custkey,c_nationkey))":          crossKey,
	"Q8 orders GATHER(M29(o_custkey,n_regionkeyc))":         crossKey,
	"Q8 orders GATHER(M7(l_orderkey))":                      crossKey,
	"Q8 orders GATHER(M8(o_custkey))":                       crossKey,
	"Q9 lineitem GATHER(M15(p_partkey))":                    crossKey,
	"Q9 lineitem GATHER(M3(l_orderkey))":                    crossKey,
	"Q9 partsupp GATHER(M15(p_partkey))":                    crossKey,
	"Q11 partsupp BROADCAST(M6())":                          scalar,
	"Q16 part GATHER(M1(p_brand,p_size,ps_suppkey))":        driverStmt,
	"Q16 part GATHER(M2(p_partkey,ps_suppkey))":             driverStmt,
	"Q16 part REPART[ps_suppkey](M2(p_partkey,ps_suppkey))": repartKey,
	"Q16 partsupp GATHER(M3(p_partkey,p_brand,p_size))":     crossKey,
}

// TestPersistentViewMoveCensus lists every transformer of the TPC-H
// triggers at O3 that moves a persistent (non-transient) view, and pins
// the list: a move not in persistentMoves, one listed twice, or a listed
// one no longer compiled fails. Each such move costs O(|view|) per batch,
// so a new one must be justified here.
func TestPersistentViewMoveCensus(t *testing.T) {
	seen := map[string]bool{}
	for _, q := range tpch.Queries() {
		prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		parts := ChoosePartitioning(prog, tpch.PrimaryKeyRanks)
		for table, dp := range CompileProgram(prog, parts, O3) {
			for _, b := range dp.Blocks {
				for _, s := range b.Stmts {
					x, ok := s.RHS.(*Xform)
					if !ok {
						continue
					}
					r, ok := x.Body.(*expr.Rel)
					if !ok || r.Kind != expr.RView {
						continue
					}
					if v := prog.View(r.Name); v == nil || v.Transient {
						continue
					}
					key := q.Name + " " + table + " " + x.String()
					switch {
					case persistentMoves[key] == "":
						t.Errorf("unlisted move of a persistent view: %s", key)
					case seen[key]:
						t.Errorf("listed move compiled twice: %s", key)
					}
					seen[key] = true
				}
			}
		}
	}
	for key := range persistentMoves {
		if !seen[key] {
			t.Errorf("listed move no longer compiled: %s", key)
		}
	}
}
