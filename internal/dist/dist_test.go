package dist

import (
	"maps"
	"testing"

	"repro/internal/compile"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
	"repro/internal/tpch"
)

func compileQ3(t *testing.T) (*compile.Program, PartInfo) {
	t.Helper()
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return prog, ChoosePartitioning(prog, tpch.PrimaryKeyRanks)
}

func TestChoosePartitioningRespectsKeyRanks(t *testing.T) {
	prog, parts := compileQ3(t)
	// Every keyed view must be partitioned on the best-ranked column of
	// its schema.
	for _, v := range prog.Views {
		loc := parts[v.Name]
		if !loc.Keyed() {
			continue
		}
		if len(loc.Key) != 1 {
			t.Fatalf("%s: expected single partition key, got %v", v.Name, loc.Key)
		}
		key := loc.Key[0]
		if !v.Schema.Contains(key) {
			t.Fatalf("%s: partition key %q not in schema %v", v.Name, key, v.Schema)
		}
		keyRank := tpch.PrimaryKeyRanks[key]
		for _, col := range v.Schema {
			if r := tpch.PrimaryKeyRanks[col]; r > keyRank {
				t.Fatalf("%s: partitioned on %q (rank %d) but schema holds %q (rank %d)",
					v.Name, key, keyRank, col, r)
			}
		}
	}
	// The Q3 top view joins on orderkey, the highest-ranked key.
	if got := parts["Q3"]; !got.Keyed() || got.Key[0] != "o_orderkey" {
		t.Fatalf("Q3 partitioned %v, want dist[o_orderkey]", got)
	}
	// Scalar views stay at the driver; deltas are worker-ingested, keyed
	// on their table's best-ranked column.
	q6, err := tpch.QueryByName("Q6")
	if err != nil {
		t.Fatal(err)
	}
	prog6, err := compile.Compile(q6.Name, q6.Def, q6.BaseSchemas(), compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	parts6 := ChoosePartitioning(prog6, tpch.PrimaryKeyRanks)
	if got := parts6["Q6"]; got.Kind != LLocal {
		t.Fatalf("scalar Q6 located %v, want local", got)
	}
	if got := parts6[eval.DeltaName("lineitem")]; !got.Equal(Dist("l_orderkey")) {
		t.Fatalf("delta located %v, want dist[l_orderkey]", got)
	}
	// Without a ranked column the stream is dealt at random.
	if got := ChoosePartitioning(prog6, nil)[eval.DeltaName("lineitem")]; !got.Equal(Random) {
		t.Fatalf("unranked delta located %v, want random", got)
	}
}

func TestChoosePartitioningReplicatesDimensions(t *testing.T) {
	// A view whose schema holds only low-ranked dimension keys is
	// replicated rather than partitioned — here the nation view the
	// supplier trigger reads.
	q := expr.Sum([]string{"n_name"}, expr.Join(
		expr.Base("nation", "n_nationkey", "n_name"),
		expr.Base("supplier", "s_suppkey", "n_nationkey")))
	prog, err := compile.Compile("QN", q, map[string]mring.Schema{
		"nation":   {"n_nationkey", "n_name"},
		"supplier": {"s_suppkey", "n_nationkey"},
	}, compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	parts := ChoosePartitioning(prog, tpch.PrimaryKeyRanks)
	var dim *compile.ViewDef
	for _, s := range prog.Triggers["supplier"].Stmts {
		for _, name := range expr.Relations(s.RHS, expr.RView) {
			if v := prog.View(name); v != nil && v.Schema.Equal(mring.Schema{"n_nationkey", "n_name"}) {
				dim = v
			}
		}
	}
	if dim == nil {
		t.Fatalf("the supplier trigger reads no nation view:\n%s", prog)
	}
	if got := parts[dim.Name]; got.Kind != LIndiff {
		t.Fatalf("dimension view %s located %v, want replicated", dim.Name, got)
	}
	// The result view, which no trigger reads, stays at the driver.
	if got := parts["QN"]; got.Kind != LLocal {
		t.Fatalf("unread dimension view QN located %v, want local", got)
	}
}

func countBlocks(dp *DistProgram) (local, dist int) {
	for _, b := range dp.Blocks {
		if b.Mode == LDist {
			dist++
		} else {
			local++
		}
	}
	return
}

func TestFuseBlocksReducesBlockCount(t *testing.T) {
	prog, parts := compileQ3(t)
	for _, rel := range []string{"lineitem", "orders", "customer"} {
		unfused := CompileProgram(prog, parts, O2)[rel]
		fused := FuseBlocks(unfused.Blocks)
		if len(fused) >= len(unfused.Blocks) {
			t.Fatalf("%s: fusion did not reduce blocks: %d -> %d",
				rel, len(unfused.Blocks), len(fused))
		}
		// Fusion preserves the statements (reordered, none dropped).
		n, m := 0, 0
		for _, b := range unfused.Blocks {
			n += len(b.Stmts)
		}
		for _, b := range fused {
			m += len(b.Stmts)
		}
		if n != m {
			t.Fatalf("%s: fusion changed statement count %d -> %d", rel, n, m)
		}
	}
}

func TestFuseBlocksPreservesDependencies(t *testing.T) {
	// A gather of a worker-computed temp must stay after the distributed
	// statement producing it, even when fusion reorders.
	prog, parts := compileQ3(t)
	for _, rel := range []string{"lineitem", "orders", "customer"} {
		dp := CompileProgram(prog, parts, O3)[rel]
		written := map[string]bool{}
		for n := range parts {
			written[n] = true // canonical state exists before the batch
		}
		written[eval.DeltaName(rel)] = true
		for _, b := range dp.Blocks {
			for _, s := range b.Stmts {
				for name := range s.Reads() {
					if !written[name] {
						t.Fatalf("%s: statement %q reads %q before it is written\n%s",
							rel, s, name, dp)
					}
				}
				written[s.LHS] = true
			}
		}
	}
}

// TestProgramSchemasCoverEveryReference pins that a distributed program
// declares every relation it touches, for every TPC-H query at every
// level: each statement's target and each relation it reads has a schema
// in Schemas of the arity the statement references it at.
func TestProgramSchemasCoverEveryReference(t *testing.T) {
	for _, q := range tpch.Queries() {
		prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		parts := ChoosePartitioning(prog, tpch.PrimaryKeyRanks)
		for _, level := range []OptLevel{O0, O1, O2, O3} {
			for rel, dp := range CompileProgram(prog, parts, level) {
				check := func(s Stmt, name string, arity int) {
					if got, ok := dp.Schemas[name]; !ok || len(got) != arity {
						t.Fatalf("%s O%d %s: statement %s references %q at arity %d, Schemas has %v (declared %v)",
							q.Name, level, rel, s, name, arity, got, ok)
					}
				}
				for _, b := range dp.Blocks {
					for _, s := range b.Stmts {
						check(s, s.LHS, len(s.RHS.Schema()))
						arity := map[string]int{}
						body := s.RHS
						if x, ok := body.(*Xform); ok {
							body = x.Body
						}
						expr.Walk(body, func(n expr.Expr) bool {
							if r, ok := n.(*expr.Rel); ok {
								arity[eval.RelEnvName(r)] = len(r.Cols)
							}
							return true
						})
						for name := range s.Reads() {
							check(s, name, arity[name])
						}
					}
				}
			}
		}
	}
}

func TestO3FewerDistBlocksThanO1(t *testing.T) {
	prog, parts := compileQ3(t)
	o1 := CompileProgram(prog, parts, O1)
	o3 := CompileProgram(prog, parts, O3)
	tot1, tot3 := 0, 0
	for _, rel := range []string{"lineitem", "orders", "customer"} {
		_, d1 := countBlocks(o1[rel])
		_, d3 := countBlocks(o3[rel])
		tot1 += d1
		tot3 += d3
		if d3 > d1 {
			t.Fatalf("%s: O3 has more dist blocks (%d) than O1 (%d)", rel, d3, d1)
		}
	}
	if tot3 >= tot1 {
		t.Fatalf("O3 total dist blocks %d, want fewer than O1's %d", tot3, tot1)
	}
}

func TestRedundantTransformerElimination(t *testing.T) {
	// The tri-join R-trigger scatters ΔR by B for two different
	// statements; O2 must perform the movement once.
	q := expr.Sum([]string{"B"}, expr.Join(
		expr.Base("R", "A", "B"), expr.Base("S", "B", "C"), expr.Base("T", "C", "D")))
	bases := map[string]mring.Schema{"R": {"A", "B"}, "S": {"B", "C"}, "T": {"C", "D"}}
	prog, err := compile.Compile("Q", q, bases, compile.Options{DomainExtraction: true})
	if err != nil {
		t.Fatal(err)
	}
	parts := PartInfo{}
	for _, v := range prog.Views {
		if v.Transient || len(v.Schema) == 0 {
			parts[v.Name] = Local
			continue
		}
		parts[v.Name] = Dist(v.Schema[0])
	}
	parts["Q"] = Local
	for rel := range bases {
		parts[eval.DeltaName(rel)] = Local
	}
	o1 := CompileProgram(prog, parts, O1)["R"]
	o2 := CompileProgram(prog, parts, O2)["R"]
	if o2.CommStmts() >= o1.CommStmts() {
		t.Fatalf("O2 transformers (%d) not fewer than O1's (%d)\nO1:\n%s\nO2:\n%s",
			o2.CommStmts(), o1.CommStmts(), o1, o2)
	}
}

func TestJobsAndStages(t *testing.T) {
	q, err := tpch.QueryByName("Q6")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	parts := ChoosePartitioning(prog, tpch.PrimaryKeyRanks)
	dp := CompileProgram(prog, parts, O3)["lineitem"]
	if dp.Stages() != 1 || dp.Jobs() != 1 {
		t.Fatalf("Q6 lineitem trigger: %d jobs / %d stages, want 1/1\n%s",
			dp.Jobs(), dp.Stages(), dp)
	}
}

func TestLocAndXformStrings(t *testing.T) {
	cases := map[string]string{
		Local.String():     "local",
		Random.String():    "random",
		Indiff.String():    "indiff",
		Dist("k").String(): "dist[k]",
		(&Xform{Kind: XScatter, Key: mring.Schema{"k"}, Body: expr.View("V", "k")}).String(): "SCATTER[k](V(k))",
		(&Xform{Kind: XScatter, Body: expr.View("V", "k")}).String():                         "BROADCAST(V(k))",
		(&Xform{Kind: XGather, Body: expr.View("V", "k")}).String():                          "GATHER(V(k))",
		(&Xform{Kind: XRepart, Key: mring.Schema{"k"}, Body: expr.View("V", "k")}).String():  "REPART[k](V(k))",
	}
	for got, want := range cases {
		if got != want {
			t.Fatalf("rendering: got %q want %q", got, want)
		}
	}
}

// TestPlaceReplicatesBroadcastUpkeep pins Place's replication rule on
// TPC-H: the views it replicates, with the stages the triggers touching
// them run under the rank placement and under the final one, and
// refusals beside them — a writer folding a delta its trigger does not
// broadcast (rule a), a replica that saves no stage, and one that would
// add a stage (rule b), the last under ranks that favour c_custkey.
func TestPlaceReplicatesBroadcastUpkeep(t *testing.T) {
	custkeyFirst := maps.Clone(tpch.PrimaryKeyRanks)
	custkeyFirst["c_custkey"] = 9
	for _, c := range []struct {
		query, view string
		ranks       map[string]int
		moved       bool              // rule (a) holds
		replicated  bool              // Place replicates the view
		stages      map[string][2]int // trigger: stages under the ranks, then with the view replicated
	}{
		{"Q3", "M2", nil, true, true, map[string][2]int{"orders": {3, 1}, "customer": {2, 1}}},
		{"Q10", "M2", nil, true, true, map[string][2]int{"orders": {3, 2}, "customer": {2, 1}}},
		{"Q18", "M3", nil, true, true, map[string][2]int{"orders": {3, 1}, "customer": {2, 1}}},
		{"Q20", "M3", nil, true, true, map[string][2]int{"partsupp": {3, 2}, "supplier": {3, 2}}},
		{"Q11", "M1", nil, true, true, map[string][2]int{"partsupp": {3, 2}, "supplier": {2, 1}}},
		{"Q3", "M3", nil, false, false, nil}, // lineitem's delta stays on the workers
		{"Q3", "M5", nil, false, false, nil}, // orders' delta is repartitioned, not broadcast
		{"Q5", "M17", nil, true, false, map[string][2]int{"lineitem": {3, 3}, "orders": {3, 3}, "supplier": {3, 3}}},
		{"Q5", "M32", custkeyFirst, true, false, map[string][2]int{"supplier": {2, 3}, "customer": {3, 3}, "orders": {3, 3}}},
	} {
		name := c.query + " " + c.view
		ranks := c.ranks
		if ranks == nil {
			ranks = tpch.PrimaryKeyRanks
		}
		q, err := tpch.QueryByName(c.query)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ranked, _ := rankPlacement(prog, ranks)
		if !ranked[c.view].Keyed() {
			t.Fatalf("%s: the ranks place it %v, want partitioned", name, ranked[c.view])
		}
		rankProgs := CompileProgram(prog, ranked, O3)
		if got := upkeepMoved(prog, rankProgs, c.view); got != c.moved {
			t.Errorf("%s: rule (a) holds = %v, want %v", name, got, c.moved)
		}
		parts, progs := Place(prog, ranks)
		if got := parts[c.view].Kind == LIndiff; got != c.replicated {
			t.Errorf("%s: located %v, replicated = %v, want %v", name, parts[c.view], got, c.replicated)
		}
		trial := ranked.Clone()
		trial[c.view] = Indiff
		for table, want := range c.stages {
			after := compileTrigger(prog, ViewSchemas(prog), prog.Triggers[table], trial, O3)
			if c.replicated {
				after = progs[table]
			}
			if got := [2]int{rankProgs[table].Stages(), after.Stages()}; got != want {
				t.Errorf("%s: %s trigger runs %d then %d stages, want %d then %d\n%s", name, table, got[0], got[1], want[0], want[1], after)
			}
		}
	}
}

// TestPlaceCompilesWhatCompileProgramDoes holds the programs Place
// returns, for every TPC-H query, to those CompileProgram compiles for
// Place's placement: a deployment that takes them compiles once.
func TestPlaceCompilesWhatCompileProgramDoes(t *testing.T) {
	for _, q := range tpch.Queries() {
		prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		parts, progs := Place(prog, tpch.PrimaryKeyRanks)
		want := CompileProgram(prog, parts, O3)
		if len(progs) != len(want) {
			t.Fatalf("%s: Place compiled %d triggers, want %d", q.Name, len(progs), len(want))
		}
		for table, dp := range want {
			if got := progs[table]; got.String() != dp.String() || !got.Parts.Equal(dp.Parts) {
				t.Errorf("%s %s: Place compiled\n%s\nCompileProgram compiles\n%s", q.Name, table, got, dp)
			}
		}
	}
}

// TestReplicaUpkeepReusesTheBroadcast pins that Q3's customer trigger
// keeps the replicated M2 from the copies it moves anyway: the driver
// pre-aggregates the batch itself, so the trigger gathers nothing and
// broadcasts that pre-aggregate once, and scatters nothing else.
func TestReplicaUpkeepReusesTheBroadcast(t *testing.T) {
	prog, _ := compileQ3(t)
	_, progs := Place(prog, tpch.PrimaryKeyRanks)
	dp := progs["customer"]
	moves := map[string]int{}
	for _, b := range dp.Blocks {
		for _, s := range b.Stmts {
			if x, ok := s.RHS.(*Xform); ok {
				moves[x.String()]++
			}
		}
	}
	pre := dp.Blocks[0].Stmts[0]
	if !pre.Reads()[eval.DeltaName("customer")] || len(moves) != 1 || moves["BROADCAST("+pre.LHS+"(c_custkey))"] != 1 {
		t.Fatalf("customer trigger moves %v, want one broadcast of the driver's pre-aggregate\n%s", moves, dp)
	}
}
