package dist

import (
	"maps"
	"slices"

	"repro/internal/compile"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
)

// PartInfo construction: the co-partitioning heuristic of Sec. 6.2.

// ViewSchemas returns the schema of every relation a compiled program's
// triggers can reference: all materialized views (including transients)
// and the update batches under their Δ-names.
func ViewSchemas(prog *compile.Program) map[string]mring.Schema {
	schemas := make(map[string]mring.Schema, len(prog.Views)+len(prog.Bases))
	for _, v := range prog.Views {
		schemas[v.Name] = v.Schema.Clone()
	}
	for name, s := range prog.Bases {
		schemas[eval.DeltaName(name)] = s.Clone()
	}
	return schemas
}

// ChoosePartitioning assigns a location to every view and delta of a
// compiled program, following the paper's heuristic: partition each view
// on the key of the largest base relation appearing in its schema.
// keyRanks orders the candidate partition columns by the cardinality of
// their source table (higher rank = larger table; see
// tpch.PrimaryKeyRanks). The resulting choices:
//
//   - scalar views (empty schema) live at the driver;
//   - views whose schema holds a ranked key column are hash-partitioned
//     on the best-ranked one;
//   - views over small dimensions only (best rank <= 1, or no ranked
//     column at all) are replicated, so fact-side triggers never move
//     them — when a trigger statement reads them; a view no statement
//     reads (a result view) stays at the driver instead;
//   - transient per-batch delta views with no ranked column stay wherever
//     the batch fragments live (Random);
//   - update batches are located like views: partitioned on the
//     best-ranked column of their table when its rank is >= 2, and
//     Random otherwise. Workers ingest the stream (Sec. 6.2) as fragments
//     keyed like the views they join, which Cluster.RunPartitionedTx
//     models by dealing each batch by its location: by dist.PlaceIndex on
//     the key, or round-robin when Random. So a trigger whose first step
//     joins its batch with a view on that key needs no repartition. The
//     deal key is the column a driver-placed batch's pre-aggregate keeps.
//
// Two static rules then override the ranks, reading only the O3
// programs compiled against them: a persistent view some statement
// reads is replicated instead of partitioned when its upkeep ships
// nothing new and the replicas save a stage, and a batch whose trigger
// only pre-aggregates it, keeping its deal key, is read at the driver
// (Local) when that costs no stage and no round trip. See Place.
func ChoosePartitioning(prog *compile.Program, keyRanks map[string]int) PartInfo {
	parts, _ := Place(prog, keyRanks)
	return parts
}

// Place returns ChoosePartitioning's placement together with the
// trigger programs compiled against it at O3, the ones CompileProgram
// returns for that placement, so a deployment compiles once.
//
// The rank heuristic places every view first. Then, in view order, a
// persistent view V it partitions, and some statement reads, is
// replicated when both hold:
//
//   - (a) every statement writing V reads nothing but V and relations
//     its own trigger's program already holds whole at the driver
//     (gathered there or scattered from there) and broadcasts whole,
//     so the driver mirror and the replicas fold copies already moved
//     and the upkeep ships nothing new;
//   - (b) recompiled with V replicated, the triggers reading or writing
//     V lose at least one stage between them and none gains one.
//
// The rule needs no statistics and recompiles only the triggers that
// touch a view passing (a). Over TPC-H it replicates five views, among
// them Q3's M2(c_custkey), the customers an order joins: an orders batch
// then joins it in place, and Q3's orders trigger runs in one stage, not
// three.
//
// Then a table's batch is placed at the driver (its delta Local) when
// every statement of its trigger reading the delta is a pre-aggregate
// keeping the deal key (preAggregatedOnDealKey), and its trigger,
// recompiled so, gains no stage and no round trip (RoundTrips). The
// driver evaluates the pre-aggregate over the caller's batch and deals
// the pre-aggregate, keyed on the deal key, instead of the raw rows. A
// group keeps the deal key, so it lands on the worker the raw rows
// would have, folded from the same rows in the same batch order: every
// result stays bitwise. Over TPC-H every Q3 batch is pre-aggregated at
// the driver, so a Q3 lineitem batch ships one (o_orderkey, revenue)
// row per order instead of twelve columns per line. Q1's and Q6's
// batches keep their deal, since their pre-aggregates drop the key.
func Place(prog *compile.Program, keyRanks map[string]int) (PartInfo, map[string]*DistProgram) {
	parts, read := rankPlacement(prog, keyRanks)
	schemas := ViewSchemas(prog)
	progs := make(map[string]*DistProgram, len(prog.Triggers))
	for rel, trg := range prog.Triggers {
		progs[rel] = compileTrigger(prog, schemas, trg, parts, O3)
	}
	for _, v := range prog.Views {
		if v.Transient || !read[v.Name] || !parts[v.Name].Keyed() || !upkeepMoved(prog, progs, v.Name) {
			continue
		}
		trial := parts.Clone()
		trial[v.Name] = Indiff
		if recompiled := fewerStages(prog, schemas, trial, progs, v.Name); recompiled != nil {
			parts[v.Name] = Indiff
			for _, dp := range progs {
				dp.Parts[v.Name] = Indiff
			}
			maps.Copy(progs, recompiled)
		}
	}
	for rel, trg := range prog.Triggers {
		delta := eval.DeltaName(rel)
		if !preAggregatedOnDealKey(prog, trg, parts[delta]) {
			continue
		}
		trial := parts.Clone()
		trial[delta] = Local
		dp := compileTrigger(prog, schemas, trg, trial, O3)
		if was := progs[rel]; dp.Stages() > was.Stages() || dp.RoundTrips() > was.RoundTrips() {
			continue
		}
		parts[delta] = Local
		progs[rel] = dp
		for _, dp := range progs {
			dp.Parts[delta] = Local
		}
	}
	return parts, progs
}

// rankPlacement is the rank heuristic alone. It also reports the views
// some trigger statement reads.
func rankPlacement(prog *compile.Program, keyRanks map[string]int) (parts PartInfo, read map[string]bool) {
	read = make(map[string]bool, len(prog.Views))
	for _, tr := range prog.Triggers {
		for _, s := range tr.Stmts {
			for _, name := range expr.Relations(s.RHS, expr.RView) {
				read[name] = true
			}
		}
	}
	parts = make(PartInfo, len(prog.Views)+len(prog.Bases))
	for _, v := range prog.Views {
		loc := chooseViewLoc(v, keyRanks)
		if loc.Kind == LIndiff && !read[v.Name] {
			// A replica serves the statements that read it; with none,
			// the driver copy is the whole view.
			loc = Local
		}
		parts[v.Name] = loc
	}
	for name, schema := range prog.Bases {
		loc := Random
		if key, rank := bestKey(schema, keyRanks); rank >= 2 {
			loc = Dist(key)
		}
		parts[eval.DeltaName(name)] = loc
	}
	return parts, read
}

// preAggregatedOnDealKey reports whether every statement of trg that
// reads its delta, dealt on loc's key, is a pre-aggregate keeping that
// key: an assignment to a transient view that reads the delta alone and
// groups on the variables the delta binds to the key columns.
func preAggregatedOnDealKey(prog *compile.Program, trg *compile.Trigger, loc Loc) bool {
	if !loc.Keyed() {
		return false
	}
	delta := eval.DeltaName(trg.Relation)
	schema := prog.Bases[trg.Relation]
	found := false
	for _, s := range trg.Stmts {
		reads := (Stmt{RHS: s.RHS}).Reads()
		if !reads[delta] {
			continue
		}
		if v := prog.View(s.LHS); s.Op != eval.OpSet || v == nil || !v.Transient || len(reads) != 1 {
			return false
		}
		groups := s.RHS.Schema()
		kept := true
		expr.Walk(s.RHS, func(n expr.Expr) bool {
			if r, ok := n.(*expr.Rel); ok {
				for _, k := range loc.Key {
					p := schema.Index(k)
					kept = kept && p >= 0 && p < len(r.Cols) && groups.Contains(r.Cols[p])
				}
			}
			return kept
		})
		if !kept {
			return false
		}
		found = true
	}
	return found
}

// upkeepMoved is rule (a): every statement writing view reads only the
// view and relations its trigger's program holds whole at the driver and
// broadcasts whole.
func upkeepMoved(prog *compile.Program, progs map[string]*DistProgram, view string) bool {
	for rel, trg := range prog.Triggers {
		var whole map[string]bool
		for _, s := range trg.Stmts {
			if s.LHS != view {
				continue
			}
			if whole == nil {
				whole = broadcastWhole(progs[rel])
			}
			for name := range (Stmt{RHS: s.RHS}).Reads() {
				if name != view && !whole[name] {
					return false
				}
			}
		}
	}
	return true
}

// broadcastWhole returns the relations a program holds whole at the
// driver, gathered there or scattered from there, and broadcasts whole
// from that copy.
func broadcastWhole(dp *DistProgram) map[string]bool {
	copyOf := map[string]string{} // driver copy -> the relation it holds
	whole := map[string]bool{}
	for _, b := range dp.Blocks {
		for _, s := range b.Stmts {
			x, ok := s.RHS.(*Xform)
			if !ok {
				continue
			}
			r, ok := x.Body.(*expr.Rel)
			if !ok {
				continue
			}
			switch src := eval.RelEnvName(r); {
			case x.Kind == XGather:
				copyOf[s.LHS] = src
			case x.Kind == XScatter && len(x.Key) > 0:
				if copyOf[src] == "" {
					copyOf[src] = s.LHS
				}
			case x.Kind == XScatter && copyOf[src] != "":
				whole[copyOf[src]] = true
			}
		}
	}
	return whole
}

// fewerStages is rule (b): it recompiles, under trial, the triggers
// reading or writing view, and returns their programs when they lose a
// stage between them and none gains one, nil otherwise.
func fewerStages(prog *compile.Program, schemas map[string]mring.Schema, trial PartInfo, progs map[string]*DistProgram, view string) map[string]*DistProgram {
	out := map[string]*DistProgram{}
	saved := false
	for rel, trg := range prog.Triggers {
		if !touches(trg, view) {
			continue
		}
		dp := compileTrigger(prog, schemas, trg, trial, O3)
		switch was := progs[rel].Stages(); {
		case dp.Stages() > was:
			return nil
		case dp.Stages() < was:
			saved = true
		}
		out[rel] = dp
	}
	if !saved {
		return nil
	}
	return out
}

// touches reports whether a trigger's statements read or write view.
func touches(trg *compile.Trigger, view string) bool {
	for _, s := range trg.Stmts {
		if s.LHS == view || slices.Contains(expr.Relations(s.RHS, expr.RView), view) {
			return true
		}
	}
	return false
}

// bestKey returns the schema's highest-ranked column and its rank; the
// first column of that rank wins (schema order breaks ties). The rank is
// 0 when no column is ranked.
func bestKey(schema mring.Schema, keyRanks map[string]int) (string, int) {
	best, bestRank := "", 0
	for _, col := range schema {
		if r := keyRanks[col]; r > bestRank {
			best, bestRank = col, r
		}
	}
	return best, bestRank
}

// PlaceIndex is the platform's placement function: the worker index
// owning tuple t under the partition-key columns at keyPos, for n
// workers. It is the single definition shared by the shuffle
// transformers and the warm-start initial load, so data loaded before
// streaming lands exactly where repartitioned data would.
func PlaceIndex(t mring.Tuple, keyPos []int, n int) int {
	return int(t.HashCols(keyPos) % uint64(n))
}

func chooseViewLoc(v *compile.ViewDef, keyRanks map[string]int) Loc {
	if len(v.Schema) == 0 {
		if v.Transient {
			return Random
		}
		return Local
	}
	// The best-ranked column decides distribute-vs-replicate.
	best, bestRank := bestKey(v.Schema, keyRanks)
	if bestRank >= 2 {
		return Dist(best)
	}
	if v.Transient {
		// Per-batch delta aggregates: leave them co-located with the
		// batch fragments that produced them.
		return Random
	}
	// Only low-cardinality dimension keys (or none at all): replicate.
	return Indiff
}
