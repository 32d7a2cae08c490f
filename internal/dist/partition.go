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
//     joins its batch with a view on that key needs no repartition.
//
// One static rule then overrides the ranks, reading only the O3
// programs compiled against them: a persistent view some statement
// reads is replicated instead of partitioned when its upkeep ships
// nothing new and the replicas save a stage. See Place.
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
//     its own trigger's program already gathers and broadcasts whole,
//     so the driver mirror and the replicas fold copies already moved
//     and the upkeep ships nothing new;
//   - (b) recompiled with V replicated, the triggers reading or writing
//     V lose at least one stage between them and none gains one.
//
// The rule needs no statistics and recompiles only the triggers that
// touch a view passing (a). Over TPC-H it replicates four views, among
// them Q3's M2(c_custkey), the customers an order joins: an orders batch
// then joins it in place, and Q3's orders trigger runs in one stage, not
// three.
func Place(prog *compile.Program, keyRanks map[string]int) (PartInfo, map[string]*DistProgram) {
	parts, read := rankPlacement(prog, keyRanks)
	progs := CompileProgram(prog, parts, O3)
	for _, v := range prog.Views {
		if v.Transient || !read[v.Name] || !parts[v.Name].Keyed() || !upkeepMoved(prog, progs, v.Name) {
			continue
		}
		trial := parts.Clone()
		trial[v.Name] = Indiff
		if recompiled := fewerStages(prog, trial, progs, v.Name); recompiled != nil {
			parts[v.Name] = Indiff
			for _, dp := range progs {
				dp.Parts[v.Name] = Indiff
			}
			maps.Copy(progs, recompiled)
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

// upkeepMoved is rule (a): every statement writing view reads only the
// view and relations its trigger's program gathers and broadcasts whole.
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

// broadcastWhole returns the relations a program gathers at the driver
// and broadcasts whole from there.
func broadcastWhole(dp *DistProgram) map[string]bool {
	gathered := map[string]string{} // driver copy -> source
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
				gathered[s.LHS] = src
			case x.Kind == XScatter && len(x.Key) == 0 && gathered[src] != "":
				whole[gathered[src]] = true
			}
		}
	}
	return whole
}

// fewerStages is rule (b): it recompiles, under trial, the triggers
// reading or writing view, and returns their programs when they lose a
// stage between them and none gains one, nil otherwise.
func fewerStages(prog *compile.Program, trial PartInfo, progs map[string]*DistProgram, view string) map[string]*DistProgram {
	out := map[string]*DistProgram{}
	saved := false
	for rel, trg := range prog.Triggers {
		if !touches(trg, view) {
			continue
		}
		dp := compileTrigger(prog, trg, trial, O3)
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
