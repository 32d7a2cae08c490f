package dist

import (
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
func ChoosePartitioning(prog *compile.Program, keyRanks map[string]int) PartInfo {
	read := make(map[string]bool, len(prog.Views))
	for _, tr := range prog.Triggers {
		for _, s := range tr.Stmts {
			for _, name := range expr.Relations(s.RHS, expr.RView) {
				read[name] = true
			}
		}
	}
	parts := make(PartInfo, len(prog.Views)+len(prog.Bases))
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
	return parts
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
