package dist

import (
	"maps"

	"repro/internal/mring"
)

// FuseBlocks is the block-fusion pass of App. C.3 (the O3 optimization):
// it reorders statements within their data dependencies to merge blocks
// of the same execution mode, minimizing the number of synchronization
// barriers (every distributed block is one scheduling round; every local
// block with transformers is one communication round).
//
// The input is not mutated; the fused sequence shares the statement
// values.
func FuseBlocks(blocks []Block) []Block {
	type node struct {
		mode   LocKind
		stmt   Stmt
		reads  map[string]bool
		writes string
	}
	var nodes []*node
	for _, b := range blocks {
		for _, s := range b.Stmts {
			n := &node{mode: b.Mode, stmt: s, reads: s.Reads(), writes: s.LHS}
			nodes = append(nodes, n)
		}
	}
	if len(nodes) == 0 {
		return nil
	}

	// deps[j] holds the indices that must execute before j: any earlier
	// statement with a read/write, write/read, or write/write conflict.
	deps := make([][]int, len(nodes))
	for j, nj := range nodes {
		for i := 0; i < j; i++ {
			ni := nodes[i]
			if ni.writes == nj.writes || nj.reads[ni.writes] || ni.reads[nj.writes] {
				deps[j] = append(deps[j], i)
			}
		}
	}

	// Greedy list scheduling: emit every ready statement of the current
	// mode (in original order, cascading as emissions unblock more), then
	// switch modes. This merges all mergeable same-mode blocks while
	// preserving every dependency.
	scheduled := make([]bool, len(nodes))
	remaining := len(nodes)
	ready := func(j int) bool {
		if scheduled[j] {
			return false
		}
		for _, d := range deps[j] {
			if !scheduled[d] {
				return false
			}
		}
		return true
	}
	var out []Block
	mode := nodes[0].mode
	for remaining > 0 {
		var cur []Stmt
		for progress := true; progress; {
			progress = false
			for j, n := range nodes {
				if n.mode == mode && ready(j) {
					cur = append(cur, n.stmt)
					scheduled[j] = true
					remaining--
					progress = true
				}
			}
		}
		if len(cur) > 0 {
			out = append(out, Block{Mode: mode, Stmts: cur})
		}
		if mode == LLocal {
			mode = LDist
		} else {
			mode = LLocal
		}
	}
	return out
}

// FuseTx makes one program of a transaction: the programs of its tables,
// in the order the transaction first touches them, concatenated and — at
// O3 — fused by FuseBlocks across the tables. Fusion keeps every
// read/write and write/write order, so every relation sees the same
// sequence of folds as when the programs run one after another, and the
// result is theirs bitwise. A one-table transaction's program is its
// trigger's.
func FuseTx(progs []*DistProgram) *DistProgram {
	if len(progs) == 1 {
		return progs[0]
	}
	out := &DistProgram{Level: progs[0].Level, Parts: PartInfo{}, Schemas: map[string]mring.Schema{}}
	for _, p := range progs {
		out.Relations = append(out.Relations, p.Relations...)
		out.Blocks = append(out.Blocks, p.Blocks...)
		maps.Copy(out.Parts, p.Parts)
		maps.Copy(out.Schemas, p.Schemas)
	}
	if out.Level >= O3 {
		out.Blocks = FuseBlocks(out.Blocks)
	}
	return out
}
