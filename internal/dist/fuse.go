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
// Dependencies are kept per copy: the driver's copy of a relation and
// the workers' copies are distinct relations, such as a replicated view's
// driver mirror and its replicas. A compute statement reads and writes
// the copies of the node its block runs on, a scatter reads the driver's
// copy and writes the workers', a gather reads the workers' and writes
// the driver's, and a repartition reads and writes the workers'.
//
// The input is not mutated; the fused sequence shares the statement
// values.
func FuseBlocks(blocks []Block) []Block {
	type node struct {
		mode   LocKind
		stmt   Stmt
		from   LocKind         // the copies the statement reads
		reads  map[string]bool // on from
		writes copyRef
	}
	var nodes []*node
	for _, b := range blocks {
		for _, s := range b.Stmts {
			from, to := b.Mode, b.Mode
			if x, ok := s.RHS.(*Xform); ok {
				from, to = LDist, LDist
				switch x.Kind {
				case XScatter:
					from = LLocal
				case XGather:
					to = LLocal
				}
			}
			nodes = append(nodes, &node{mode: b.Mode, stmt: s, from: from, reads: s.Reads(), writes: copyRef{to, s.LHS}})
		}
	}
	if len(nodes) == 0 {
		return nil
	}

	// deps[j] holds the indices that must execute before j: any earlier
	// statement with a read/write, write/read, or write/write conflict on
	// one copy.
	deps := make([][]int, len(nodes))
	reads := func(n *node, c copyRef) bool { return n.from == c.on && n.reads[c.name] }
	for j, nj := range nodes {
		for i := 0; i < j; i++ {
			ni := nodes[i]
			if ni.writes == nj.writes || reads(nj, ni.writes) || reads(ni, nj.writes) {
				deps[j] = append(deps[j], i)
			}
		}
	}

	// Greedy list scheduling: emit every ready statement of the current
	// mode (in original order, cascading as emissions unblock more), then
	// switch modes. This merges all mergeable same-mode blocks while
	// preserving every dependency.
	//
	// Three schedules compete, and the one costing the fewest round trips
	// (RoundTrips), then the fewest stages, wins, the first on a tie: one
	// opening in the first statement's mode, one opening in the other, and
	// one opening at the driver that leaves the worker reads (gathers and
	// repartitions) of its opening block to the next driver block. Such a
	// read finds no step's response to ride, so it costs a step of its
	// own. A transaction fusing a trigger that opens at the driver with
	// one that opens on the workers thus runs both openings in one step.
	schedule := func(mode LocKind, deferReads bool) []Block {
		scheduled := make([]bool, len(nodes))
		remaining := len(nodes)
		opening := true
		ready := func(j int) bool {
			if scheduled[j] || deferReads && opening && readsWorkers(nodes[j].stmt) {
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
		for ; remaining > 0; opening = false {
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
			mode = other(mode)
		}
		return out
	}
	var best *DistProgram
	bestTrips := 0
	for _, c := range []struct {
		mode       LocKind
		deferReads bool
	}{{nodes[0].mode, false}, {other(nodes[0].mode), false}, {LLocal, true}} {
		p := &DistProgram{Blocks: schedule(c.mode, c.deferReads)}
		if trips := p.RoundTrips(); best == nil || trips < bestTrips || trips == bestTrips && p.Stages() < best.Stages() {
			best, bestTrips = p, trips
		}
	}
	return best.Blocks
}

// copyRef names one copy of a relation: the driver's (LLocal) or the
// workers' (LDist).
type copyRef struct {
	on   LocKind
	name string
}

// readsWorkers reports whether a statement is a worker read: a gather or
// a repartition.
func readsWorkers(s Stmt) bool {
	x, ok := s.RHS.(*Xform)
	return ok && x.Kind != XScatter
}

// other returns the block mode that is not mode.
func other(mode LocKind) LocKind {
	if mode == LLocal {
		return LDist
	}
	return LLocal
}

// FuseTx makes one program of a transaction: the programs of its tables,
// in the order the transaction first touches them, concatenated and — at
// O3 — fused by FuseBlocks across the tables. Fusion keeps every
// read/write and write/write order on each copy, so every copy of every
// relation sees the same sequence of folds as when the programs run one after another, and the
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
