package dist

import (
	"fmt"
	"maps"
	"strings"

	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
)

// LocKind classifies where data (or computation) lives on the
// driver/worker platform.
type LocKind uint8

// Location kinds. LLocal and LDist double as statement-block modes: a
// block tagged LLocal runs at the driver, a block tagged LDist is one
// stage run by every worker.
const (
	// LLocal places data at the driver.
	LLocal LocKind = iota
	// LDist spreads data over the workers, hash-partitioned by Loc.Key
	// when a key is present and with no placement invariant otherwise.
	LDist
	// LIndiff marks location-indifferent data: replicated on every
	// worker (and mirrored at the driver), so any node can read it.
	LIndiff
)

func (k LocKind) String() string {
	switch k {
	case LLocal:
		return "local"
	case LDist:
		return "dist"
	default:
		return "indiff"
	}
}

// Loc is one partitioning specification: a location kind plus the
// partition key columns for keyed distributed placement.
type Loc struct {
	Kind LocKind
	// Key holds the partition key columns (names in the view's schema).
	// Empty for local, replicated, and randomly partitioned data.
	Key mring.Schema
}

// Partitioning specs.
var (
	// Local keeps a view at the driver.
	Local = Loc{Kind: LLocal}
	// Random distributes a view with no partitioning invariant: its
	// fragments live wherever they were produced (e.g. update batches
	// ingested directly by the workers, Sec. 6.2).
	Random = Loc{Kind: LDist}
	// Indiff replicates a view on every worker (location-indifferent
	// data, typically small dimension views).
	Indiff = Loc{Kind: LIndiff}
)

// Dist distributes a view hash-partitioned by the given key columns.
func Dist(key ...string) Loc {
	return Loc{Kind: LDist, Key: mring.Schema(key).Clone()}
}

func (l Loc) String() string {
	if l.Kind == LDist && len(l.Key) > 0 {
		return fmt.Sprintf("dist[%s]", strings.Join(l.Key, ","))
	}
	if l.Kind == LDist {
		return "random"
	}
	return l.Kind.String()
}

// Keyed reports whether the location is distributed with a partition key.
func (l Loc) Keyed() bool { return l.Kind == LDist && len(l.Key) > 0 }

// Equal reports whether two locations place data identically (same kind
// and same partition key columns in order).
func (l Loc) Equal(o Loc) bool {
	return l.Kind == o.Kind && l.Key.Equal(o.Key)
}

// Equal reports whether two placement maps locate every relation
// identically — the "did repartitioning actually change anything" test.
func (p PartInfo) Equal(o PartInfo) bool { return maps.EqualFunc(p, o, Loc.Equal) }

// PartInfo maps relation names (views, transient views, and delta
// batches under their Δ-names) to their locations.
type PartInfo map[string]Loc

// Clone copies the map.
func (p PartInfo) Clone() PartInfo {
	c := make(PartInfo, len(p))
	maps.Copy(c, p)
	return c
}

// XformKind enumerates the data-movement transformers of Sec. 4.3.
type XformKind uint8

// Transformer kinds.
const (
	// XGather collects all worker fragments of the body at the driver.
	XGather XformKind = iota
	// XScatter moves the driver copy of the body to the workers:
	// hash-partitioned by Key, or replicated to every worker when Key is
	// empty (broadcast).
	XScatter
	// XRepart exchanges worker fragments so the result is partitioned by
	// Key (worker-to-worker repartitioning).
	XRepart
)

func (k XformKind) String() string {
	switch k {
	case XScatter:
		return "SCATTER"
	case XRepart:
		return "REPART"
	default:
		return "GATHER"
	}
}

// Xform is a data-movement transformer statement RHS. It implements
// expr.Expr so transformer and compute statements share one statement
// type, but it is never evaluated by the expression evaluator: the
// cluster runtime intercepts it and performs the movement.
type Xform struct {
	Kind XformKind
	// Key holds the partition key columns for scatter/repartition,
	// resolved against the body's column names. Empty scatter key means
	// broadcast.
	Key mring.Schema
	// Body is the moved relation; compiled programs always use a plain
	// relation reference here.
	Body expr.Expr
}

// Schema implements expr.Expr.
func (x *Xform) Schema() mring.Schema { return x.Body.Schema() }

// Clone implements expr.Expr.
func (x *Xform) Clone() expr.Expr {
	return &Xform{Kind: x.Kind, Key: x.Key.Clone(), Body: x.Body.Clone()}
}

func (x *Xform) String() string {
	if len(x.Key) > 0 {
		return fmt.Sprintf("%s[%s](%s)", x.Kind, strings.Join(x.Key, ","), x.Body)
	}
	if x.Kind == XScatter {
		return fmt.Sprintf("BROADCAST(%s)", x.Body)
	}
	return fmt.Sprintf("%s(%s)", x.Kind, x.Body)
}

// Stmt is one statement of a distributed program: LHS op= RHS, where RHS
// is either a compute expression or an Xform transformer.
type Stmt struct {
	LHS string
	Op  eval.AssignOp
	RHS expr.Expr
}

func (s Stmt) String() string {
	return fmt.Sprintf("%s %s %s", s.LHS, s.Op, s.RHS)
}

// Reads returns the environment names a statement reads (descending
// into transformer bodies).
func (s Stmt) Reads() map[string]bool {
	reads := map[string]bool{}
	s.addReads(reads)
	return reads
}

// addReads adds the relations the statement reads to reads.
func (s Stmt) addReads(reads map[string]bool) {
	body := s.RHS
	if x, ok := body.(*Xform); ok {
		body = x.Body
	}
	expr.Walk(body, func(n expr.Expr) bool {
		if r, ok := n.(*expr.Rel); ok {
			reads[eval.RelEnvName(r)] = true
		}
		return true
	})
}

// IsXform reports whether the statement is a data-movement transformer.
func (s Stmt) IsXform() bool {
	_, ok := s.RHS.(*Xform)
	return ok
}

// Block is a maximal run of statements with one execution mode: LLocal
// blocks run at the driver (transformer statements inside them trigger
// data movement), LDist blocks are stages executed by all workers.
type Block struct {
	Mode  LocKind
	Stmts []Stmt
}

func (b Block) String() string {
	var sb strings.Builder
	mode := "LOCAL"
	if b.Mode == LDist {
		mode = "DIST"
	}
	fmt.Fprintf(&sb, "%s {\n", mode)
	for _, s := range b.Stmts {
		fmt.Fprintf(&sb, "  %s\n", s)
	}
	sb.WriteString("}")
	return sb.String()
}

// OptLevel selects the distributed-compilation optimization level.
type OptLevel int

// Optimization levels (Fig. 13's ablation).
const (
	// O0 is the naive strategy: every compute statement runs at the
	// driver; distributed inputs are gathered per statement and results
	// are scattered back to their canonical locations.
	O0 OptLevel = iota
	// O1 adds locality-aware transformer insertion: statements run where
	// their data lives, with scatter/repartition/broadcast movement only
	// for inputs that break co-partitioning.
	O1
	// O2 adds redundant-transformer elimination: identical movements of
	// unchanged data within a trigger are performed once and reused.
	O2
	// O3 adds block fusion (App. C.3): statements are reordered within
	// data dependencies to merge adjacent same-mode blocks, cutting
	// synchronization barriers.
	O3
)

// DistProgram is the distributed program for one transaction's updated
// base relations: the sequence of statement blocks the platform executes
// per transaction. A trigger's program updates one relation; FuseTx fuses
// the programs of a transaction's tables into one.
type DistProgram struct {
	// Relations are the updated base relations (the trigger's ON UPDATE),
	// in the order the transaction first touches them.
	Relations []string
	// Level records the optimization level the program was compiled at.
	Level OptLevel
	// Blocks is the executed block sequence.
	Blocks []Block
	// Parts locates every relation the program touches: the canonical
	// view locations plus the movement temporaries.
	Parts PartInfo
	// Schemas holds the schema of every relation the program may read or
	// write: every view of the compiled program, the Δ batches under
	// their Δ-names, and this program's movement temporaries.
	Schemas map[string]mring.Schema
}

// Stages counts the distributed stages (LDist blocks): each is one
// synchronous round of parallel worker execution.
func (p *DistProgram) Stages() int {
	n := 0
	for _, b := range p.Blocks {
		if b.Mode == LDist {
			n++
		}
	}
	return n
}

// Jobs counts the driver-side action rounds: local blocks that collect
// distributed results (contain a gather). A program with distributed
// stages but no collect still forms one job.
func (p *DistProgram) Jobs() int {
	n := 0
	for _, b := range p.Blocks {
		if b.Mode == LDist {
			continue
		}
		for _, s := range b.Stmts {
			if x, ok := s.RHS.(*Xform); ok && x.Kind == XGather {
				n++
				break
			}
		}
	}
	if n == 0 && p.Stages() > 0 {
		return 1
	}
	return n
}

// RoundTrips counts the requests each worker serves for one run of the
// program, as the cluster driver schedules them: one step per
// distributed block, carrying the installs of the driver statements
// before it, while the worker reads of driver statements ride the last
// step's response. A read finds no response to ride before the first
// step, nor one that could hold a target installed since the last step,
// unless the driver routed that target's pieces itself (a repartition):
// it then costs a transfer-only step. Installs queued after the last
// step cost a closing one.
func (p *DistProgram) RoundTrips() int {
	steps := 0
	open, queued := false, false
	// installed holds the targets installed since the last step, true
	// for a repartition's.
	installed := map[string]bool{}
	step := func() {
		steps++
		open, queued = true, false
		clear(installed)
	}
	for _, b := range p.Blocks {
		if b.Mode == LDist {
			step()
			continue
		}
		for _, s := range b.Stmts {
			x, ok := s.RHS.(*Xform)
			if !ok {
				continue
			}
			if x.Kind != XScatter {
				routed, inst := installed[eval.RelEnvName(x.Body.(*expr.Rel))]
				if !routed && (!open || inst) {
					step()
				}
			}
			if x.Kind != XGather {
				installed[s.LHS] = x.Kind == XRepart
				queued = true
			}
		}
	}
	if queued {
		steps++
	}
	return steps
}

// CommStmts counts the transformer statements (communication rounds
// before fusion batches them).
func (p *DistProgram) CommStmts() int {
	n := 0
	for _, b := range p.Blocks {
		for _, s := range b.Stmts {
			if s.IsXform() {
				n++
			}
		}
	}
	return n
}

func (p *DistProgram) String() string {
	var sb strings.Builder
	deltas := make([]string, len(p.Relations))
	for i, rel := range p.Relations {
		deltas[i] = eval.DeltaName(rel)
	}
	fmt.Fprintf(&sb, "ON UPDATE %s BY %s (O%d)\n", strings.Join(p.Relations, ", "), strings.Join(deltas, ", "), p.Level)
	for _, b := range p.Blocks {
		sb.WriteString(b.String())
		sb.WriteString("\n")
	}
	return sb.String()
}
