// Package compile implements recursive incremental view maintenance
// (Sec. 2.2): given a query, it materializes the top-level view together
// with the hierarchy of auxiliary views that support each other's
// maintenance, and emits one trigger program per updated base relation.
// Statements inside a trigger maintain views in decreasing order of
// complexity (higher-order deltas read lower-order views pre-update).
package compile

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
)

// Options control compilation.
type Options struct {
	// DomainExtraction enables the Fig. 1 rewrite for nested aggregates.
	DomainExtraction bool
	// PreAggregate inserts batch pre-aggregation statements (Sec. 3.3):
	// input batches are filtered on static conditions shared by all
	// statements and projected onto the columns actually used.
	PreAggregate bool
	// ReEvalUncorrelated switches a trigger to re-evaluation when the
	// extracted nested domain binds no equality-correlated variable
	// (the paper's Sec. 3.2.3 policy, Example 3.3).
	ReEvalUncorrelated bool
}

// DefaultOptions is the configuration used by the paper's main experiments.
func DefaultOptions() Options {
	return Options{DomainExtraction: true, PreAggregate: true, ReEvalUncorrelated: true}
}

// ViewDef declares one materialized view.
type ViewDef struct {
	Name   string
	Schema mring.Schema
	// Def is the view definition over base relations (used for initial
	// loads, debugging, and re-evaluation baselines).
	Def expr.Expr
	// Transient marks per-batch scratch views (pre-aggregated deltas)
	// that are recomputed from scratch on every batch.
	Transient bool
	// creation is the registration index; it breaks complexity ties in
	// statement ordering.
	creation int
}

// Degree is the view complexity: the number of base relations referenced
// by its definition (Sec. 3.2's notion of query degree).
func (v *ViewDef) Degree() int { return expr.Degree(v.Def) }

// Stmt is one trigger statement: LHS op= RHS. Executors dispatch on the
// RHS shape: a top-level aggregate (every pre-aggregation statement, and
// most maintenance statements) evaluates into a hash-native group table
// and folds into the target view; anything else materializes a scratch
// relation and merges.
type Stmt struct {
	LHS string
	Op  eval.AssignOp
	RHS expr.Expr
}

func (s Stmt) String() string {
	return fmt.Sprintf("%s %s %s", s.LHS, s.Op, s.RHS)
}

// Trigger is the maintenance program for one updated base relation.
type Trigger struct {
	Relation string
	Stmts    []Stmt
}

func (t *Trigger) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ON UPDATE %s BY Δ%s\n", t.Relation, t.Relation)
	for _, s := range t.Stmts {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	return b.String()
}

// Program is a compiled incremental maintenance program.
type Program struct {
	QueryName string
	// Query is the original definition over base relations.
	Query expr.Expr
	// Bases lists the base relation schemas.
	Bases map[string]mring.Schema
	// Views holds every materialized view, including the top-level view
	// (first entry, named QueryName).
	Views []*ViewDef
	// Triggers maps base relation name to its maintenance trigger.
	Triggers map[string]*Trigger
	// Indexes lists the secondary indexes the program's slice access
	// paths probe (see accesspath.go); executors register them up front.
	Indexes []IndexSpec
	// Opts records the compilation options.
	Opts Options
	// plans holds the prepared plans of the trees an executor runs
	// (executedTrees), lowered once at compile time and shared by every
	// executor of the program.
	plans eval.Plans
}

// View returns the view definition by name, or nil.
func (p *Program) View(name string) *ViewDef {
	for _, v := range p.Views {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// TopView returns the top-level view (the query result).
func (p *Program) TopView() *ViewDef { return p.Views[0] }

func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PROGRAM %s\n", p.QueryName)
	for _, v := range p.Views {
		tag := ""
		if v.Transient {
			tag = " (transient)"
		}
		fmt.Fprintf(&b, "VIEW %s(%s)%s := %s\n", v.Name, strings.Join(v.Schema, ","), tag, v.Def)
	}
	names := make([]string, 0, len(p.Triggers))
	for n := range p.Triggers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.WriteString(p.Triggers[n].String())
	}
	return b.String()
}

// StatementsReading returns the names of views read by the statement RHS.
func StatementsReading(s Stmt) []string {
	return expr.Relations(s.RHS, expr.RView)
}
