package compile

import (
	"fmt"
	"slices"

	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
)

// preAggregate inserts batch pre-aggregation statements at the head of
// the trigger (Sec. 3.3): the input batch ΔR is filtered on static
// conditions shared by every statement and projected onto the columns the
// trigger actually uses, merging multiplicities. Statements are rewritten
// to reference the pre-aggregated transient views.
//
// A value term every reader multiplies the delta by moves in too
// (sharedValueTerm), so the batch merges on the remaining columns and
// the term is evaluated once per batch tuple instead of once per reader.
//
// Self-joins and nested subqueries reference ΔR under several column
// bindings (aliases); each alias gets its own pre-aggregation, since each
// may use different columns (this is where the paper's Q17/Q18/Q20-class
// wins come from: the nested-side alias projects onto a tiny key set).
// An alias is skipped when pre-aggregation cannot shrink it: no absorbed
// condition or value term and all columns used.
func (c *compiler) preAggregate(prog *Program, t *Trigger) {
	if len(t.Stmts) == 0 {
		return
	}
	rel := t.Relation

	// Group delta references by alias (their column binding).
	var aliases []mring.Schema
	seen := map[string]bool{}
	for _, s := range t.Stmts {
		expr.Walk(s.RHS, func(n expr.Expr) bool {
			if r, ok := n.(*expr.Rel); ok && r.Kind == expr.RDelta && r.Name == rel {
				k := ""
				for _, col := range r.Cols {
					k += col + "\x00"
				}
				if !seen[k] {
					seen[k] = true
					aliases = append(aliases, r.Cols.Clone())
				}
			}
			return true
		})
	}
	for ai, alias := range aliases {
		c.preAggregateAlias(prog, t, alias, ai)
	}
}

func (c *compiler) preAggregateAlias(prog *Program, t *Trigger, alias mring.Schema, idx int) {
	rel := t.Relation
	if !slices.ContainsFunc(t.Stmts, func(s Stmt) bool { return refsAlias(s.RHS, rel, alias) }) {
		return
	}
	// Static conditions over this alias's columns shared by every
	// statement referencing the alias, and the value term they all
	// multiply by; they move into the pre-aggregation, so strip them
	// before computing used columns.
	var absorbed []expr.Expr
	for _, cmp := range sharedStaticConditions(t.Stmts, rel, alias) {
		absorbed = append(absorbed, cmp)
	}
	stripped, used := c.stripReaders(t.Stmts, rel, alias, absorbed)
	if v := sharedValueTerm(t.Stmts, rel, alias); v != nil {
		// Fold the term only if a group column remains: a pre-aggregate
		// with none is read by a lookup per batch even when it is empty,
		// which costs more than the term's evaluation it saves (Q6).
		folded := append(slices.Clip(absorbed), v)
		if fs, fu := c.stripReaders(t.Stmts, rel, alias, folded); len(fu) > 0 {
			absorbed, stripped, used = folded, fs, fu
		}
	}
	if len(absorbed) == 0 && len(used) == len(alias) {
		return // nothing to gain
	}

	name := fmt.Sprintf("%s_%s_DELTA", prog.QueryName, rel)
	if idx > 0 {
		name = fmt.Sprintf("%s_%s_DELTA_%d", prog.QueryName, rel, idx)
	}
	if _, exists := c.views[name]; exists {
		return
	}
	parts := []expr.Expr{expr.Delta(rel, alias...)}
	for _, f := range absorbed {
		parts = append(parts, f.Clone())
	}
	def := expr.Simplify(expr.Sum(used, expr.Join(parts...)))
	v := c.registerView(name, used, def)
	v.Transient = true
	prog.Views = c.order

	// The pre-aggregation is an OpSet of an aggregate over the delta, so
	// the executor evaluates it into a reused scratch relation (one
	// streaming hash probe per batch tuple) and fills the cleared
	// transient view with the scratch's stored hashes, without lookups —
	// no string keys on the per-batch path.
	preaggStmt := Stmt{LHS: name, Op: eval.OpSet, RHS: def}
	for i := range t.Stmts {
		t.Stmts[i].RHS = substituteDelta(stripped[i], rel, alias, name, used)
	}
	t.Stmts = append([]Stmt{preaggStmt}, t.Stmts...)
}

// stripReaders strips the absorbed factors from every statement that
// reads the alias and returns the statements with the alias columns they
// still use.
func (c *compiler) stripReaders(stmts []Stmt, rel string, alias mring.Schema, absorbed []expr.Expr) ([]expr.Expr, mring.Schema) {
	stripped := make([]expr.Expr, len(stmts))
	used := mring.Schema{}
	for i, s := range stmts {
		stripped[i] = s.RHS
		if !refsAlias(s.RHS, rel, alias) {
			continue
		}
		stripped[i] = stripAbsorbed(s.RHS, rel, alias, absorbed)
		vars := statementVars(Stmt{LHS: s.LHS, RHS: stripped[i]}, c.views, rel, alias)
		used = used.Union(alias.Intersect(vars))
	}
	return stripped, used
}

// refsAlias reports whether e references ΔR under the given alias.
func refsAlias(e expr.Expr, rel string, alias mring.Schema) bool {
	found := false
	expr.Walk(e, func(n expr.Expr) bool {
		found = found || isAliasDelta(n, rel, alias)
		return !found
	})
	return found
}

// statementVars collects every variable referenced by the statement's RHS
// outside the target alias's delta terms, plus the LHS view schema.
// References to other aliases count: their columns are bound variables of
// the statement.
func statementVars(s Stmt, views map[string]*ViewDef, rel string, alias mring.Schema) mring.Schema {
	vars := mring.Schema{}
	if v, ok := views[s.LHS]; ok {
		vars = vars.Union(v.Schema)
	}
	expr.Walk(s.RHS, func(n expr.Expr) bool {
		switch x := n.(type) {
		case *expr.Rel:
			if isAliasDelta(x, rel, alias) {
				return true
			}
			vars = vars.Union(x.Cols)
		case *expr.Cmp:
			vars = vars.Union(varsOfVExpr(x.L, x.R))
		case *expr.Val:
			vars = vars.Union(varsOfVExpr(x.E))
		case *expr.Assign:
			if x.ValE != nil {
				vars = vars.Union(varsOfVExpr(x.ValE))
			}
			vars = vars.Union(mring.Schema{x.Var})
		case *expr.Agg:
			vars = vars.Union(x.GroupBy)
		}
		return true
	})
	return vars
}

// sharedStaticConditions returns the comparison factors whose variables
// are all alias columns and which occur in every statement referencing
// the alias.
func sharedStaticConditions(stmts []Stmt, rel string, alias mring.Schema) []*expr.Cmp {
	var shared []*expr.Cmp
	first := true
	for _, s := range stmts {
		if !refsAlias(s.RHS, rel, alias) {
			continue
		}
		conds := staticConditions(s.RHS, rel, alias)
		if first {
			shared = conds
			first = false
			continue
		}
		var keep []*expr.Cmp
		for _, c := range shared {
			for _, d := range conds {
				if c.String() == d.String() {
					keep = append(keep, c)
					break
				}
			}
		}
		shared = keep
	}
	return shared
}

// staticConditions finds Cmp factors in products that also contain the
// alias's delta term, whose variables are all alias columns.
func staticConditions(e expr.Expr, rel string, alias mring.Schema) []*expr.Cmp {
	var out []*expr.Cmp
	expr.Walk(e, func(n expr.Expr) bool {
		m, ok := n.(*expr.Mul)
		if !ok {
			return true
		}
		hasDelta := false
		for _, f := range m.Factors {
			if isAliasDelta(f, rel, alias) {
				hasDelta = true
			}
		}
		if !hasDelta {
			return true
		}
		for _, f := range m.Factors {
			if c, ok := f.(*expr.Cmp); ok {
				vars := varsOfVExpr(c.L, c.R)
				if len(vars) > 0 && len(vars.Intersect(alias)) == len(vars) {
					out = append(out, c)
				}
			}
		}
		return true
	})
	return out
}

// sharedValueTerm returns the value term that every product holding the
// alias's ΔR term multiplies by, in every statement that reads the alias,
// or nil. The term must be one *expr.Val over alias columns, a factor of
// each such product exactly once, and each product must hold ΔR once and
// be reached from its statement root through Plus, Agg and Mul only:
// under Exists or a lift the delta's multiplicity is not summed as Σ m·v.
// Each reader then sums Σ m·v over a group of the remaining columns, so
// the term folds into the pre-aggregate exactly.
func sharedValueTerm(stmts []Stmt, rel string, alias mring.Schema) *expr.Val {
	var term *expr.Val
	ok := true
	var rec func(expr.Expr)
	rec = func(n expr.Expr) {
		switch x := n.(type) {
		case *expr.Plus:
			for _, t := range x.Terms {
				rec(t)
			}
		case *expr.Agg:
			rec(x.Body)
		case *expr.Mul:
			deltas := 0
			var vals []*expr.Val
			var rest []expr.Expr
			for _, f := range x.Factors {
				if isAliasDelta(f, rel, alias) {
					deltas++
				} else if v, isVal := f.(*expr.Val); isVal && overAlias(v, alias) {
					vals = append(vals, v)
				} else {
					rest = append(rest, f)
				}
			}
			if deltas > 0 {
				if deltas > 1 || len(vals) != 1 || term != nil && term.String() != vals[0].String() {
					ok = false
					return
				}
				term = vals[0]
			}
			for _, f := range rest {
				rec(f)
			}
		default:
			if refsAlias(n, rel, alias) {
				ok = false // ΔR outside a product, or under Exists or a lift
			}
		}
	}
	for _, s := range stmts {
		rec(s.RHS)
	}
	if !ok {
		return nil
	}
	return term
}

// isAliasDelta reports whether e is the alias's ΔR term.
func isAliasDelta(e expr.Expr, rel string, alias mring.Schema) bool {
	r, ok := e.(*expr.Rel)
	return ok && r.Kind == expr.RDelta && r.Name == rel && r.Cols.Equal(alias)
}

// overAlias reports whether v reads alias columns and nothing else.
func overAlias(v *expr.Val, alias mring.Schema) bool {
	vars := varsOfVExpr(v.E)
	return len(vars) > 0 && len(vars.Intersect(alias)) == len(vars)
}

// stripAbsorbed removes, top-down, the absorbed factors (static
// conditions and the value term) from every product that contains the
// alias's ΔR term at its top level.
func stripAbsorbed(e expr.Expr, rel string, alias mring.Schema, absorbed []expr.Expr) expr.Expr {
	if len(absorbed) == 0 {
		return e
	}
	isAbsorbed := func(f expr.Expr) bool {
		for _, a := range absorbed {
			if a.String() == f.String() {
				return true
			}
		}
		return false
	}
	var rec func(expr.Expr) expr.Expr
	rec = func(n expr.Expr) expr.Expr {
		switch x := n.(type) {
		case *expr.Mul:
			hasDelta := false
			for _, f := range x.Factors {
				if isAliasDelta(f, rel, alias) {
					hasDelta = true
				}
			}
			var fs []expr.Expr
			for _, f := range x.Factors {
				if hasDelta && isAbsorbed(f) {
					continue
				}
				fs = append(fs, rec(f))
			}
			return expr.Join(fs...)
		case *expr.Plus:
			ts := make([]expr.Expr, len(x.Terms))
			for i, t := range x.Terms {
				ts[i] = rec(t)
			}
			return expr.Add(ts...)
		case *expr.Agg:
			return expr.Sum(x.GroupBy, rec(x.Body))
		case *expr.Assign:
			if x.Q != nil {
				return expr.LiftQ(x.Var, rec(x.Q))
			}
			return x.Clone()
		case *expr.Exists:
			return expr.ExistsE(rec(x.Body))
		default:
			return n.Clone()
		}
	}
	return rec(e)
}

// substituteDelta replaces the alias's ΔR terms with a reference to the
// pre-aggregated transient view projected onto the used columns.
func substituteDelta(e expr.Expr, rel string, alias mring.Schema, viewName string, used mring.Schema) expr.Expr {
	out := expr.Transform(e, func(n expr.Expr) expr.Expr {
		if isAliasDelta(n, rel, alias) {
			return expr.View(viewName, used...)
		}
		return n
	})
	return expr.Simplify(out)
}
