package compile

import (
	"fmt"

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
// Self-joins and nested subqueries reference ΔR under several column
// bindings (aliases); each alias gets its own pre-aggregation, since each
// may use different columns (this is where the paper's Q17/Q18/Q20-class
// wins come from: the nested-side alias projects onto a tiny key set).
// An alias is skipped when pre-aggregation cannot shrink it: no absorbed
// condition and all columns used.
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
	// Static conditions over this alias's columns shared by every
	// statement referencing the alias; they move into the
	// pre-aggregation, so strip them before computing used columns.
	shared := sharedStaticConditions(t.Stmts, rel, alias)
	stripped := make([]expr.Expr, len(t.Stmts))
	used := mring.Schema{}
	refs := false
	for i, s := range t.Stmts {
		stripped[i] = s.RHS
		if !refsAlias(s.RHS, rel, alias) {
			continue
		}
		refs = true
		stripped[i] = stripAbsorbed(s.RHS, rel, alias, shared)
		vars := statementVars(Stmt{LHS: s.LHS, RHS: stripped[i]}, c.views, rel, alias)
		used = used.Union(alias.Intersect(vars))
	}
	if !refs {
		return
	}
	if len(shared) == 0 && len(used) == len(alias) {
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
	for _, cmp := range shared {
		parts = append(parts, cmp.Clone())
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

// refsAlias reports whether e references ΔR under the given alias.
func refsAlias(e expr.Expr, rel string, alias mring.Schema) bool {
	found := false
	expr.Walk(e, func(n expr.Expr) bool {
		if r, ok := n.(*expr.Rel); ok && r.Kind == expr.RDelta && r.Name == rel && r.Cols.Equal(alias) {
			found = true
		}
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
			if x.Kind == expr.RDelta && x.Name == rel && x.Cols.Equal(alias) {
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
			if r, ok := f.(*expr.Rel); ok && r.Kind == expr.RDelta && r.Name == rel && r.Cols.Equal(alias) {
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

// stripAbsorbed removes, top-down, the absorbed static conditions from
// every product that contains the alias's ΔR term at its top level.
func stripAbsorbed(e expr.Expr, rel string, alias mring.Schema, absorbed []*expr.Cmp) expr.Expr {
	if len(absorbed) == 0 {
		return e
	}
	isAbsorbed := func(c *expr.Cmp) bool {
		for _, a := range absorbed {
			if a.String() == c.String() {
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
				if r, ok := f.(*expr.Rel); ok && r.Kind == expr.RDelta && r.Name == rel && r.Cols.Equal(alias) {
					hasDelta = true
				}
			}
			var fs []expr.Expr
			for _, f := range x.Factors {
				if cmp, ok := f.(*expr.Cmp); ok && hasDelta && isAbsorbed(cmp) {
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
		if r, ok := n.(*expr.Rel); ok && r.Kind == expr.RDelta && r.Name == rel && r.Cols.Equal(alias) {
			return expr.View(viewName, used...)
		}
		return n
	})
	return expr.Simplify(out)
}
