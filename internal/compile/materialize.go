package compile

import (
	"fmt"
	"sort"

	"repro/internal/delta"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
)

// compiler carries state across the recursive materialization.
type compiler struct {
	opts    Options
	bases   map[string]mring.Schema
	views   map[string]*ViewDef
	byDef   map[string]string // canonical definition -> view name
	order   []*ViewDef
	counter int
}

// Compile builds the recursive incremental maintenance program for query q
// named queryName over the given base relation schemas.
func Compile(queryName string, q expr.Expr, bases map[string]mring.Schema, opts Options) (*Program, error) {
	if err := checkDeclared(q, bases); err != nil {
		return nil, err
	}
	c := &compiler{
		opts:  opts,
		bases: bases,
		views: make(map[string]*ViewDef),
		byDef: make(map[string]string),
	}
	c.registerView(queryName, q.Schema(), unifyEqualities(q))
	// Worklist: every registered view needs maintenance triggers for every
	// base relation its definition references. Processing may register new
	// views, which extend c.order.
	type stmtRec struct {
		rel  string
		stmt Stmt
	}
	var recs []stmtRec
	for i := 0; i < len(c.order); i++ {
		v := c.order[i]
		if v.Transient {
			continue
		}
		for _, rel := range expr.Relations(v.Def, expr.RBase) {
			stmt, ok := c.deltaStatement(v, rel)
			if !ok {
				continue
			}
			recs = append(recs, stmtRec{rel: rel, stmt: stmt})
		}
	}
	prog := &Program{
		QueryName: queryName,
		Query:     q,
		Bases:     bases,
		Views:     c.order,
		Triggers:  make(map[string]*Trigger),
		Opts:      opts,
	}
	for rel := range bases {
		prog.Triggers[rel] = &Trigger{Relation: rel}
	}
	for _, r := range recs {
		trg := prog.Triggers[r.rel]
		trg.Stmts = append(trg.Stmts, r.stmt)
	}
	// Process triggers in sorted relation order: preAggregate registers
	// new transient views, so map-order iteration here would make view
	// order and counter-derived view names differ between two compiles
	// of the same query — which a durable recovery (recompiling in a new
	// process and restoring checkpointed views by name) cannot tolerate.
	rels := make([]string, 0, len(prog.Triggers))
	for rel := range prog.Triggers {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for _, rel := range rels {
		trg := prog.Triggers[rel]
		c.orderTrigger(trg)
		if opts.PreAggregate {
			c.preAggregate(prog, trg)
		}
		orderJoins(trg, c.isBatch)
	}
	if err := preparePlans(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// checkDeclared refuses a query that reads a base relation bases does
// not declare.
func checkDeclared(q expr.Expr, bases map[string]mring.Schema) error {
	for _, rel := range expr.Relations(q, expr.RBase) {
		if _, ok := bases[rel]; !ok {
			return fmt.Errorf("compile: query references undeclared base relation %q", rel)
		}
	}
	return nil
}

// ReEvalProgram compiles re-evaluation, the first comparison strategy of
// the paper's Fig. 8 and Table 1: the trigger for R folds ΔR into R's
// copy, then recomputes the query over the copies.
func ReEvalProgram(name string, q expr.Expr, bases map[string]mring.Schema) (*Program, error) {
	return baseCopyProgram(name, q, bases, func(rel string, fold Stmt) []Stmt {
		return []Stmt{fold, {LHS: name, Op: eval.OpSet, RHS: q}}
	})
}

// FirstOrderProgram compiles classical (first-order) IVM, the second: the
// trigger for R folds the query's delta, read over the pre-update copies,
// into the result, then ΔR into R's copy. Nothing else is materialized.
// Domain extraction is on, as the paper grants its PostgreSQL version.
func FirstOrderProgram(name string, q expr.Expr, bases map[string]mring.Schema) (*Program, error) {
	return baseCopyProgram(name, q, bases, func(rel string, fold Stmt) []Stmt {
		if dq := delta.Derive(q, rel, delta.Options{DomainExtraction: true}); !expr.IsZero(dq) {
			return []Stmt{{LHS: name, Op: eval.OpAdd, RHS: dq}, fold}
		}
		return []Stmt{fold}
	})
}

// baseCopyProgram builds a program that keeps the query view plus one
// view per base table, named like the table and defined as it: q and its
// deltas read the copies unchanged, and a warm start fills them. trigger
// returns one table's statements given its copy's fold R += ΔR.
func baseCopyProgram(name string, q expr.Expr, bases map[string]mring.Schema, trigger func(rel string, fold Stmt) []Stmt) (*Program, error) {
	if err := checkDeclared(q, bases); err != nil {
		return nil, err
	}
	if _, ok := bases[name]; ok {
		return nil, fmt.Errorf("compile: query name %q is a base relation", name)
	}
	prog := &Program{QueryName: name, Query: q, Bases: bases, Triggers: make(map[string]*Trigger, len(bases)),
		Views: []*ViewDef{{Name: name, Schema: q.Schema().Clone(), Def: q}}}
	rels := make([]string, 0, len(bases))
	for rel := range bases {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	for i, rel := range rels {
		cols := bases[rel]
		prog.Views = append(prog.Views, &ViewDef{Name: rel, Schema: cols.Clone(), Def: expr.Base(rel, cols...), creation: i + 1})
		fold := Stmt{LHS: rel, Op: eval.OpAdd, RHS: expr.Delta(rel, cols...)}
		prog.Triggers[rel] = &Trigger{Relation: rel, Stmts: trigger(rel, fold)}
	}
	if err := preparePlans(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// registerView registers a view, deduplicating by definition.
func (c *compiler) registerView(name string, schema mring.Schema, def expr.Expr) *ViewDef {
	v := &ViewDef{Name: name, Schema: schema.Clone(), Def: def, creation: c.counter}
	c.counter++
	c.views[name] = v
	c.order = append(c.order, v)
	c.byDef[def.String()] = name
	return v
}

// isBatch reports whether a relation term reads the update batch:
// the raw delta or its transient pre-aggregation.
func (c *compiler) isBatch(r *expr.Rel) bool {
	if r.Kind == expr.RDelta {
		return true
	}
	v := c.views[r.Name]
	return r.Kind == expr.RView && v != nil && v.Transient
}

// materializeComponent registers (or reuses) the view for an
// update-independent expression and returns a reference to it.
func (c *compiler) materializeComponent(def expr.Expr, schema mring.Schema) *expr.Rel {
	key := def.String()
	if name, ok := c.byDef[key]; ok {
		return expr.View(name, c.views[name].Schema...)
	}
	name := fmt.Sprintf("M%d", c.counter)
	c.registerView(name, schema, def)
	return expr.View(name, schema...)
}

// deltaStatement derives the maintenance statement for view v on updates
// to base relation rel. It returns ok=false when the view is independent
// of rel.
func (c *compiler) deltaStatement(v *ViewDef, rel string) (Stmt, bool) {
	dopts := delta.Options{DomainExtraction: c.opts.DomainExtraction}
	dq := delta.Derive(v.Def, rel, dopts)
	if expr.IsZero(dq) {
		return Stmt{}, false
	}
	if c.opts.ReEvalUncorrelated && c.hasUnrestrictedNesting(dq) {
		// Sec. 3.2.3 / Example 3.3: domain extraction cannot restrict the
		// delta; recompute the view from piecewise-materialized parts.
		rhs := c.rewrite(v.Def, v.Schema, true)
		return Stmt{LHS: v.Name, Op: eval.OpSet, RHS: expr.Simplify(rhs)}, true
	}
	rhs := c.rewrite(dq, v.Schema, false)
	return Stmt{LHS: v.Name, Op: eval.OpAdd, RHS: expr.Simplify(rhs)}, true
}

// hasUnrestrictedNesting reports whether the delta contains a lift
// difference whose extracted domain is unrestricted (constant 1): the
// shape Join(1-domain omitted, lift(new) - lift(old)) that re-evaluates
// the query. Deltas produced with domain extraction carry their domain as
// a join factor; a Plus of two lifts with opposite signs at top level of a
// product, with no restricting factor of overlapping schema, marks it.
func (c *compiler) hasUnrestrictedNesting(dq expr.Expr) bool {
	found := false
	expr.Walk(dq, func(n expr.Expr) bool {
		m, ok := n.(*expr.Mul)
		if !ok {
			return !found
		}
		for i, f := range m.Factors {
			if !isLiftDiff(f) {
				continue
			}
			// Does any factor to the left bind a column of the lift body
			// or a correlated variable? If none, the diff re-evaluates.
			restricted := false
			for j := 0; j < i; j++ {
				if len(m.Factors[j].Schema()) > 0 {
					restricted = true
					break
				}
			}
			if !restricted {
				found = true
			}
		}
		return !found
	})
	return found
}

// isLiftDiff recognizes (lift(Qnew) − lift(Qold)) and the Exists variant,
// where the lift bodies reference base relations (re-evaluation shape).
func isLiftDiff(e expr.Expr) bool {
	p, ok := e.(*expr.Plus)
	if !ok || len(p.Terms) != 2 {
		return false
	}
	isLift := func(t expr.Expr) bool {
		switch x := t.(type) {
		case *expr.Assign:
			return x.Q != nil && expr.HasBaseRelations(x.Q)
		case *expr.Exists:
			return expr.HasBaseRelations(x.Body)
		case *expr.Mul:
			// negated lift: (-1) * lift
			for _, f := range x.Factors {
				switch y := f.(type) {
				case *expr.Assign:
					if y.Q != nil && expr.HasBaseRelations(y.Q) {
						return true
					}
				case *expr.Exists:
					if expr.HasBaseRelations(y.Body) {
						return true
					}
				}
			}
			return false
		}
		return false
	}
	return isLift(p.Terms[0]) && isLift(p.Terms[1])
}

// rewrite replaces maximal update-independent subexpressions of e with
// references to materialized views (registering the views), so that the
// resulting expression evaluates over views and the delta batch only.
// needed lists the columns the surrounding context requires from e.
// treatAllAsIndependent forces materialization of every base-relation
// component even without a delta present (re-evaluation rewriting).
func (c *compiler) rewrite(e expr.Expr, needed mring.Schema, treatAll bool) expr.Expr {
	switch x := e.(type) {
	case *expr.Mul:
		return c.rewriteMul(x.Factors, needed, treatAll)
	case *expr.Plus:
		terms := make([]expr.Expr, len(x.Terms))
		for i, t := range x.Terms {
			terms[i] = c.rewrite(t, needed, treatAll)
		}
		return expr.Add(terms...)
	case *expr.Agg:
		body := c.rewrite(x.Body, needed.Union(x.GroupBy), treatAll)
		return expr.Sum(x.GroupBy, body)
	case *expr.Assign:
		if x.Q == nil {
			return x.Clone()
		}
		return expr.LiftQ(x.Var, c.rewrite(x.Q, needed, treatAll))
	case *expr.Exists:
		return expr.ExistsE(c.rewrite(x.Body, needed, treatAll))
	case *expr.Rel:
		if x.Kind == expr.RBase {
			return c.rewriteMul([]expr.Expr{x}, needed, treatAll)
		}
		return x.Clone()
	default:
		return e.Clone()
	}
}

// rewriteMul materializes the update-independent relational factors of a
// product. Factors that contain deltas are recursed into; base-relation
// factors are grouped into connected components (by shared columns) and
// each component becomes one materialized view projected onto its needed
// columns — the footnote-2 rule that avoids materializing disconnected
// join graphs as a single view.
func (c *compiler) rewriteMul(factors []expr.Expr, needed mring.Schema, treatAll bool) expr.Expr {
	type factorInfo struct {
		e      expr.Expr
		indep  bool // base-relation factor, delta free, materializable
		interp bool // comparison / value / assign-value
		vars   mring.Schema
	}
	infos := make([]factorInfo, len(factors))
	for i, f := range factors {
		fi := factorInfo{e: f}
		switch x := f.(type) {
		case *expr.Rel:
			fi.indep = x.Kind == expr.RBase
			fi.vars = x.Schema()
		case *expr.Cmp:
			fi.interp = true
			fi.vars = varsOfVExpr(x.L, x.R)
		case *expr.Val:
			fi.interp = true
			fi.vars = varsOfVExpr(x.E)
		case *expr.Assign:
			if x.Q == nil {
				fi.interp = true
				fi.vars = varsOfVExpr(x.ValE).Union(mring.Schema{x.Var})
			} else {
				fi.vars = expr.FreeVars(f).Union(f.Schema())
				fi.indep = materializable(f)
			}
		case *expr.Const:
			fi.interp = true
		default:
			// Compound factors (unions, lift differences, nested
			// aggregates) interact with the rest of the statement through
			// the variables they consume from outside (correlation) and
			// the columns they produce — internal column names must not
			// widen sibling views.
			fi.vars = expr.FreeVars(f).Union(f.Schema())
			fi.indep = materializable(f)
		}
		infos[i] = fi
	}

	// Union-find over independent factors: connect by shared columns.
	parent := make([]int, len(factors))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for i := range infos {
		if !infos[i].indep {
			continue
		}
		for j := i + 1; j < len(infos); j++ {
			if !infos[j].indep {
				continue
			}
			if len(infos[i].e.Schema().Intersect(infos[j].e.Schema())) > 0 {
				union(i, j)
			}
		}
	}
	// Attach interpreted factors whose variables are fully covered by one
	// component's schema: they become static conditions inside the view.
	componentOf := make(map[int][]int) // root -> factor indices
	for i := range infos {
		if infos[i].indep {
			r := find(i)
			componentOf[r] = append(componentOf[r], i)
		}
	}
	attached := make(map[int]int) // interp factor -> component root
	for i := range infos {
		if !infos[i].interp || len(infos[i].vars) == 0 {
			continue
		}
		for r, members := range componentOf {
			var sch mring.Schema
			for _, m := range members {
				sch = sch.Union(infos[m].e.Schema())
			}
			if len(infos[i].vars.Intersect(sch)) == len(infos[i].vars) {
				attached[i] = r
				break
			}
		}
	}

	// Needed columns of each component: its schema intersected with what
	// the rest of the statement uses (outer needs + all other factors).
	outerVars := needed.Clone()
	for i := range infos {
		if _, isAttached := attached[i]; isAttached {
			continue
		}
		if infos[i].indep {
			continue // component members handled per component
		}
		outerVars = outerVars.Union(infos[i].vars)
	}

	// Build the rewritten factor list preserving left-to-right order:
	// each component is replaced at its first member's position.
	out := make([]expr.Expr, 0, len(factors))
	emitted := make(map[int]bool) // component roots already emitted
	for i := range infos {
		fi := infos[i]
		switch {
		case fi.indep:
			r := find(i)
			if emitted[r] {
				continue
			}
			emitted[r] = true
			members := componentOf[r]
			var parts []expr.Expr
			var sch mring.Schema
			for _, m := range members {
				parts = append(parts, infos[m].e.Clone())
				sch = sch.Union(infos[m].e.Schema())
			}
			for j := range infos {
				if ar, ok := attached[j]; ok && ar == r {
					parts = append(parts, infos[j].e.Clone())
				}
			}
			// Other components also constrain through shared columns —
			// but components share no columns by construction, so only
			// outerVars matters.
			var otherComp mring.Schema
			for or, oms := range componentOf {
				if or == r {
					continue
				}
				for _, m := range oms {
					otherComp = otherComp.Union(infos[m].e.Schema())
				}
			}
			proj := sch.Intersect(outerVars.Union(otherComp))
			def := expr.Simplify(expr.Sum(proj, expr.Join(parts...)))
			if !treatAll && len(members) == 1 {
				// A single base relation with no projection benefit still
				// becomes a view (base tables are materialized views too),
				// keeping the full schema when everything is needed.
				if rel, ok := infos[members[0]].e.(*expr.Rel); ok && len(proj) == len(rel.Cols) && len(parts) == 1 {
					def = expr.Simplify(expr.Sum(rel.Cols, rel.Clone()))
					out = append(out, c.materializeComponent(def, rel.Cols))
					continue
				}
			}
			out = append(out, c.materializeComponent(def, proj))
		case isAttachedFactor(attached, i):
			// Moved inside a component view.
			continue
		default:
			// Delta-bearing or interpreted factor: recurse for nested
			// structure (lift bodies may contain base relations).
			sub := needed.Clone()
			for j := range infos {
				if j == i {
					continue
				}
				sub = sub.Union(infos[j].vars)
			}
			out = append(out, c.rewrite(fi.e, sub, treatAll))
		}
	}
	return expr.Join(out...)
}

// materializable reports whether a factor can become a standalone view:
// it references base relations, no delta, and is not correlated with its
// evaluation context (no free variables).
func materializable(f expr.Expr) bool {
	return !expr.HasDelta(f) && expr.HasBaseRelations(f) && len(expr.FreeVars(f)) == 0
}

func isAttachedFactor(attached map[int]int, i int) bool {
	_, ok := attached[i]
	return ok
}

func varsOfVExpr(es ...expr.VExpr) mring.Schema {
	var s mring.Schema
	for _, e := range es {
		if e == nil {
			continue
		}
		for _, v := range e.Vars(nil) {
			if !s.Contains(v) {
				s = append(s, v)
			}
		}
	}
	return s
}

// orderTrigger sorts trigger statements so that readers run before the
// views they read are refreshed: a topological sort of the read graph,
// preferring decreasing view complexity (the paper's DAG of dependencies,
// Sec. 2.3). OpSet (re-evaluation) statements run last — they must see
// refreshed auxiliary views.
func (c *compiler) orderTrigger(t *Trigger) {
	adds := make([]Stmt, 0, len(t.Stmts))
	var sets []Stmt
	for _, s := range t.Stmts {
		if s.Op == eval.OpSet {
			sets = append(sets, s)
		} else {
			adds = append(adds, s)
		}
	}
	// Stable pre-sort: decreasing degree, then creation order.
	sort.SliceStable(adds, func(i, j int) bool {
		vi, vj := c.views[adds[i].LHS], c.views[adds[j].LHS]
		di, dj := vi.Degree(), vj.Degree()
		if di != dj {
			return di > dj
		}
		return vi.creation < vj.creation
	})
	t.Stmts = append(readersFirst(adds), sets...)
}
