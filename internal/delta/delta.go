// Package delta derives delta queries — expressions capturing the change
// in a query result for a batch of updates to one base relation (Sec. 3.1)
// — and implements the paper's domain extraction technique (Sec. 3.2.2,
// Fig. 1) that makes deltas of queries with nested aggregates and
// existential quantification incremental.
package delta

import (
	"repro/internal/expr"
	"repro/internal/mring"
)

// Options control delta derivation.
type Options struct {
	// DomainExtraction enables the revised delta rule for variable
	// assignment and Exists: Δ(var:=Q) := Qdom ⋈ ((var:=Q+ΔQ)−(var:=Q))
	// with Qdom = extractDom(ΔQ). When false, the naïve rule re-evaluates
	// the full old and new results (what Example 3.2 warns about).
	DomainExtraction bool
}

// Derive returns the delta of q for updates ΔR to base relation rel.
// References to rel become delta-relation terms; the result is simplified,
// so an update-independent query yields the constant 0.
func Derive(q expr.Expr, rel string, opts Options) expr.Expr {
	return expr.Simplify(derive(q, rel, opts))
}

func derive(q expr.Expr, rel string, opts Options) expr.Expr {
	switch x := q.(type) {
	case *expr.Rel:
		if x.Kind == expr.RBase && x.Name == rel {
			d := *x
			d.Kind = expr.RDelta
			return &d
		}
		// Views, other bases, and existing delta terms do not change.
		return &expr.Const{V: 0}
	case *expr.Plus:
		terms := make([]expr.Expr, len(x.Terms))
		for i, t := range x.Terms {
			terms[i] = derive(t, rel, opts)
		}
		return expr.Add(terms...)
	case *expr.Mul:
		return deriveMul(x.Factors, rel, opts)
	case *expr.Agg:
		d := derive(x.Body, rel, opts)
		if expr.IsZero(expr.Simplify(d)) {
			return &expr.Const{V: 0}
		}
		return expr.Sum(x.GroupBy, d)
	case *expr.Assign:
		if x.Q == nil {
			return &expr.Const{V: 0}
		}
		dq := expr.Simplify(derive(x.Q, rel, opts))
		if expr.IsZero(dq) {
			return &expr.Const{V: 0}
		}
		newQ := expr.Simplify(expr.Add(x.Q.Clone(), dq))
		diff := expr.Add(
			expr.LiftQ(x.Var, newQ),
			expr.Neg(expr.LiftQ(x.Var, x.Q.Clone())))
		if !opts.DomainExtraction {
			return diff
		}
		// The domain must also bind the equality-correlated outer
		// variables of the nested query (Sec. 3.2.3: "extracting the
		// domain of the inner query might restrict some of the
		// correlated variables").
		dom := ExtractDomKeep(dq, expr.FreeVars(dq))
		return expr.Join(dom, diff)
	case *expr.Exists:
		dq := expr.Simplify(derive(x.Body, rel, opts))
		if expr.IsZero(dq) {
			return &expr.Const{V: 0}
		}
		newQ := expr.Simplify(expr.Add(x.Body.Clone(), dq))
		diff := expr.Add(
			expr.ExistsE(newQ),
			expr.Neg(expr.ExistsE(x.Body.Clone())))
		if !opts.DomainExtraction {
			return diff
		}
		dom := ExtractDomKeep(dq, expr.FreeVars(dq))
		return expr.Join(dom, diff)
	default:
		// Constants, values, comparisons: Δ(·) = 0.
		return &expr.Const{V: 0}
	}
}

// deriveMul applies the binary product rule, folded over the n-ary join:
// Δ(Q1 ⋈ rest) = ΔQ1 ⋈ rest + Q1 ⋈ Δrest + ΔQ1 ⋈ Δrest.
// Factors whose delta is zero drop out, so the expansion stays small for
// single-relation updates.
func deriveMul(factors []expr.Expr, rel string, opts Options) expr.Expr {
	if len(factors) == 0 {
		return &expr.Const{V: 0}
	}
	if len(factors) == 1 {
		return derive(factors[0], rel, opts)
	}
	head := factors[0]
	rest := factors[1:]
	dHead := expr.Simplify(derive(head, rel, opts))
	dRest := expr.Simplify(deriveMul(rest, rel, opts))
	restJoin := make([]expr.Expr, len(rest))
	for i, f := range rest {
		restJoin[i] = f.Clone()
	}
	var terms []expr.Expr
	if !expr.IsZero(dHead) {
		terms = append(terms, expr.Join(append([]expr.Expr{dHead.Clone()}, cloneAll(restJoin)...)...))
	}
	if !expr.IsZero(dRest) {
		terms = append(terms, expr.Join(head.Clone(), dRest.Clone()))
	}
	if !expr.IsZero(dHead) && !expr.IsZero(dRest) {
		terms = append(terms, expr.Join(dHead.Clone(), dRest.Clone()))
	}
	return expr.Add(terms...)
}

func cloneAll(es []expr.Expr) []expr.Expr {
	out := make([]expr.Expr, len(es))
	for i, e := range es {
		out[i] = e.Clone()
	}
	return out
}

// ExtractDom implements Fig. 1: it computes a domain expression for a
// delta query — an expression of multiplicity-1 tuples binding variables
// that cover every output tuple the delta can affect. Prepending the
// domain to a re-evaluating delta restricts iteration to affected tuples.
func ExtractDom(e expr.Expr) expr.Expr {
	return ExtractDomKeep(e, nil)
}

// ExtractDomKeep extracts a domain that additionally preserves the given
// variables through aggregate projections — the correlated variables of a
// nested subquery, which the domain binds so that only affected groups
// are re-evaluated (the Q17 pattern).
func ExtractDomKeep(e expr.Expr, keep mring.Schema) expr.Expr {
	return expr.Simplify(extractDomKeep(e, keep))
}

func extractDomKeep(e expr.Expr, keep mring.Schema) expr.Expr {
	if a, ok := e.(*expr.Agg); ok {
		// The aggregate's projection target widens by the variables the
		// enclosing lift correlates on.
		domA := extractDom(a.Body)
		if isOne(domA) {
			return &expr.Const{V: 1}
		}
		domSch := domA.Schema()
		target := a.GroupBy.Union(keep)
		domGb := domSch.Intersect(target)
		switch {
		case len(domGb) == 0:
			return &expr.Const{V: 1}
		case domSch.Equal(mring.Schema(domGb)):
			return domA
		default:
			return expr.ExistsE(expr.Sum(domGb, domA))
		}
	}
	return extractDom(e)
}

func extractDom(e expr.Expr) expr.Expr {
	one := expr.Expr(&expr.Const{V: 1})
	switch x := e.(type) {
	case *expr.Plus:
		if len(x.Terms) == 0 {
			return one
		}
		dom := extractDom(x.Terms[0])
		for _, t := range x.Terms[1:] {
			dom = interDoms(dom, extractDom(t))
		}
		return dom
	case *expr.Mul:
		// Combine factor domains; interpreted terms (comparisons, value
		// assignments) further restrict the domain but are attached only
		// when every variable they consume is bound by the domain built
		// so far — a correlation predicate like (ps_partkey = p_partkey)
		// must not leak an unbound variable into the domain.
		var dom expr.Expr = one
		var pending []expr.Expr
		for _, f := range x.Factors {
			d := extractDom(f)
			if isOne(d) {
				continue
			}
			switch d.(type) {
			case *expr.Cmp, *expr.Assign:
				pending = append(pending, d)
			default:
				dom = unionDoms(dom, d)
			}
		}
		bound := dom.Schema()
		for changed := true; changed; {
			changed = false
			var rest []expr.Expr
			for _, p := range pending {
				free := expr.FreeVars(p)
				covered := true
				for _, v := range free {
					if !bound.Contains(v) {
						covered = false
						break
					}
				}
				if covered {
					dom = unionDoms(dom, p)
					bound = bound.Union(p.Schema())
					changed = true
					continue
				}
				// An equality with exactly one side bound becomes a
				// binder in the domain: (B = B2) with B2 bound binds the
				// correlated variable B, giving the domain of affected
				// groups (Sec. 3.2.3's range restriction).
				if bind := equalityBinder(p, bound); bind != nil {
					dom = unionDoms(dom, bind)
					bound = bound.Union(bind.Schema())
					changed = true
					continue
				}
				rest = append(rest, p)
			}
			pending = rest
		}
		return dom
	case *expr.Agg:
		domA := extractDom(x.Body)
		if isOne(domA) {
			return one
		}
		domSch := domA.Schema()
		domGb := domSch.Intersect(x.GroupBy)
		switch {
		case len(domGb) == 0:
			// The extracted domain bounds no group-by column: useless.
			return one
		case domSch.Equal(mring.Schema(domGb)):
			// Domain already binds exactly (a prefix of) the group-by
			// columns; propagate as is.
			return domA
		default:
			// Reduce the domain schema to the group-by columns and wrap
			// in Exists to preserve multiplicity-1 domain semantics.
			return expr.ExistsE(expr.Sum(domGb, domA))
		}
	case *expr.Assign:
		if x.Q != nil && expr.HasBaseRelations(x.Q) {
			return extractDom(x.Q)
		}
		if x.Q != nil {
			// Delta-only nested query: its domain restricts.
			return extractDom(x.Q)
		}
		// var := value binds a variable deterministically; keep it.
		return x.Clone()
	case *expr.Exists:
		return extractDom(x.Body)
	case *expr.Rel:
		if x.Kind == expr.RDelta || x.LowCard {
			return expr.ExistsE(x.Clone())
		}
		return one
	case *expr.Cmp:
		// Comparisons further restrict the domain.
		return x.Clone()
	case *expr.Const:
		return one
	case *expr.Val:
		// A value term can zero out tuples but binds nothing; keeping it
		// would change domain multiplicities, so drop it.
		return one
	default:
		return one
	}
}

// equalityBinder converts a var=var comparison with exactly one side
// bound into a variable assignment that binds the other side, or returns
// nil when not applicable.
func equalityBinder(p expr.Expr, bound mring.Schema) expr.Expr {
	c, ok := p.(*expr.Cmp)
	if !ok || c.Op != expr.CEq {
		return nil
	}
	l, lok := c.L.(expr.VarRef)
	r, rok := c.R.(expr.VarRef)
	if !lok || !rok {
		return nil
	}
	lb, rb := bound.Contains(l.Name), bound.Contains(r.Name)
	switch {
	case lb && !rb:
		return expr.LiftV(r.Name, expr.V(l.Name))
	case rb && !lb:
		return expr.LiftV(l.Name, expr.V(r.Name))
	default:
		return nil
	}
}

func isOne(e expr.Expr) bool {
	c, ok := e.(*expr.Const)
	return ok && c.V == 1
}

// interDoms combines the domains of two union branches: a change can come
// from either branch, so the combined domain is the union of both,
// projected onto their common columns (the "maximum common domain" of
// Fig. 1). If either branch is unrestricted, the union is unrestricted.
func interDoms(a, b expr.Expr) expr.Expr {
	if isOne(a) || isOne(b) {
		return &expr.Const{V: 1}
	}
	common := a.Schema().Intersect(b.Schema())
	if len(common) == 0 {
		return &expr.Const{V: 1}
	}
	pa := expr.Expr(expr.Sum(common, a))
	pb := expr.Expr(expr.Sum(common, b))
	return expr.ExistsE(expr.Add(pa, pb))
}

// unionDoms combines the domains of two join operands: both restrict, so
// the combined domain is their join (binding the union of their columns).
func unionDoms(a, b expr.Expr) expr.Expr {
	if isOne(a) {
		return b
	}
	if isOne(b) {
		return a
	}
	return expr.Join(a, b)
}
