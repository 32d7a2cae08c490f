package compile

import (
	"repro/internal/expr"
	"repro/internal/mring"
)

// Join planning. TPC-H, like SQL, writes every join as an equality
// between two differently named columns: R(a, ...) ⋈ S(b, ...) ⋈ (a = b).
// The materializer connects factors only through shared column names, and
// eval checks (a = b) only once both sides are bound, so that form
// compiles to a filtered cross product: every delta tuple scans whole
// views. Two passes compile it as a join instead:
//
//   - unifyEqualities, before delta derivation, renames b to a inside the
//     product that binds both and drops the predicate. That is the
//     natural-join form: the materializer groups R and S into one
//     connected component, and eval answers the join with a get or slice
//     probe instead of a scan.
//   - orderJoins, after pre-aggregation, reorders every trigger product
//     greedily and without statistics: the delta first, then filters as
//     soon as their variables are bound, then the relation with the most
//     bound columns. A delta batch is small and every other factor is a
//     whole view, so "delta first, then probe" is the plan a cost model
//     would pick almost always (SNIPPETS.md, "When Greedy Beats Optimal").
//     Two moves reach what unification cannot: an equality with one side
//     bound binds the other side (a correlated subquery's join), and a
//     product whose batch sits inside a union is distributed over it.
//
// Both passes turn equality predicates into probes, which match on
// storage identity (Tuple.KeyEqual) rather than Value.Equal. The two
// differ only on NaN (one key with itself, Equal to nothing), exactly as
// natural joins over shared column names already do.

// unifyEqualities rewrites every variable-to-variable equality that joins
// two relation terms of the same product into a shared column name.
func unifyEqualities(q expr.Expr) expr.Expr {
	return unify(q, nil, q.Schema())
}

// unify rewrites e. outer holds the variables bound by e's evaluation
// context (correlation: renaming one would change what the context binds)
// and exported the variables the context reads from e's output (renaming
// one would change e's schema).
func unify(e expr.Expr, outer, exported mring.Schema) expr.Expr {
	switch x := e.(type) {
	case *expr.Mul:
		return unifyMul(x, outer, exported)
	case *expr.Plus:
		terms := make([]expr.Expr, len(x.Terms))
		for i, t := range x.Terms {
			terms[i] = unify(t, outer, exported)
		}
		return &expr.Plus{Terms: terms}
	case *expr.Agg:
		return &expr.Agg{GroupBy: x.GroupBy.Clone(), Body: unify(x.Body, outer, x.GroupBy)}
	case *expr.Assign:
		if x.Q == nil {
			return x.Clone()
		}
		return &expr.Assign{Var: x.Var, Q: unify(x.Q, outer, exported.Union(x.Q.Schema()))}
	case *expr.Exists:
		return &expr.Exists{Body: unify(x.Body, outer, exported.Union(x.Body.Schema()))}
	default:
		return e.Clone()
	}
}

func unifyMul(m *expr.Mul, outer, exported mring.Schema) expr.Expr {
	factors := m.Factors
	for {
		i, keep, drop := unifiable(factors, outer, exported)
		if i < 0 {
			break
		}
		rename := func(v string) string {
			if v == drop {
				return keep
			}
			return v
		}
		next := make([]expr.Expr, 0, len(factors)-1)
		for j, f := range factors {
			if j != i {
				next = append(next, renameVars(f, rename))
			}
		}
		factors = next
	}
	// Nested products see the bindings of the factors to their left, and
	// their output is read by every other factor.
	out := make([]expr.Expr, len(factors))
	var bound mring.Schema
	for i, f := range factors {
		used := exported.Clone()
		for j, g := range factors {
			if j != i {
				used = used.Union(expr.AllVars(g))
			}
		}
		out[i] = unify(f, outer.Union(bound), used)
		bound = bound.Union(f.Schema())
	}
	return expr.Join(out...)
}

// unifiable finds the first equality factor (a = b) whose variables are
// both columns of relation terms of this product and bound by neither the
// context nor one shared relation term. It returns the factor's index,
// the variable to keep (the exported one, else the one bound first) and
// the one to rename, or -1 when no equality qualifies.
func unifiable(factors []expr.Expr, outer, exported mring.Schema) (int, string, string) {
	// first[v] is the index of the leftmost relation factor binding v.
	first := map[string]int{}
	for i, f := range factors {
		if r, ok := f.(*expr.Rel); ok {
			for _, c := range r.Cols {
				if _, seen := first[c]; !seen {
					first[c] = i
				}
			}
		}
	}
	for i, f := range factors {
		c, ok := f.(*expr.Cmp)
		if !ok || c.Op != expr.CEq {
			continue
		}
		l, lok := c.L.(expr.VarRef)
		r, rok := c.R.(expr.VarRef)
		if !lok || !rok || l.Name == r.Name {
			continue
		}
		keep, drop := l.Name, r.Name
		fk, kok := first[keep]
		fd, dok := first[drop]
		if !kok || !dok || outer.Contains(keep) || outer.Contains(drop) {
			continue
		}
		if fd < fk {
			keep, drop = drop, keep
		}
		if exported.Contains(drop) {
			if exported.Contains(keep) {
				continue // both leave the product: the predicate stays
			}
			keep, drop = drop, keep
		}
		if sharesRelation(factors, keep, drop) {
			continue // R(a, b) ⋈ (a = b) is a filter, not a join
		}
		return i, keep, drop
	}
	return -1, "", ""
}

// sharesRelation reports whether some relation term anywhere under the
// factors binds both a and b, which renaming would turn into a repeated
// column.
func sharesRelation(factors []expr.Expr, a, b string) bool {
	found := false
	for _, f := range factors {
		expr.Walk(f, func(n expr.Expr) bool {
			if r, ok := n.(*expr.Rel); ok && r.Cols.Contains(a) && r.Cols.Contains(b) {
				found = true
			}
			return !found
		})
	}
	return found
}

// orderJoins reorders the products of every statement of t for probing:
// see the package comment above. isDelta marks the relation terms that
// hold the update batch (the raw delta or its pre-aggregated view).
func orderJoins(t *Trigger, isDelta func(*expr.Rel) bool) {
	for i, s := range t.Stmts {
		t.Stmts[i].RHS = orderProducts(s.RHS, nil, isDelta)
	}
}

// orderProducts reorders every product in e given the variables bound
// when e is evaluated, mirroring eval's left-to-right binding flow.
func orderProducts(e expr.Expr, bound mring.Schema, isDelta func(*expr.Rel) bool) expr.Expr {
	switch x := e.(type) {
	case *expr.Mul:
		return orderMul(x.Factors, bound, isDelta)
	case *expr.Plus:
		terms := make([]expr.Expr, len(x.Terms))
		for i, t := range x.Terms {
			terms[i] = orderProducts(t, bound, isDelta)
		}
		return &expr.Plus{Terms: terms}
	case *expr.Agg:
		return &expr.Agg{GroupBy: x.GroupBy.Clone(), Body: orderProducts(x.Body, bound, isDelta)}
	case *expr.Assign:
		if x.Q == nil {
			return x.Clone()
		}
		return &expr.Assign{Var: x.Var, Q: orderProducts(x.Q, bound, isDelta)}
	case *expr.Exists:
		return &expr.Exists{Body: orderProducts(x.Body, bound, isDelta)}
	default:
		return e.Clone()
	}
}

// Factor ranks of the greedy join order, best first.
const (
	rankBatch  = iota // leads with the update batch
	rankFilter        // at most one output per binding: comparisons, values, value lifts
	rankGet           // relation with every column bound: one lookup
	rankLift          // scalar nested aggregate: one output, one nested evaluation
	rankSlice         // relation with some columns bound: one index probe
	rankScan          // relation with no column bound, or a factor of unknown fan-out
)

// orderMul picks, at each step, the best-ranked factor whose free
// variables are bound; ties go to the factor with more bound columns, then
// to the written order. A product is a natural join, so any order that
// binds every factor's free variables first is equivalent. The batch
// leads only a product evaluated with nothing bound: under bindings (a
// correlated subquery, a union term after its context) it is probed like
// any other relation.
func orderMul(factors []expr.Expr, bound mring.Schema, isDelta func(*expr.Rel) bool) expr.Expr {
	if len(bound) == 0 {
		if e := distributeBatch(factors, isDelta); e != nil {
			return orderProducts(e, bound, isDelta)
		}
	}
	rest := append([]expr.Expr(nil), factors...)
	out := make([]expr.Expr, 0, len(factors))
	cur := bound.Clone()
	for len(rest) > 0 {
		best, bestRank, bestBound := 0, rankScan+1, -1
		var pick expr.Expr
		for i, f := range rest {
			if b := joinBinder(f, cur, rest); b != nil {
				f = b
			}
			free := expr.FreeVars(f)
			if len(free.Intersect(cur)) != len(free) {
				continue
			}
			rank, nb := factorRank(f, cur, len(bound) == 0 && len(out) == 0, isDelta)
			if rank < bestRank || (rank == bestRank && nb > bestBound) {
				best, bestRank, bestBound, pick = i, rank, nb, f
			}
		}
		if pick == nil {
			pick = rest[best] // nothing is evaluable: keep the written order
		}
		out = append(out, orderProducts(pick, cur, isDelta))
		cur = cur.Union(pick.Schema())
		rest = append(rest[:best], rest[best+1:]...)
	}
	return expr.Join(out...)
}

// distributeBatch rewrites F ⋈ (T1 + T2 + ...) into F ⋈ T1 + F ⋈ T2 + ...
// when no factor of the product can lead with the update batch but a
// union factor holds it, as the delta of a self-join or of a nested
// aggregate does: the union reads variables only F binds. Otherwise the product would start by scanning F; distributed,
// each term can start from its own batch and probe F. It returns nil
// when the product does not have that shape.
func distributeBatch(factors []expr.Expr, isDelta func(*expr.Rel) bool) expr.Expr {
	union := -1
	for i, f := range factors {
		if len(expr.FreeVars(f)) == 0 && leadsWithBatch(f, isDelta) {
			return nil
		}
		if _, ok := f.(*expr.Plus); ok && union < 0 && holdsBatch(f, isDelta) {
			union = i
		}
	}
	if union < 0 {
		return nil
	}
	terms := factors[union].(*expr.Plus).Terms
	out := make([]expr.Expr, len(terms))
	for j, t := range terms {
		fs := make([]expr.Expr, 0, len(factors))
		for i, f := range factors {
			if i == union {
				f = t
			}
			fs = append(fs, f.Clone())
		}
		out[j] = expr.Join(fs...)
	}
	return expr.Add(out...)
}

// holdsBatch reports whether f reads the update batch anywhere.
func holdsBatch(f expr.Expr, isDelta func(*expr.Rel) bool) bool {
	found := false
	expr.Walk(f, func(n expr.Expr) bool {
		if r, ok := n.(*expr.Rel); ok && isDelta(r) {
			found = true
		}
		return !found
	})
	return found
}

// joinBinder turns an equality (a = b) with only b bound into the binding
// a := b when a relation term among the factors reads a: the relation is
// then probed on a instead of scanned and filtered. This is how a
// correlated subquery joins its context, whose equalities unification
// must leave in place.
func joinBinder(f expr.Expr, bound mring.Schema, factors []expr.Expr) expr.Expr {
	c, ok := f.(*expr.Cmp)
	if !ok || c.Op != expr.CEq {
		return nil
	}
	l, lok := c.L.(expr.VarRef)
	r, rok := c.R.(expr.VarRef)
	if !lok || !rok {
		return nil
	}
	to, from := l.Name, r.Name
	if bound.Contains(to) {
		to, from = from, to
	}
	if bound.Contains(to) || !bound.Contains(from) {
		return nil
	}
	for _, g := range factors {
		if rel, ok := g.(*expr.Rel); ok && rel.Cols.Contains(to) {
			return expr.LiftV(to, expr.V(from))
		}
	}
	return nil
}

// factorRank classifies f under the bound variables and counts its bound
// columns (relation terms only).
func factorRank(f expr.Expr, bound mring.Schema, leading bool, isDelta func(*expr.Rel) bool) (int, int) {
	if leading && leadsWithBatch(f, isDelta) {
		return rankBatch, 0
	}
	switch x := f.(type) {
	case *expr.Rel:
		nb := len(x.Cols.Intersect(bound))
		switch {
		case nb == len(x.Cols):
			return rankGet, nb
		case nb > 0:
			return rankSlice, nb
		}
		return rankScan, 0
	case *expr.Assign:
		if x.Q == nil {
			return rankFilter, 0
		}
		if len(x.Q.Schema()) == 0 {
			return rankLift, 0
		}
	}
	if len(f.Schema()) == 0 {
		return rankFilter, 0
	}
	return rankScan, 0
}

// leadsWithBatch reports whether evaluating f with nothing bound can start
// by reading the update batch: a batch relation term, a product with such
// a factor that needs no outside variable (orderMul puts it first), or an
// aggregate, Exists or union (every term) over one. A batch read deeper
// inside, after some other factor, does not count — that factor would
// still scan.
func leadsWithBatch(f expr.Expr, isDelta func(*expr.Rel) bool) bool {
	switch x := f.(type) {
	case *expr.Rel:
		return isDelta(x)
	case *expr.Mul:
		for _, g := range x.Factors {
			if len(expr.FreeVars(g)) == 0 && leadsWithBatch(g, isDelta) {
				return true
			}
		}
		return false
	case *expr.Agg:
		return leadsWithBatch(x.Body, isDelta)
	case *expr.Exists:
		return leadsWithBatch(x.Body, isDelta)
	case *expr.Plus:
		for _, t := range x.Terms {
			if !leadsWithBatch(t, isDelta) {
				return false
			}
		}
		return true
	}
	return false
}
