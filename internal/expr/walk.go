package expr

import "repro/internal/mring"

// Walk calls f on every node of the tree in pre-order. If f returns false
// the node's children are skipped.
func Walk(e Expr, f func(Expr) bool) {
	if e == nil || !f(e) {
		return
	}
	switch x := e.(type) {
	case *Plus:
		for _, t := range x.Terms {
			Walk(t, f)
		}
	case *Mul:
		for _, t := range x.Factors {
			Walk(t, f)
		}
	case *Agg:
		Walk(x.Body, f)
	case *Assign:
		if x.Q != nil {
			Walk(x.Q, f)
		}
	case *Exists:
		Walk(x.Body, f)
	}
}

// Transform rebuilds the tree bottom-up, replacing each node with f(node).
// f receives a node whose children have already been transformed.
func Transform(e Expr, f func(Expr) Expr) Expr {
	if e == nil {
		return nil
	}
	switch x := e.(type) {
	case *Plus:
		ts := make([]Expr, len(x.Terms))
		for i, t := range x.Terms {
			ts[i] = Transform(t, f)
		}
		return f(&Plus{Terms: ts})
	case *Mul:
		fs := make([]Expr, len(x.Factors))
		for i, t := range x.Factors {
			fs[i] = Transform(t, f)
		}
		return f(&Mul{Factors: fs})
	case *Agg:
		return f(&Agg{GroupBy: x.GroupBy.Clone(), Body: Transform(x.Body, f)})
	case *Assign:
		if x.Q != nil {
			return f(&Assign{Var: x.Var, Q: Transform(x.Q, f)})
		}
		return f(x.Clone())
	case *Exists:
		return f(&Exists{Body: Transform(x.Body, f)})
	default:
		return f(e.Clone())
	}
}

// Relations returns the names of relations of the given kind referenced
// anywhere in the tree, deduplicated, in first-occurrence order.
func Relations(e Expr, kind RelKind) []string {
	var out []string
	seen := map[string]bool{}
	Walk(e, func(n Expr) bool {
		if r, ok := n.(*Rel); ok && r.Kind == kind && !seen[r.Name] {
			seen[r.Name] = true
			out = append(out, r.Name)
		}
		return true
	})
	return out
}

// HasRel reports whether the tree references relation name with the kind.
func HasRel(e Expr, kind RelKind, name string) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if r, ok := n.(*Rel); ok && r.Kind == kind && r.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// HasBaseRelations reports whether the tree references any base table.
// (Fig. 1's `A.hasRelations` test for assignment bodies.)
func HasBaseRelations(e Expr) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if r, ok := n.(*Rel); ok && r.Kind != RDelta {
			found = true
		}
		return !found
	})
	return found
}

// HasDelta reports whether the tree references any delta relation.
func HasDelta(e Expr) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if r, ok := n.(*Rel); ok && r.Kind == RDelta {
			found = true
		}
		return !found
	})
	return found
}

// AllVars returns every variable name mentioned anywhere in the tree:
// relation columns, value-expression variables, group-by columns, and
// assignment targets. It over-approximates the free variables, which is
// what the compiler needs to decide which columns a materialized view must
// retain.
func AllVars(e Expr) mring.Schema {
	var s mring.Schema
	add := func(cols []string) {
		for _, c := range cols {
			if !s.Contains(c) {
				s = append(s, c)
			}
		}
	}
	Walk(e, func(n Expr) bool {
		switch x := n.(type) {
		case *Rel:
			add(x.Cols)
		case *Cmp:
			add(x.L.Vars(nil))
			add(x.R.Vars(nil))
		case *Val:
			add(x.E.Vars(nil))
		case *Assign:
			add([]string{x.Var})
			if x.ValE != nil {
				add(x.ValE.Vars(nil))
			}
		case *Agg:
			add(x.GroupBy)
		}
		return true
	})
	return s
}

// FreeVars returns the variables an expression consumes from its
// evaluation context: variables referenced by value terms, comparisons,
// or nested subqueries that no relational term to their left produces.
// An expression with free variables is correlated and cannot be
// materialized as a standalone view.
func FreeVars(e Expr) mring.Schema {
	free, _ := freeAndProduced(e)
	return free
}

func freeAndProduced(e Expr) (free, produced mring.Schema) {
	switch x := e.(type) {
	case *Rel:
		return nil, x.Cols
	case *Const:
		return nil, nil
	case *Val:
		return mring.Schema(x.E.Vars(nil)), nil
	case *Cmp:
		return mring.Schema(x.R.Vars(x.L.Vars(nil))), nil
	case *Assign:
		if x.Q != nil {
			f, p := freeAndProduced(x.Q)
			return f, p.Union(mring.Schema{x.Var})
		}
		return mring.Schema(x.ValE.Vars(nil)), mring.Schema{x.Var}
	case *Mul:
		// Information flows left to right: a factor's free variables are
		// satisfied by anything produced earlier.
		for _, f := range x.Factors {
			ff, fp := freeAndProduced(f)
			for _, v := range ff {
				if !produced.Contains(v) && !free.Contains(v) {
					free = append(free, v)
				}
			}
			produced = produced.Union(fp)
		}
		return free, produced
	case *Plus:
		// A variable is produced only if every branch produces it.
		first := true
		for _, t := range x.Terms {
			ff, fp := freeAndProduced(t)
			free = free.Union(ff)
			if first {
				produced = fp
				first = false
			} else {
				produced = produced.Intersect(fp)
			}
		}
		return free, produced
	case *Agg:
		f, _ := freeAndProduced(x.Body)
		return f, x.GroupBy
	case *Exists:
		return freeAndProduced(x.Body)
	default:
		return nil, nil
	}
}

// Degree roughly counts referenced base/view relational terms — the
// paper's notion of query complexity (Sec. 3.2): deltas replace base
// relations, lowering the degree.
func Degree(e Expr) int {
	n := 0
	Walk(e, func(node Expr) bool {
		if r, ok := node.(*Rel); ok && r.Kind != RDelta {
			n++
		}
		return true
	})
	return n
}

// IsZero reports whether the expression is the constant 0.
func IsZero(e Expr) bool {
	c, ok := e.(*Const)
	return ok && c.V == 0
}

// Simplify performs algebraic cleanup: drops zero union terms, collapses
// products containing the constant 0, flattens nested Plus/Mul, folds
// constants, and removes unions/joins of a single operand.
func Simplify(e Expr) Expr {
	return Transform(e, func(n Expr) Expr {
		switch x := n.(type) {
		case *Plus:
			var ts []Expr
			var c float64
			hasConst := false
			for _, t := range x.Terms {
				if IsZero(t) {
					continue
				}
				if k, ok := t.(*Const); ok {
					c += k.V
					hasConst = true
					continue
				}
				if p, ok := t.(*Plus); ok {
					ts = append(ts, p.Terms...)
					continue
				}
				ts = append(ts, t)
			}
			if hasConst && c != 0 {
				ts = append(ts, &Const{V: c})
			}
			switch len(ts) {
			case 0:
				return &Const{V: 0}
			case 1:
				return ts[0]
			}
			return &Plus{Terms: ts}
		case *Mul:
			var fs []Expr
			c := 1.0
			for _, f := range x.Factors {
				if k, ok := f.(*Const); ok {
					c *= k.V
					continue
				}
				if m, ok := f.(*Mul); ok {
					fs = append(fs, m.Factors...)
					continue
				}
				fs = append(fs, f)
			}
			if c == 0 {
				return &Const{V: 0}
			}
			if c != 1 {
				fs = append([]Expr{&Const{V: c}}, fs...)
			}
			switch len(fs) {
			case 0:
				return &Const{V: 1}
			case 1:
				return fs[0]
			}
			return &Mul{Factors: fs}
		case *Agg:
			if IsZero(x.Body) {
				return &Const{V: 0}
			}
			// Sum over an empty group-by of a schema-less body is the body.
			if len(x.GroupBy) == 0 && len(x.Body.Schema()) == 0 {
				return x.Body
			}
			// Collapse nested Sum with identical group-by.
			if inner, ok := x.Body.(*Agg); ok && inner.GroupBy.Equal(x.GroupBy) {
				return &Agg{GroupBy: x.GroupBy, Body: inner.Body}
			}
			return x
		case *Exists:
			if IsZero(x.Body) {
				return &Const{V: 0}
			}
			if inner, ok := x.Body.(*Exists); ok {
				return inner
			}
			return x
		}
		return n
	})
}

// FreeAfter returns the variables of the whole Mul expression that are
// bound before position i (columns produced by factors 0..i-1).
func boundBefore(m *Mul, i int) mring.Schema {
	var s mring.Schema
	for j := 0; j < i; j++ {
		s = s.Union(m.Factors[j].Schema())
	}
	return s
}

// Equal reports structural equality of two expression trees. It is used by
// CSE in the distributed optimizer; string rendering is canonical enough
// because construction normalizes nesting.
func Equal(a, b Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.String() == b.String()
}
