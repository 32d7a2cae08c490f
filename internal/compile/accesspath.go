package compile

import (
	"sort"

	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
)

// Access-path analysis. Evaluation dispatches every relational term to
// foreach, get, or slice depending on which of its columns are bound when
// it is reached (Sec. 5.1); the binding flow is static — left to right
// through products, restored across union terms — so the compiler can
// enumerate exactly the (relation, bound-column mask) pairs the slice path
// will probe at run time. Executors use the result to register the needed
// persistent secondary indexes up front, instead of paying a full build on
// the first probe after deployment.

// IndexSpec names one secondary index a compiled program probes: the
// environment name of the relation (view name, base-table name, or Δ-delta
// name) and the ascending bound-column positions within its reference.
type IndexSpec struct {
	Rel string
	Pos []int
}

// collectIndexSpecs walks every trigger statement and every persistent
// view definition (used by warm starts) and returns the deduplicated slice
// access patterns in a deterministic order.
func collectIndexSpecs(p *Program) []IndexSpec {
	seen := make(map[string]map[uint64][]int)
	record := func(r *expr.Rel, pos []int) {
		if len(pos) == 0 || len(pos) == len(r.Cols) {
			return // foreach or get: no secondary index
		}
		rel := eval.RelEnvName(r)
		if !mring.Indexable(pos) {
			return // >64-column relation: eval degrades to a scan
		}
		mask := mring.ColMask(pos)
		if seen[rel] == nil {
			seen[rel] = make(map[uint64][]int)
		}
		if _, ok := seen[rel][mask]; !ok {
			seen[rel][mask] = append([]int(nil), pos...)
		}
	}
	names := make([]string, 0, len(p.Triggers))
	for n := range p.Triggers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, s := range p.Triggers[n].Stmts {
			walkAccess(s.RHS, map[string]bool{}, record)
		}
	}
	for _, v := range p.Views {
		if v.Transient || expr.HasDelta(v.Def) {
			continue
		}
		walkAccess(v.Def, map[string]bool{}, record)
	}
	var specs []IndexSpec
	rels := make([]string, 0, len(seen))
	for r := range seen {
		rels = append(rels, r)
	}
	sort.Strings(rels)
	for _, r := range rels {
		masks := make([]uint64, 0, len(seen[r]))
		for m := range seen[r] {
			masks = append(masks, m)
		}
		sort.Slice(masks, func(i, j int) bool { return masks[i] < masks[j] })
		for _, m := range masks {
			specs = append(specs, IndexSpec{Rel: r, Pos: seen[r][m]})
		}
	}
	return specs
}

// walkAccess simulates eval's bound-variable flow over e and calls visit
// on every relation term with the positions of its columns bound when the
// term is reached: none is a foreach scan, all a get, some a slice. bound
// is read but never mutated (products extend a private copy), mirroring
// how eval restores bindings across union terms and nested expressions.
func walkAccess(e expr.Expr, bound map[string]bool, visit func(r *expr.Rel, pos []int)) {
	switch x := e.(type) {
	case *expr.Rel:
		var pos []int
		for i, col := range x.Cols {
			if bound[col] {
				pos = append(pos, i)
			}
		}
		visit(x, pos)
	case *expr.Mul:
		cur := make(map[string]bool, len(bound))
		for c := range bound {
			cur[c] = true
		}
		for _, f := range x.Factors {
			walkAccess(f, cur, visit)
			for _, c := range f.Schema() {
				cur[c] = true
			}
		}
	case *expr.Plus:
		for _, t := range x.Terms {
			walkAccess(t, bound, visit)
		}
	case *expr.Agg:
		walkAccess(x.Body, bound, visit)
	case *expr.Assign:
		if x.Q != nil {
			walkAccess(x.Q, bound, visit)
		}
	case *expr.Exists:
		walkAccess(x.Body, bound, visit)
	}
}
