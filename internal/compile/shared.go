package compile

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
)

// SharedCompiler compiles a set of queries into one shared maintenance
// program — the compile side of multi-view serving. Each registered
// query compiles once per structural shape: a structurally identical
// query (same canonical form) becomes a pure alias of the existing top
// view. Auxiliary views rename to content-fingerprint names shared
// across programs, and trigger statements dedupe by canonical form, so
// every shared sub-plan — in particular every shared pre-aggregation —
// is computed once per transaction and fanned out to all dependent top
// views.
type SharedCompiler struct {
	bases map[string]mring.Schema
	opts  Options

	tops      map[string]string // registered name -> canonical top view
	order     []string          // registration order
	shapeTops map[string]string // query canon -> canonical top view
	queries   map[string]expr.Expr

	views    map[string]*ViewDef
	vorder   []*ViewDef
	viewName map[string]string // view canon key -> shared view name
	trig     map[string]*mergedTrigger
	counter  int
}

type mergedTrigger struct {
	stmts []Stmt
	keys  map[string]bool
}

// NewSharedCompiler creates a shared compiler over the given base
// schemas.
func NewSharedCompiler(bases map[string]mring.Schema, opts Options) *SharedCompiler {
	return &SharedCompiler{
		bases:     bases,
		opts:      opts,
		tops:      make(map[string]string),
		shapeTops: make(map[string]string),
		queries:   make(map[string]expr.Expr),
		views:     make(map[string]*ViewDef),
		viewName:  make(map[string]string),
		trig:      make(map[string]*mergedTrigger),
	}
}

// Register adds one named query to the shared program. Structurally
// identical queries (equal canonical forms) share one compiled shape and
// one maintained top view.
func (sc *SharedCompiler) Register(name string, q expr.Expr) error {
	if _, dup := sc.tops[name]; dup {
		return fmt.Errorf("compile: view %q already registered", name)
	}
	if err := checkDeclared(q, sc.bases); err != nil {
		return err
	}
	// Canonicalized after unification, a join written with equality
	// predicates is the same shape as one written with shared columns.
	canon := Canon(unifyEqualities(q))
	if top, ok := sc.shapeTops[canon]; ok {
		// Same shape as an already-registered view: alias, O(1).
		sc.tops[name] = top
		sc.order = append(sc.order, name)
		return nil
	}
	top := sharedTopName(canon)
	if _, taken := sc.views[top]; taken {
		return fmt.Errorf("compile: top-view fingerprint collision on %q (distinct shapes)", top)
	}
	prog, err := Compile(top, q, sc.bases, sc.opts)
	if err != nil {
		return err
	}
	if err := sc.merge(prog); err != nil {
		return err
	}
	sc.shapeTops[canon] = top
	sc.queries[top] = q
	sc.tops[name] = top
	sc.order = append(sc.order, name)
	return nil
}

// merge folds one compiled program into the shared view hierarchy and
// triggers: auxiliary views rename to their content-fingerprint shared
// names, and statements already present (canonically equal) are dropped —
// required for correctness, since a shared view must be refreshed exactly
// once per trigger.
func (sc *SharedCompiler) merge(prog *Program) error {
	ren := make(map[string]string, len(prog.Views))
	for i, v := range prog.Views {
		cname := v.Name // top view: already the canonical shape name
		if i > 0 {
			key := canonViewKey(v)
			if existing, ok := sc.viewName[key]; ok {
				ren[v.Name] = existing
				continue
			}
			cname = sharedViewName(key)
			if _, taken := sc.views[cname]; taken {
				return fmt.Errorf("compile: sub-plan fingerprint collision on %q (distinct definitions)", cname)
			}
			sc.viewName[key] = cname
		}
		ren[v.Name] = cname
		nv := &ViewDef{
			Name:      cname,
			Schema:    v.Schema.Clone(),
			Def:       renameViews(v.Def, ren),
			Transient: v.Transient,
			creation:  sc.counter,
		}
		sc.counter++
		sc.views[cname] = nv
		sc.vorder = append(sc.vorder, nv)
	}
	for rel, trg := range prog.Triggers {
		mt := sc.trig[rel]
		if mt == nil {
			mt = &mergedTrigger{keys: make(map[string]bool)}
			sc.trig[rel] = mt
		}
		for _, s := range trg.Stmts {
			ns := Stmt{LHS: ren[s.LHS], Op: s.Op, RHS: renameViews(s.RHS, ren)}
			key := canonStmtKey(ns)
			if mt.keys[key] {
				continue
			}
			mt.keys[key] = true
			mt.stmts = append(mt.stmts, ns)
		}
	}
	return nil
}

// Top returns the canonical top-view name serving a registered view.
func (sc *SharedCompiler) Top(name string) (string, bool) {
	t, ok := sc.tops[name]
	return t, ok
}

// Names returns the registered view names in registration order.
func (sc *SharedCompiler) Names() []string {
	return append([]string(nil), sc.order...)
}

// Shapes returns the number of distinct compiled query shapes.
func (sc *SharedCompiler) Shapes() int { return len(sc.shapeTops) }

// SharedViews returns the number of materialized views in the shared
// hierarchy (top views plus deduped auxiliaries).
func (sc *SharedCompiler) SharedViews() int { return len(sc.vorder) }

// Program finalizes the shared maintenance program: merged triggers are
// re-ordered under the cross-program read-before-refresh constraints,
// and the access-path analysis runs over the merged whole.
func (sc *SharedCompiler) Program() (*Program, error) {
	if len(sc.order) == 0 {
		return nil, fmt.Errorf("compile: shared program has no registered views")
	}
	firstTop := sc.tops[sc.order[0]]
	prog := &Program{
		QueryName: firstTop,
		Query:     sc.queries[firstTop],
		Bases:     sc.bases,
		Views:     append([]*ViewDef(nil), sc.vorder...),
		Triggers:  make(map[string]*Trigger),
		Opts:      sc.opts,
	}
	for rel := range sc.bases {
		t := &Trigger{Relation: rel}
		if mt := sc.trig[rel]; mt != nil {
			t.Stmts = orderMergedStmts(sc.views, mt.stmts)
		}
		prog.Triggers[rel] = t
	}
	if err := preparePlans(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

// orderMergedStmts orders the deduped union of several programs'
// statements for one trigger. Within one compiled program the statements
// already run pre-aggregations first, maintenance statements in
// topological read-before-refresh order, and re-evaluation OpSets last;
// the merge re-establishes exactly those constraints across programs.
// The Kahn pass prefers first-registration order, so a topologically
// valid input (any single program, and most merges) comes out unchanged —
// each view's per-transaction fold sequence stays bitwise identical to
// its independent engine's.
func orderMergedStmts(views map[string]*ViewDef, stmts []Stmt) []Stmt {
	var pre, adds, sets []Stmt
	for _, s := range stmts {
		v := views[s.LHS]
		switch {
		case s.Op == eval.OpSet && v != nil && v.Transient:
			pre = append(pre, s) // pre-aggregations feed everything below
		case s.Op == eval.OpSet:
			sets = append(sets, s) // re-evaluations read refreshed views
		default:
			adds = append(adds, s)
		}
	}
	return append(append(pre, readersFirst(adds)...), sets...)
}

// readersFirst orders maintenance statements so that each runs before the
// statements that refresh the views it reads: Kahn's algorithm on the
// read graph, always picking the lowest-index ready statement, so an
// order that already satisfies the graph comes out unchanged. On a cycle
// (which should not happen) it takes the lowest-index statement left.
func readersFirst(stmts []Stmt) []Stmt {
	n := len(stmts)
	lhsIdx := make(map[string]int, n)
	for i, s := range stmts {
		lhsIdx[s.LHS] = i
	}
	// Edges: A -> B when A reads B.LHS (A must run while B's target is
	// still pre-update).
	succ := make([][]int, n)
	indeg := make([]int, n)
	for i, s := range stmts {
		for _, read := range StatementsReading(s) {
			if j, ok := lhsIdx[read]; ok && j != i {
				succ[i] = append(succ[i], j)
				indeg[j]++
			}
		}
	}
	out := make([]Stmt, 0, n)
	used := make([]bool, n)
	for range stmts {
		pick := -1
		for i := 0; i < n && pick < 0; i++ {
			if !used[i] && indeg[i] == 0 {
				pick = i
			}
		}
		for i := 0; i < n && pick < 0; i++ {
			if !used[i] {
				pick = i
			}
		}
		used[pick] = true
		out = append(out, stmts[pick])
		for _, j := range succ[pick] {
			indeg[j]--
		}
	}
	return out
}
