package dist

import (
	"fmt"

	"repro/internal/compile"
	"repro/internal/eval"
	"repro/internal/expr"
	"repro/internal/mring"
)

// CompileProgram lowers every trigger of a compiled maintenance program
// into a distributed program of statement blocks and data-movement
// transformers (Sec. 4.3-4.4), one per updated base relation. parts
// fixes the canonical location of every view and delta; level selects
// the optimization pipeline (O0 naive ... O3 fused).
func CompileProgram(prog *compile.Program, parts PartInfo, level OptLevel) map[string]*DistProgram {
	out := make(map[string]*DistProgram, len(prog.Triggers))
	for rel, trg := range prog.Triggers {
		out[rel] = compileTrigger(prog, trg, parts, level)
	}
	return out
}

// moved caches one performed data movement (O2 reuse).
type moved struct {
	sig  string // kind | key | source env name
	src  string // source env name (invalidated when written)
	temp string // relation holding the moved copy
	// via names the driver copy a gather-broadcast went through; empty
	// for every other movement.
	via string
}

// trigCompiler lowers one trigger.
type trigCompiler struct {
	prog    *compile.Program
	parts   PartInfo
	level   OptLevel
	rel     string
	schemas map[string]mring.Schema
	// cur tracks the effective location of every relation as statements
	// execute: canonical locations from parts, plus movement temporaries
	// and transient views that are kept wherever they were produced.
	cur PartInfo
	// uf holds the variable equivalence classes of the statement being
	// compiled (same name, plus equality predicates and renamings).
	uf     unionFind
	blocks []Block
	// stmtStart marks the first block of the current source statement:
	// emissions coalesce only within one source statement, so the
	// pre-fusion block structure mirrors the statement structure.
	stmtStart int
	nTemp     int
	cache     []moved
}

func compileTrigger(prog *compile.Program, trg *compile.Trigger, parts PartInfo, level OptLevel) *DistProgram {
	tc := &trigCompiler{
		prog:    prog,
		parts:   parts,
		level:   level,
		rel:     trg.Relation,
		schemas: ViewSchemas(prog),
		cur:     parts.Clone(),
	}
	for _, s := range trg.Stmts {
		tc.stmtStart = len(tc.blocks)
		tc.compileStmt(Stmt{LHS: s.LHS, Op: s.Op, RHS: s.RHS})
	}
	dp := &DistProgram{
		Relations: []string{trg.Relation},
		Level:     level,
		Blocks:    tc.blocks,
		Parts:     tc.cur,
		Schemas:   tc.schemas,
	}
	if level >= O3 {
		dp.Blocks = FuseBlocks(dp.Blocks)
	}
	return dp
}

// emit appends a statement, coalescing with the previous block when the
// mode matches and the block belongs to the same source statement.
func (tc *trigCompiler) emit(mode LocKind, s Stmt) {
	if n := len(tc.blocks); n > tc.stmtStart && tc.blocks[n-1].Mode == mode {
		tc.blocks[n-1].Stmts = append(tc.blocks[n-1].Stmts, s)
	} else {
		tc.blocks = append(tc.blocks, Block{Mode: mode, Stmts: []Stmt{s}})
	}
	tc.noteWrite(s.LHS)
}

// noteWrite invalidates cached movements sourced from the written name.
func (tc *trigCompiler) noteWrite(name string) {
	kept := tc.cache[:0]
	for _, m := range tc.cache {
		if m.src != name && m.temp != name {
			kept = append(kept, m)
		}
	}
	tc.cache = kept
}

func (tc *trigCompiler) temp(schema mring.Schema) string {
	name := fmt.Sprintf("@%s.%d", tc.rel, tc.nTemp)
	tc.nTemp++
	tc.schemas[name] = schema.Clone()
	return name
}

func viewRef(name string, cols mring.Schema) *expr.Rel {
	return &expr.Rel{Kind: expr.RView, Name: name, Cols: cols.Clone()}
}

// move emits one data movement of src (a relation reference) and returns
// the name holding the moved copy. At O2+ identical movements of
// unchanged sources are reused.
func (tc *trigCompiler) move(kind XformKind, key mring.Schema, src *expr.Rel, loc Loc) string {
	env := eval.RelEnvName(src)
	sig := fmt.Sprintf("%d|%v|%s", kind, key, env)
	if m := tc.cached(sig); m != nil {
		return m.temp
	}
	t := tc.temp(src.Cols)
	tc.emit(LLocal, Stmt{LHS: t, Op: eval.OpSet, RHS: &Xform{Kind: kind, Key: key.Clone(), Body: src.Clone()}})
	tc.cur[t] = loc
	tc.cache = append(tc.cache, moved{sig: sig, src: env, temp: t})
	return t
}

// gatherBroadcast replicates a distributed relation on every worker
// (gather to the driver, then broadcast), returning the replica name.
func (tc *trigCompiler) gatherBroadcast(src *expr.Rel) string {
	env := eval.RelEnvName(src)
	sig := "gb|" + env
	if m := tc.cached(sig); m != nil {
		return m.temp
	}
	g := tc.temp(src.Cols)
	tc.emit(LLocal, Stmt{LHS: g, Op: eval.OpSet, RHS: &Xform{Kind: XGather, Body: src.Clone()}})
	tc.cur[g] = Local
	b := tc.temp(src.Cols)
	tc.emit(LLocal, Stmt{LHS: b, Op: eval.OpSet, RHS: &Xform{Kind: XScatter, Body: viewRef(g, src.Cols)}})
	tc.cur[b] = Indiff
	tc.cache = append(tc.cache, moved{sig: sig, src: env, temp: b, via: g})
	return b
}

// cached returns the movement recorded under sig, or nil; only O2 and
// above reuse movements.
func (tc *trigCompiler) cached(sig string) *moved {
	if tc.level < O2 {
		return nil
	}
	for i := range tc.cache {
		if tc.cache[i].sig == sig {
			return &tc.cache[i]
		}
	}
	return nil
}

// ref is one distinct relation read by a statement.
type ref struct {
	rel *expr.Rel
	env string
	loc Loc
}

func (tc *trigCompiler) collectRefs(e expr.Expr) []*ref {
	var out []*ref
	seen := map[string]bool{}
	expr.Walk(e, func(n expr.Expr) bool {
		if r, ok := n.(*expr.Rel); ok {
			env := eval.RelEnvName(r)
			if !seen[env] {
				seen[env] = true
				out = append(out, &ref{rel: r, env: env, loc: tc.cur[env]})
			}
		}
		return true
	})
	return out
}

// keyVars maps a keyed location's key columns (named in the relation's
// canonical schema) to the variable names they bind in this reference.
func (tc *trigCompiler) keyVars(r *ref) []string {
	canon := tc.schemas[r.env]
	vars := make([]string, 0, len(r.loc.Key))
	for _, k := range r.loc.Key {
		p := canon.Index(k)
		if p < 0 || p >= len(r.rel.Cols) {
			p = r.rel.Cols.Index(k)
		}
		if p < 0 {
			return nil // key not resolvable in this reference
		}
		vars = append(vars, r.rel.Cols[p])
	}
	return vars
}

// compileStmt lowers one trigger statement.
func (tc *trigCompiler) compileStmt(s Stmt) {
	tc.uf = eqClasses(s.RHS)
	refs := tc.collectRefs(s.RHS)

	distributed := false
	for _, r := range refs {
		if r.loc.Kind == LDist {
			distributed = true
			break
		}
	}
	if tc.level <= O0 || !distributed {
		tc.compileAtDriver(s, refs)
		return
	}
	if tc.foldReplicas(s, refs) {
		return
	}
	if spec, pl, ok := tc.chooseAnchor(s, refs); ok {
		tc.compileDistributed(s, spec, pl)
		return
	}
	tc.compileAtDriver(s, refs)
}

// spec is an anchor partitioning specification: the equivalence-class
// representatives the statement's co-partitioned inputs are keyed on.
// A nil spec anchors on a single randomly-partitioned input in place.
type spec []string

// action plans the hosting of one input reference.
type action struct {
	r *ref
	// host: true = partitioned on the anchor; false = replicated copy.
	part bool
	// movement: xNone means the input is usable in place.
	kind XformKind
	key  mring.Schema
	do   bool
}

const (
	weightBulk  = 4 // persistent views: moving them is expensive
	weightDelta = 1 // per-batch data: deltas, transients, temporaries
)

// weight is a static size proxy: per-batch data (deltas, transient
// views, temporaries) is cheap to move; persistent views cost more the
// wider their tuples are.
func (tc *trigCompiler) weight(r *ref) int {
	if r.rel.Kind == expr.RDelta {
		return weightDelta
	}
	if v := tc.prog.View(r.env); v != nil && !v.Transient {
		w := len(v.Schema)
		if w < 1 {
			w = 1
		}
		return weightBulk * w
	}
	return weightDelta
}

// hostingPlan computes the hosting actions and cost of evaluating the
// statement on the given anchor spec. ok=false when some input cannot be
// hosted.
func (tc *trigCompiler) hostingPlan(sp spec, refs []*ref) (plan []action, cost int, ok bool) {
	randomAnchored := false
	for _, r := range refs {
		a := action{r: r}
		w := tc.weight(r)
		switch {
		case r.loc.Kind == LIndiff:
			a.part = false
		case r.loc.Kind == LLocal:
			if key, found := tc.coveringKey(r, sp); found {
				a.part, a.do, a.kind, a.key = true, true, XScatter, key
				cost += 1 * w
			} else {
				a.part, a.do, a.kind = false, true, XScatter // broadcast
				cost += 2 * w
			}
		case r.loc.Keyed():
			if tc.coLocated(r, sp) {
				a.part = true
			} else if key, found := tc.coveringKey(r, sp); found {
				a.part, a.do, a.kind, a.key = true, true, XRepart, key
				cost += 2 * w
			} else {
				a.part, a.do = false, true // gather+broadcast
				cost += 4 * w
			}
		default: // Random
			if sp == nil {
				if randomAnchored {
					return nil, 0, false // only one in-place random anchor
				}
				randomAnchored = true
				a.part = true
			} else if key, found := tc.coveringKey(r, sp); found {
				a.part, a.do, a.kind, a.key = true, true, XRepart, key
				cost += 2 * w
			} else {
				a.part, a.do = false, true // gather+broadcast
				cost += 4 * w
			}
		}
		plan = append(plan, a)
	}
	return plan, cost, true
}

// coLocated reports whether a keyed reference is already partitioned on
// the anchor spec.
func (tc *trigCompiler) coLocated(r *ref, sp spec) bool {
	if sp == nil {
		return false
	}
	vars := tc.keyVars(r)
	if len(vars) != len(sp) {
		return false
	}
	for i, v := range vars {
		if tc.uf.find(v) != sp[i] {
			return false
		}
	}
	return true
}

// coveringKey finds, for each anchor class, a column of the reference in
// that class — the key a scatter/repartition can use to co-locate it.
func (tc *trigCompiler) coveringKey(r *ref, sp spec) (mring.Schema, bool) {
	if sp == nil {
		return nil, false
	}
	key := make(mring.Schema, 0, len(sp))
	for _, root := range sp {
		found := ""
		for _, c := range r.rel.Cols {
			if tc.uf.find(c) == root {
				found = c
				break
			}
		}
		if found == "" {
			return nil, false
		}
		key = append(key, found)
	}
	return key, true
}

// chooseAnchor picks the cheapest safe anchor spec for the statement.
func (tc *trigCompiler) chooseAnchor(s Stmt, refs []*ref) (spec, []action, bool) {
	var candidates []spec
	nRandom := 0
	for _, r := range refs {
		if r.loc.Kind == LDist && !r.loc.Keyed() {
			nRandom++
		}
	}
	if nRandom == 1 {
		candidates = append(candidates, nil)
	}
	addSpec := func(vars []string) {
		if len(vars) == 0 {
			return
		}
		sp := make(spec, len(vars))
		for i, v := range vars {
			sp[i] = tc.uf.find(v)
		}
		for _, c := range candidates {
			if specEqual(c, sp) {
				return
			}
		}
		candidates = append(candidates, sp)
	}
	for _, r := range refs {
		if r.loc.Keyed() {
			addSpec(tc.keyVars(r))
		}
	}
	if tgt := tc.cur[s.LHS]; tgt.Keyed() {
		addSpec(tgt.Key) // target key columns name statement variables
	}
	if len(candidates) == 0 {
		// Several random inputs and nothing keyed: try single-class
		// anchors drawn from the first random input's columns.
		for _, r := range refs {
			if r.loc.Kind == LDist && !r.loc.Keyed() {
				for _, c := range r.rel.Cols {
					addSpec([]string{c})
				}
				break
			}
		}
	}

	bestCost := -1
	var bestSpec spec
	var bestPlan []action
	for _, sp := range candidates {
		pl, cost, ok := tc.hostingPlan(sp, refs)
		if !ok || !tc.safeOn(s.RHS, sp, pl) {
			continue
		}
		cost += tc.writebackCost(s, sp)
		if bestCost < 0 || cost < bestCost {
			bestCost, bestSpec, bestPlan = cost, sp, pl
		}
	}
	if bestCost < 0 {
		return nil, nil, false
	}
	return bestSpec, bestPlan, true
}

func specEqual(a, b spec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// writebackCost estimates the movement needed to install the result.
func (tc *trigCompiler) writebackCost(s Stmt, sp spec) int {
	tgt := tc.cur[s.LHS]
	switch {
	case tgt.Keyed():
		if sp != nil {
			if rk := tc.resultKey(s, sp); rk != nil && tc.sameClasses(rk, tgt.Key) {
				return 0
			}
		}
		return 2
	case tgt.Kind == LLocal:
		return 1
	case tgt.Kind == LIndiff:
		return 3
	default: // Random target: result stays in place
		return 0
	}
}

// stmtSchema returns the canonical schema of the statement target.
func (tc *trigCompiler) stmtSchema(s Stmt) mring.Schema {
	if sc, ok := tc.schemas[s.LHS]; ok {
		return sc
	}
	return s.RHS.Schema()
}

// resultKey maps each anchor class to a result column in it, or nil when
// the result loses the anchor (and is therefore randomly partitioned).
func (tc *trigCompiler) resultKey(s Stmt, sp spec) mring.Schema {
	schema := tc.stmtSchema(s)
	key := make(mring.Schema, 0, len(sp))
	for _, root := range sp {
		found := ""
		for _, c := range schema {
			if tc.uf.find(c) == root {
				found = c
				break
			}
		}
		if found == "" {
			return nil
		}
		key = append(key, found)
	}
	return key
}

// compileDistributed emits the statement as worker-side computation.
func (tc *trigCompiler) compileDistributed(s Stmt, sp spec, pl []action) {
	// Movement: make every input available on the workers.
	sub := map[string]*expr.Rel{}
	for _, a := range pl {
		if !a.do {
			continue
		}
		var t string
		if a.kind == XScatter || a.kind == XRepart {
			loc := Random
			if len(a.key) > 0 {
				loc = Loc{Kind: LDist, Key: a.key.Clone()}
			} else {
				loc = Indiff // broadcast
			}
			t = tc.move(a.kind, a.key, a.r.rel, loc)
		} else {
			t = tc.gatherBroadcast(a.r.rel)
		}
		sub[a.r.env] = viewRef(t, a.r.rel.Cols)
	}
	rhs := rewriteRefs(s.RHS, sub)

	tgt := tc.cur[s.LHS]
	resKey := mring.Schema(nil)
	if sp != nil {
		resKey = tc.resultKey(s, sp)
	}

	resLoc := Random
	if resKey != nil {
		resLoc = Loc{Kind: LDist, Key: resKey.Clone()}
	}

	switch {
	case tgt.Keyed():
		if resKey != nil && tc.sameClasses(resKey, tgt.Key) {
			// Result lands partitioned exactly like the target.
			tc.emit(LDist, Stmt{LHS: s.LHS, Op: s.Op, RHS: rhs})
			return
		}
		t := tc.temp(tc.stmtSchema(s))
		tc.emit(LDist, Stmt{LHS: t, Op: eval.OpSet, RHS: rhs})
		tc.cur[t] = resLoc
		if s.Op == eval.OpSet {
			tc.emit(LLocal, Stmt{LHS: s.LHS, Op: eval.OpSet,
				RHS: &Xform{Kind: XRepart, Key: tgt.Key.Clone(), Body: viewRef(t, tc.stmtSchema(s))}})
			return
		}
		t2 := tc.temp(tc.stmtSchema(s))
		tc.emit(LLocal, Stmt{LHS: t2, Op: eval.OpSet,
			RHS: &Xform{Kind: XRepart, Key: tgt.Key.Clone(), Body: viewRef(t, tc.stmtSchema(s))}})
		tc.cur[t2] = Loc{Kind: LDist, Key: tgt.Key.Clone()}
		tc.emit(LDist, Stmt{LHS: s.LHS, Op: eval.OpAdd, RHS: viewRef(t2, tc.stmtSchema(s))})
	case tgt.Kind == LLocal:
		t := tc.temp(tc.stmtSchema(s))
		tc.emit(LDist, Stmt{LHS: t, Op: eval.OpSet, RHS: rhs})
		tc.cur[t] = resLoc
		if s.Op == eval.OpSet {
			tc.emit(LLocal, Stmt{LHS: s.LHS, Op: eval.OpSet,
				RHS: &Xform{Kind: XGather, Body: viewRef(t, tc.stmtSchema(s))}})
			return
		}
		g := tc.temp(tc.stmtSchema(s))
		tc.emit(LLocal, Stmt{LHS: g, Op: eval.OpSet,
			RHS: &Xform{Kind: XGather, Body: viewRef(t, tc.stmtSchema(s))}})
		tc.cur[g] = Local
		tc.emit(LLocal, Stmt{LHS: s.LHS, Op: eval.OpAdd, RHS: viewRef(g, tc.stmtSchema(s))})
	case tgt.Kind == LIndiff:
		t := tc.temp(tc.stmtSchema(s))
		tc.emit(LDist, Stmt{LHS: t, Op: eval.OpSet, RHS: rhs})
		tc.cur[t] = resLoc
		g := tc.temp(tc.stmtSchema(s))
		tc.emit(LLocal, Stmt{LHS: g, Op: eval.OpSet,
			RHS: &Xform{Kind: XGather, Body: viewRef(t, tc.stmtSchema(s))}})
		tc.cur[g] = Local
		tc.installReplicated(s, g)
	default:
		// Random target (transient): leave the result where it was
		// produced and remember its effective partitioning. Accumulating
		// writes keep the label only when it matches the fragments
		// already in place.
		tc.emit(LDist, Stmt{LHS: s.LHS, Op: s.Op, RHS: rhs})
		if s.Op == eval.OpAdd && !locKeyEqual(tgt, resLoc) {
			resLoc = Random
		}
		tc.cur[s.LHS] = resLoc
	}
}

// locKeyEqual reports whether two locations are keyed identically (by
// column name), meaning data written under either lands on the same
// workers.
func locKeyEqual(a, b Loc) bool {
	if !a.Keyed() || !b.Keyed() {
		return false
	}
	return a.Key.Equal(b.Key)
}

// sameClasses reports whether two key column lists name the same
// equivalence classes positionwise.
func (tc *trigCompiler) sameClasses(a, b mring.Schema) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if tc.uf.find(a[i]) != tc.uf.find(b[i]) {
			return false
		}
	}
	return true
}

// foldReplicas compiles the upkeep of a replicated target that folds
// only relations the trigger has already gathered and broadcast whole
// (the O2 movement cache): the driver mirror folds the gathered copies
// and every worker the broadcast ones, so the replicas ship nothing of
// their own. It reports false, emitting nothing, for any other
// statement. One that joins a moved copy with another view is left to
// the general path, where the join runs once, on the fragments.
func (tc *trigCompiler) foldReplicas(s Stmt, refs []*ref) bool {
	if tc.cur[s.LHS].Kind != LIndiff {
		return false
	}
	atDriver, atWorkers := map[string]*expr.Rel{}, map[string]*expr.Rel{}
	for _, r := range refs {
		if r.env == s.LHS {
			continue // each copy reads itself
		}
		m := tc.cached("gb|" + r.env)
		if r.loc.Kind != LDist || m == nil {
			return false
		}
		atDriver[r.env] = viewRef(m.via, r.rel.Cols)
		atWorkers[r.env] = viewRef(m.temp, r.rel.Cols)
	}
	tc.emit(LLocal, Stmt{LHS: s.LHS, Op: s.Op, RHS: rewriteRefs(s.RHS, atDriver)})
	tc.emit(LDist, Stmt{LHS: s.LHS, Op: s.Op, RHS: rewriteRefs(s.RHS, atWorkers)})
	return true
}

// installReplicated folds a driver-resident delta (held in rel `g`) into
// a replicated target: the driver mirror and every worker copy.
func (tc *trigCompiler) installReplicated(s Stmt, g string) {
	schema := tc.stmtSchema(s)
	tc.emit(LLocal, Stmt{LHS: s.LHS, Op: s.Op, RHS: viewRef(g, schema)})
	if s.Op == eval.OpSet {
		tc.emit(LLocal, Stmt{LHS: s.LHS, Op: eval.OpSet,
			RHS: &Xform{Kind: XScatter, Body: viewRef(g, schema)}})
		return
	}
	b := tc.temp(schema)
	tc.emit(LLocal, Stmt{LHS: b, Op: eval.OpSet,
		RHS: &Xform{Kind: XScatter, Body: viewRef(g, schema)}})
	tc.cur[b] = Indiff
	tc.emit(LDist, Stmt{LHS: s.LHS, Op: eval.OpAdd, RHS: viewRef(b, schema)})
}

// compileAtDriver computes the statement at the driver (the O0 strategy
// and the fallback when no safe distributed hosting exists): distributed
// inputs are gathered per statement, and the result is moved back to the
// target's canonical location.
func (tc *trigCompiler) compileAtDriver(s Stmt, refs []*ref) {
	sub := map[string]*expr.Rel{}
	for _, r := range refs {
		if r.loc.Kind != LDist {
			continue // local and replicated data is readable at the driver
		}
		sub[r.env] = viewRef(tc.gatherToDriver(r.rel), r.rel.Cols)
	}
	rhs := rewriteRefs(s.RHS, sub)

	tgt := tc.cur[s.LHS]
	if tgt.Kind == LDist && !tgt.Keyed() && !tc.isTransient(s.LHS) && len(tc.stmtSchema(s)) > 0 {
		// A shared view located Random must keep its contents on the
		// workers (that is where readers look): scatter the driver-side
		// result partitioned by the full tuple, which keeps fragments
		// disjoint without imposing a key invariant.
		tgt = Loc{Kind: LDist, Key: tc.stmtSchema(s).Clone()}
	}
	switch {
	case tgt.Keyed():
		t := tc.temp(tc.stmtSchema(s))
		tc.emit(LLocal, Stmt{LHS: t, Op: eval.OpSet, RHS: rhs})
		tc.cur[t] = Local
		if s.Op == eval.OpSet {
			tc.emit(LLocal, Stmt{LHS: s.LHS, Op: eval.OpSet,
				RHS: &Xform{Kind: XScatter, Key: tgt.Key.Clone(), Body: viewRef(t, tc.stmtSchema(s))}})
			return
		}
		t2 := tc.temp(tc.stmtSchema(s))
		tc.emit(LLocal, Stmt{LHS: t2, Op: eval.OpSet,
			RHS: &Xform{Kind: XScatter, Key: tgt.Key.Clone(), Body: viewRef(t, tc.stmtSchema(s))}})
		tc.cur[t2] = Loc{Kind: LDist, Key: tgt.Key.Clone()}
		tc.emit(LDist, Stmt{LHS: s.LHS, Op: eval.OpAdd, RHS: viewRef(t2, tc.stmtSchema(s))})
	case tgt.Kind == LIndiff:
		t := tc.temp(tc.stmtSchema(s))
		tc.emit(LLocal, Stmt{LHS: t, Op: eval.OpSet, RHS: rhs})
		tc.cur[t] = Local
		tc.installReplicated(s, t)
	default:
		// Local target — and transient (or scalar) Random targets
		// degrade to the driver too: later statements of this trigger
		// read them through the updated location.
		tc.emit(LLocal, Stmt{LHS: s.LHS, Op: s.Op, RHS: rhs})
		if tgt.Kind == LDist {
			tc.cur[s.LHS] = Local
		}
	}
}

// gatherToDriver collects a distributed relation at the driver (reused
// at O2+ while the source is unchanged).
func (tc *trigCompiler) gatherToDriver(src *expr.Rel) string {
	env := eval.RelEnvName(src)
	sig := "g|" + env
	if m := tc.cached(sig); m != nil {
		return m.temp
	}
	g := tc.temp(src.Cols)
	tc.emit(LLocal, Stmt{LHS: g, Op: eval.OpSet, RHS: &Xform{Kind: XGather, Body: src.Clone()}})
	tc.cur[g] = Local
	tc.cache = append(tc.cache, moved{sig: sig, src: env, temp: g})
	return g
}

// isTransient reports whether name is a per-batch scratch view of the
// program (read only by its own trigger, through cur).
func (tc *trigCompiler) isTransient(name string) bool {
	v := tc.prog.View(name)
	return v != nil && v.Transient
}

// rewriteRefs substitutes relation references (by environment name) with
// references to moved copies.
func rewriteRefs(e expr.Expr, sub map[string]*expr.Rel) expr.Expr {
	if len(sub) == 0 {
		return e
	}
	return expr.Transform(e, func(n expr.Expr) expr.Expr {
		if r, ok := n.(*expr.Rel); ok {
			if t, ok2 := sub[eval.RelEnvName(r)]; ok2 {
				return &expr.Rel{Kind: expr.RView, Name: t.Name, Cols: r.Cols.Clone(), LowCard: r.LowCard}
			}
		}
		return n
	})
}
