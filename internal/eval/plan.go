package eval

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/expr"
	"repro/internal/mring"
)

// Prepared plans. Which variables are bound where a node of a tree is
// reached depends only on the tree: bindings flow left to right through
// products, every node emits with its schema columns bound, and each node
// restores the bindings it made before it returns. Lowering runs that
// flow once, statically, with nothing bound at the top, so that:
//
//   - every variable gets a slot in a frame of values;
//   - every relational term gets its access path: get (all columns
//     bound) with a probe built from slots, slice (some bound) with its
//     bound positions, or foreach (none bound); a variable repeated among
//     its free columns binds at its first occurrence and is compared at
//     the later ones, and only free columns some node reads are written
//     into slots (liveness prunes the rest once the tree is lowered);
//   - every value term (Val, Cmp, Assign) reads slots, not a lookup, and
//     a numeric one computes in float64 without building a Value.
//
// The lowered nodes are wired in continuation-passing style: each node
// emits into a continuation fixed at lowering, so evaluation allocates no
// closures, and the state a node keeps while its continuation runs (a
// product's running multiplicity, an aggregate's groups) lives in a
// per-node cell of the Ctx's scratch. TestPreparedMatchesReference holds
// every compiled TPC-H and TPC-DS statement to the oracle
// (internal/baseline), and pins its emission order, fold order, float
// arithmetic order and the operations counted in Stats to committed
// digests.

// Plan is one expression tree lowered for execution. It is immutable and
// may be shared by any number of contexts.
type Plan struct {
	root   *matNode
	rels   []string // environment names of the relations the tree reads
	slots  int      // frame size
	keys   int      // probe and group key scratch size
	cells  int      // per-node state cells
	access []Access
}

// Access is the access path lowering fixed for one relational term: the
// environment name it reads, the positions of its columns bound when it
// is reached — none is a foreach scan, all a get, some a slice — and the
// positions of its free columns it writes into the frame, those whose
// variable some node of the tree reads.
type Access struct {
	Rel    *expr.Rel
	Env    string
	Bound  []int
	Writes []int
}

// Slice reports whether the access probes a secondary index: some but
// not all columns bound, and every bound position within an index mask
// (a wider relation is sliced by a filtered scan).
func (a Access) Slice() bool {
	return len(a.Bound) > 0 && len(a.Bound) < len(a.Rel.Cols) && mring.Indexable(a.Bound)
}

// Plans is a plan table: the prepared plans of a set of trees, keyed by
// tree. Its owner is whatever owns the trees — a compiled program's
// executor, one prepared cluster block, a baseline engine — so the plans
// and the trees they were lowered from are released together.
type Plans map[expr.Expr]*Plan

// Prepare lowers every tree of es into a plan table. It refuses a tree
// that reads a variable not bound where it is read, or that mentions a
// variable bound on some terms of a union but not all of them.
func Prepare(es ...expr.Expr) (Plans, error) {
	ps := make(Plans, len(es))
	for _, e := range es {
		if ps[e] != nil {
			continue
		}
		p, err := prepare(e)
		if err != nil {
			return nil, err
		}
		ps[e] = p
	}
	return ps, nil
}

func prepare(e expr.Expr) (*Plan, error) {
	l := &lowerer{slots: map[string]int{}, relIdx: map[string]int{}, reads: map[int]bool{}}
	root, _ := l.materializer(e, nil)
	if l.err != nil {
		return nil, l.err
	}
	for _, f := range append(l.binds, l.rows...) {
		f.binds = slices.DeleteFunc(f.binds, func(b colSlot) bool { return !l.reads[b.slot] })
	}
	for i, f := range l.binds {
		for _, b := range f.binds {
			l.access[i].Writes = append(l.access[i].Writes, b.pos)
		}
	}
	return &Plan{root: root, rels: l.rels, slots: len(l.slots), keys: l.keys, cells: l.cells, access: l.access}, nil
}

// Rels returns the environment names of the relations the plan reads.
func (p *Plan) Rels() []string { return p.rels }

// Accesses returns the access path of every relational term of the tree,
// in tree order.
func (p *Plan) Accesses() []Access { return p.access }

// Static binding state at one point of a tree, per slot.
const (
	unbound uint8 = iota
	bound
	mixed // bound after some terms of a union, not after others
)

// state is a binding state indexed by slot; slots past its end are
// unbound. States are never mutated, only copied.
type state []uint8

func (s state) at(slot int) uint8 {
	if slot < len(s) {
		return s[slot]
	}
	return unbound
}

// with returns a copy of s with the given slots bound.
func (s state) with(slots ...int) state {
	n := len(s)
	for _, i := range slots {
		n = max(n, i+1)
	}
	out := make(state, n)
	copy(out, s)
	for _, i := range slots {
		out[i] = bound
	}
	return out
}

// merge is the state after a union: bound where every term left the slot
// bound, unbound where none did, mixed elsewhere.
func merge(ss []state) state {
	n := 0
	for _, s := range ss {
		n = max(n, len(s))
	}
	out := make(state, n)
	for i := range out {
		out[i] = ss[0].at(i)
		for _, s := range ss[1:] {
			if s.at(i) != out[i] {
				out[i] = mixed
			}
		}
	}
	return out
}

// lowerer holds one tree's lowering. Errors are sticky: the first is
// kept and lowering runs on to completion with placeholder nodes.
type lowerer struct {
	slots  map[string]int
	relIdx map[string]int
	rels   []string
	keys   int
	cells  int
	access []Access
	reads  map[int]bool // slots some node reads
	binds  []*freeCols  // per access: the free columns its term writes
	rows   []*freeCols  // the columns each materialized row writes
	err    error
}

func (l *lowerer) fail(format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf("eval: "+format, args...)
	}
}

func (l *lowerer) slot(name string) int {
	s, ok := l.slots[name]
	if !ok {
		s = len(l.slots)
		l.slots[name] = s
	}
	return s
}

func (l *lowerer) slotsOf(cols []string) []int {
	out := make([]int, len(cols))
	for i, c := range cols {
		out[i] = l.slot(c)
	}
	return out
}

// read returns the slot of a variable the tree reads at a point with
// binding state in, which must bind it.
func (l *lowerer) read(in state, name string) int {
	s := l.slot(name)
	switch in.at(s) {
	case unbound:
		l.fail("variable %q read unbound", name)
	case mixed:
		l.fail("variable %q read where only some union terms bind it", name)
	}
	l.reads[s] = true
	return s
}

// isBound reports whether a variable the tree binds or compares at a
// point with state in is bound there, and counts a bound one as read.
func (l *lowerer) isBound(in state, s int, name string) bool {
	if in.at(s) == mixed {
		l.fail("variable %q bound where only some union terms bind it", name)
	}
	l.reads[s] = l.reads[s] || in.at(s) == bound
	return in.at(s) == bound
}

func (l *lowerer) rel(env string) int {
	i, ok := l.relIdx[env]
	if !ok {
		i = len(l.rels)
		l.relIdx[env] = i
		l.rels = append(l.rels, env)
	}
	return i
}

func (l *lowerer) key(n int) int {
	off := l.keys
	l.keys += n
	return off
}

func (l *lowerer) cell(n int) int {
	off := l.cells
	l.cells += n
	return off
}

// rowWrites returns the positions of cols unbound in in and their slots:
// the columns a materialized row writes back into the frame.
func (l *lowerer) rowWrites(in state, cols []string) *freeCols {
	f := &freeCols{}
	for i, c := range cols {
		if s := l.slot(c); !l.isBound(in, s, c) {
			f.binds = append(f.binds, colSlot{pos: i, slot: s})
		}
	}
	l.rows = append(l.rows, f)
	return f
}

// lower lowers e, reached with binding state in, emitting into k, and
// returns the node and the state whenever it emits.
func (l *lowerer) lower(e expr.Expr, in state, k sink) (node, state) {
	switch x := e.(type) {
	case *expr.Const:
		return &constNode{v: x.V, k: k}, in
	case *expr.Val:
		return &valNode{v: l.value(x.E, in), k: k}, in
	case *expr.Cmp:
		lv, rv := l.value(x.L, in), l.value(x.R, in)
		s, slot := lv.(vslot)
		if c, ok := rv.(vconst); slot && ok && c.v.K == mring.KInt {
			return &cmpIntNode{op: x.Op, slot: int(s), lit: c.v.I, k: k}, in
		}
		return &cmpNode{op: x.Op, l: lv, r: rv, k: k}, in
	case *expr.Rel:
		return l.lowerRel(x, in, k)
	case *expr.Mul:
		n := &mulNode{cell: l.cell(len(x.Factors)), k: k}
		cur := in
		var prev *mulStep
		for i, f := range x.Factors {
			step := &mulStep{mul: n, i: i}
			fn, out := l.lower(f, cur, step)
			if prev == nil {
				n.first = fn
			} else {
				prev.next = fn
			}
			prev, cur = step, out
		}
		return n, cur
	case *expr.Plus:
		if len(x.Terms) == 0 {
			return &plusNode{}, in
		}
		n := &plusNode{terms: make([]node, len(x.Terms))}
		outs := make([]state, len(x.Terms))
		for i, t := range x.Terms {
			n.terms[i], outs[i] = l.lower(t, in, k)
		}
		return n, merge(outs)
	case *expr.Agg:
		return l.lowerAgg(x, in, k)
	case *expr.Assign:
		s := l.slot(x.Var)
		if x.Q == nil {
			n := &assignVal{v: l.value(x.ValE, in), slot: s, bound: l.isBound(in, s, x.Var), k: k}
			return n, in.with(s)
		}
		if len(x.Q.Schema()) == 0 {
			n := &assignScalar{cell: l.cell(1), slot: s, bound: l.isBound(in, s, x.Var), k: k}
			n.q, _ = l.lower(x.Q, in, n)
			return n, in.with(s)
		}
		n := &assignRel{slot: s, k: k}
		n.q, _ = l.materializer(x.Q, in)
		n.free = l.rowWrites(in, x.Q.Schema())
		after := in.with(l.slotsOf(x.Q.Schema())...)
		n.bound = l.isBound(after, s, x.Var)
		return n, after.with(s)
	case *expr.Exists:
		schema := x.Body.Schema()
		if len(schema) == 0 {
			n := &existsScalar{cell: l.cell(1), k: k}
			n.body, _ = l.lower(x.Body, in, n)
			return n, in
		}
		n := &existsRel{k: k}
		n.body, _ = l.materializer(x.Body, in)
		n.free = l.rowWrites(in, schema)
		return n, in.with(l.slotsOf(schema)...)
	case nil:
		l.fail("missing node")
	default:
		l.fail("unknown node %T", e)
	}
	return &plusNode{}, in
}

// lowerRel fixes a relational term's access path from the columns bound
// where it is reached.
func (l *lowerer) lowerRel(r *expr.Rel, in state, k sink) (node, state) {
	env := RelEnvName(r)
	base := relNode{rel: l.rel(env), env: env, name: r.Name, arity: len(r.Cols), k: k}
	var pos, probe []int
	f := &freeCols{}
	first := map[int]int{} // slot -> position of its first free occurrence
	for i, col := range r.Cols {
		s := l.slot(col)
		if l.isBound(in, s, col) {
			pos = append(pos, i)
			probe = append(probe, s)
			continue
		}
		if j, ok := first[s]; ok {
			f.eqs = append(f.eqs, colPair{pos: i, first: j})
			continue
		}
		first[s] = i
		f.binds = append(f.binds, colSlot{pos: i, slot: s})
	}
	l.access = append(l.access, Access{Rel: r, Env: env, Bound: pos})
	l.binds = append(l.binds, f)
	out := in
	for _, b := range f.binds {
		out = out.with(b.slot)
	}
	switch {
	case len(pos) == len(r.Cols):
		return &getNode{relNode: base, slots: probe, key: l.key(len(probe))}, out
	case len(pos) == 0:
		return &scanNode{relNode: base, freeCols: f}, out
	default:
		return &sliceNode{relNode: base, freeCols: f, pos: pos, slots: probe, key: l.key(len(probe)),
			scan: !mring.Indexable(pos)}, out
	}
}

func (l *lowerer) lowerAgg(a *expr.Agg, in state, k sink) (*aggNode, state) {
	n := &aggNode{schema: a.GroupBy, cell: l.cell(1), key: l.key(len(a.GroupBy)), k: k}
	var out state
	n.body, out = l.lower(a.Body, in, n)
	n.gb = make([]int, len(a.GroupBy))
	for i, col := range a.GroupBy {
		n.gb[i] = l.read(out, col)
		if !l.isBound(in, n.gb[i], col) {
			n.free = append(n.free, i)
		}
	}
	return n, in.with(n.gb...)
}

// materializer lowers e, reached with state in, into a node that
// evaluates it into a relation.
func (l *lowerer) materializer(e expr.Expr, in state) (*matNode, state) {
	if a, ok := e.(*expr.Agg); ok {
		agg, out := l.lowerAgg(a, in, nil)
		return &matNode{agg: agg}, out
	}
	if e == nil {
		l.fail("missing node")
		return &matNode{body: &plusNode{}}, in
	}
	schema := e.Schema()
	n := &matNode{schema: schema.Clone(), cell: l.cell(1), key: l.key(len(schema))}
	var out state
	n.body, out = l.lower(e, in, n)
	n.slots = make([]int, len(schema))
	for i, col := range schema {
		n.slots[i] = l.read(out, col)
	}
	return n, out
}

// value lowers a value term to slot reads.
func (l *lowerer) value(v expr.VExpr, in state) vprog {
	switch x := v.(type) {
	case expr.VarRef:
		return vslot(l.read(in, x.Name))
	case expr.Lit:
		return lit(x.V)
	case expr.Arith:
		return &varith{op: x.Op, l: l.value(x.L, in), r: l.value(x.R, in)}
	case *expr.VarRef:
		if x != nil {
			return l.value(*x, in)
		}
	case *expr.Lit:
		if x != nil {
			return l.value(*x, in)
		}
	case *expr.Arith:
		if x != nil {
			return l.value(*x, in)
		}
	case nil:
	default:
		l.fail("unknown value term %T", v)
		return vconst{}
	}
	l.fail("missing value term")
	return vconst{}
}

// node is one lowered operator: run evaluates it under the frame and
// emits into its continuation.
type node interface{ run(c *Ctx) }

// sink is a continuation: emit receives one produced row's multiplicity,
// with the row's columns in their frame slots.
type sink interface{ emit(c *Ctx, m float64) }

// cell is the run-time state of one node while its continuation runs.
type cell struct {
	acc   float64
	alive bool
	rel   *mring.Relation
}

// colSlot writes row position pos to a frame slot.
type colSlot struct{ pos, slot int }

// colPair requires row position pos to equal position first.
type colPair struct{ pos, first int }

type constNode struct {
	v float64
	k sink
}

func (n *constNode) run(c *Ctx) {
	if n.v != 0 {
		c.Stats.Emits++
		n.k.emit(c, n.v)
	}
}

type valNode struct {
	v vprog
	k sink
}

func (n *valNode) run(c *Ctx) {
	if v := n.v.float(c.frame); v != 0 {
		c.Stats.Emits++
		n.k.emit(c, v)
	}
}

type cmpNode struct {
	op   expr.CmpOp
	l, r vprog
	k    sink
}

func (n *cmpNode) run(c *Ctx) {
	if expr.EvalCmp(n.op, n.l.val(c.frame), n.r.val(c.frame)) {
		c.Stats.Emits++
		n.k.emit(c, 1)
	}
}

// cmpIntNode compares a slot with an integer literal.
type cmpIntNode struct {
	op   expr.CmpOp
	slot int
	lit  int64
	k    sink
}

func (n *cmpIntNode) run(c *Ctx) {
	if cmpInt(n.op, &c.frame[n.slot], n.lit) {
		c.Stats.Emits++
		n.k.emit(c, 1)
	}
}

// cmpInt is expr.EvalCmp(op, *v, mring.Int(lit)), comparing the integers
// directly when v holds one.
func cmpInt(op expr.CmpOp, v *mring.Value, lit int64) bool {
	if v.K != mring.KInt {
		return expr.EvalCmp(op, *v, mring.Int(lit))
	}
	switch op {
	case expr.CEq:
		return v.I == lit
	case expr.CNe:
		return v.I != lit
	case expr.CLt:
		return v.I < lit
	case expr.CLe:
		return v.I <= lit
	case expr.CGt:
		return v.I > lit
	default:
		return v.I >= lit
	}
}

// mulNode is an n-ary product. Cell cell+i holds the running product of
// the factors before factor i while it runs.
type mulNode struct {
	first node // nil for the empty product
	cell  int
	k     sink
}

func (n *mulNode) run(c *Ctx) {
	if n.first == nil {
		n.k.emit(c, 1)
		return
	}
	c.cells[n.cell].acc = 1
	n.first.run(c)
}

// mulStep is factor i's continuation: it multiplies the running product
// by the factor's row and runs the next factor, or emits the product
// after the last.
type mulStep struct {
	mul  *mulNode
	i    int
	next node
}

func (s *mulStep) emit(c *Ctx, m float64) {
	acc := c.cells[s.mul.cell+s.i].acc * m
	if s.next == nil {
		s.mul.k.emit(c, acc)
		return
	}
	c.cells[s.mul.cell+s.i+1].acc = acc
	s.next.run(c)
}

// plusNode streams each term into the union's continuation: downstream
// operators are linear in multiplicity, so that equals materializing the
// union first.
type plusNode struct{ terms []node }

func (n *plusNode) run(c *Ctx) {
	for _, t := range n.terms {
		t.run(c)
	}
}

// relNode is what every access path shares: the relation, resolved per
// execution, and the names it reports in traces and panics.
type relNode struct {
	rel   int
	env   string
	name  string
	arity int
	k     sink
}

func (n *relNode) relation(c *Ctx) *mring.Relation {
	r := c.rels[n.rel]
	if r == nil {
		panic(fmt.Sprintf("eval: relation %q not defined", n.env))
	}
	return r
}

// freeCols binds a term's free columns from a row.
type freeCols struct {
	binds []colSlot
	eqs   []colPair // later occurrences of a repeated variable
}

// bind writes t's free columns into the frame, reporting false (and
// writing nothing) when t fails a repeated variable's equality.
func (f *freeCols) bind(c *Ctx, t mring.Tuple) bool {
	for _, e := range f.eqs {
		if !t[e.pos].KeyEqual(t[e.first]) {
			return false
		}
	}
	for _, b := range f.binds {
		c.frame[b.slot] = t[b.pos]
	}
	return true
}

// getNode is the get path: every column bound, one lookup.
type getNode struct {
	relNode
	slots []int // per column
	key   int
}

func (n *getNode) run(c *Ctx) {
	rel := n.relation(c)
	key := c.key(n.key, len(n.slots))
	for i, s := range n.slots {
		key[i] = c.frame[s]
	}
	c.Stats.Lookups++
	if m := rel.Get(key); m != 0 {
		c.Stats.Emits++
		n.k.emit(c, m)
	}
}

// scanNode is the foreach path: no column bound.
type scanNode struct {
	relNode
	*freeCols
}

func (n *scanNode) run(c *Ctx) {
	n.relation(c).Foreach(func(t mring.Tuple, m float64) {
		c.Stats.Scans++
		if len(t) != n.arity {
			panic(fmt.Sprintf("eval: arity mismatch scanning %s", n.name))
		}
		if !n.bind(c, t) {
			return
		}
		c.Stats.Emits++
		n.k.emit(c, m)
	})
}

// sliceNode is the slice path: it probes the relation's secondary index
// on the bound positions, or, when they exceed an index mask, scans and
// filters.
type sliceNode struct {
	relNode
	*freeCols
	pos   []int // bound positions, ascending
	slots []int // their slots
	key   int
	scan  bool
}

func (n *sliceNode) run(c *Ctx) {
	rel := n.relation(c)
	var idx *mring.Index
	if !n.scan {
		var built bool
		if idx, built = rel.EnsureIndex(n.pos); built {
			c.Stats.IndexOps++
		}
	}
	probe := c.key(n.key, len(n.slots))
	for j, s := range n.slots {
		probe[j] = c.frame[s]
	}
	c.Stats.Lookups++
	if n.scan {
		rel.Foreach(func(t mring.Tuple, m float64) {
			c.Stats.Scans++
			if t.EqualAt(n.pos, probe) {
				n.match(c, t, m)
			}
		})
		return
	}
	idx.Probe(probe, func(t mring.Tuple, m float64) {
		c.Stats.Scans++
		n.match(c, t, m)
	})
}

func (n *sliceNode) match(c *Ctx, t mring.Tuple, m float64) {
	if !n.bind(c, t) {
		return
	}
	c.Stats.Emits++
	n.k.emit(c, m)
}

// aggNode is Sum_[gb](body): the body folds into a scratch relation,
// and each live group is emitted in first-insertion order with its
// group-by columns in their slots. Its cell holds the relation while the
// body runs; the relation comes from the context's spares, and whoever
// reads it last releases it.
type aggNode struct {
	body   node
	schema mring.Schema
	gb     []int // group-by slots
	free   []int // group-by positions unbound where the node is reached
	cell   int
	key    int
	k      sink
}

func (n *aggNode) groups(c *Ctx) *mring.Relation {
	gt := c.table(n.schema)
	c.cells[n.cell].rel = gt
	n.body.run(c)
	c.cells[n.cell].rel = nil
	return gt
}

// emit is the body's continuation: one add per body row, through a
// reused key.
func (n *aggNode) emit(c *Ctx, m float64) {
	key := c.key(n.key, len(n.gb))
	for i, s := range n.gb {
		key[i] = c.frame[s]
	}
	c.cells[n.cell].rel.Add(key, m)
}

func (n *aggNode) run(c *Ctx) {
	gt := n.groups(c)
	gt.Foreach(func(t mring.Tuple, m float64) {
		for _, i := range n.free {
			c.frame[n.gb[i]] = t[i]
		}
		c.Stats.Emits++
		n.k.emit(c, m)
	})
	c.release(gt)
}

// matNode evaluates a tree into a scratch relation from the context's
// spares: an aggregate through its groups, anything else by adding each
// row, read from the schema columns' slots, to the relation its cell
// holds. The caller owns the relation and may hand it back with release.
type matNode struct {
	agg    *aggNode
	body   node
	schema mring.Schema
	slots  []int
	cell   int
	key    int
}

func (n *matNode) relation(c *Ctx) *mring.Relation {
	if n.agg != nil {
		out := n.agg.groups(c)
		c.Stats.Emits += int64(out.Len())
		return out
	}
	out := c.table(n.schema)
	c.cells[n.cell].rel = out
	n.body.run(c)
	c.cells[n.cell].rel = nil
	return out
}

func (n *matNode) emit(c *Ctx, m float64) {
	key := c.key(n.key, len(n.slots))
	for i, s := range n.slots {
		key[i] = c.frame[s]
	}
	c.cells[n.cell].rel.Add(key, m)
}

// lift binds a lifted variable and emits 1; a variable already bound
// filters on equality instead.
func (c *Ctx) lift(slot int, bound bool, v mring.Value, k sink) {
	if bound {
		if c.frame[slot].Equal(v) {
			c.Stats.Emits++
			k.emit(c, 1)
		}
		return
	}
	c.frame[slot] = v
	c.Stats.Emits++
	k.emit(c, 1)
}

// assignVal is var := value.
type assignVal struct {
	v     vprog
	slot  int
	bound bool
	k     sink
}

func (n *assignVal) run(c *Ctx) { c.lift(n.slot, n.bound, n.v.val(c.frame), n.k) }

// assignScalar is var := Q for a scalar Q: always defined, 0 when Q is
// empty (COUNT over the empty set). Its cell sums Q's rows.
type assignScalar struct {
	q     node
	cell  int
	slot  int
	bound bool
	k     sink
}

func (n *assignScalar) run(c *Ctx) {
	c.cells[n.cell].acc = 0
	n.q.run(c)
	c.lift(n.slot, n.bound, mring.Float(c.cells[n.cell].acc), n.k)
}

func (n *assignScalar) emit(c *Ctx, m float64) { c.cells[n.cell].acc += m }

// assignRel is var := Q for a grouped Q. Lifting is not linear in Q's
// multiplicities, so Q is materialized under the current (correlated)
// bindings, and each of its rows binds Q's columns and lifts its
// multiplicity.
type assignRel struct {
	q     *matNode
	free  *freeCols
	slot  int
	bound bool
	k     sink
}

func (n *assignRel) run(c *Ctx) {
	q := n.q.relation(c)
	q.Foreach(func(t mring.Tuple, m float64) {
		n.free.bind(c, t)
		c.lift(n.slot, n.bound, mring.Float(m), n.k)
	})
	c.release(q)
}

// existsScalar is Exists over a body with an empty schema. Its cell is an
// inline single-group accumulator with Relation.Add's in-table
// cancellation semantics, bit for bit: zero contributions are skipped, a
// fresh contribution starts the group (tiny values survive), and
// accumulating into (-Eps, Eps) cancels it. Scalar Exists thereby agrees
// with the grouped shape (TestExistsScalarMatchesGrouped pins the
// agreement) without allocating a table per evaluation.
type existsScalar struct {
	body node
	cell int
	k    sink
}

func (n *existsScalar) run(c *Ctx) {
	st := &c.cells[n.cell]
	st.acc, st.alive = 0, false
	n.body.run(c)
	if c.cells[n.cell].alive {
		c.Stats.Emits++
		n.k.emit(c, 1)
	}
}

func (n *existsScalar) emit(c *Ctx, m float64) {
	if m == 0 {
		return
	}
	st := &c.cells[n.cell]
	if !st.alive {
		st.acc, st.alive = m, true
		return
	}
	st.acc += m
	if st.acc > -mring.Eps && st.acc < mring.Eps {
		st.alive = false
	}
}

// existsRel is Exists over a body with columns: Exists is not linear, so
// the body is materialized and each distinct row emits multiplicity 1.
type existsRel struct {
	body *matNode
	free *freeCols
	k    sink
}

func (n *existsRel) run(c *Ctx) {
	body := n.body.relation(c)
	body.Foreach(func(t mring.Tuple, _ float64) {
		n.free.bind(c, t)
		c.Stats.Emits++
		n.k.emit(c, 1)
	})
	c.release(body)
}

// vprog is a value term lowered to slot reads. float is val(frame).AsFloat()
// bit for bit, computed without building a Value.
type vprog interface {
	val(frame []mring.Value) mring.Value
	float(frame []mring.Value) float64
}

type vslot int

func (v vslot) val(frame []mring.Value) mring.Value { return frame[v] }
func (v vslot) float(frame []mring.Value) float64   { return frame[v].AsFloat() }

// vconst is a literal, converted to float once.
type vconst struct {
	v mring.Value
	f float64
}

func lit(v mring.Value) vconst { return vconst{v: v, f: v.AsFloat()} }

func (v vconst) val([]mring.Value) mring.Value { return v.v }
func (v vconst) float([]mring.Value) float64   { return v.f }

type varith struct {
	op   expr.VOp
	l, r vprog
}

func (v *varith) val(frame []mring.Value) mring.Value {
	return expr.ArithV(v.op, v.l.float(frame), v.r.float(frame))
}

func (v *varith) float(frame []mring.Value) float64 {
	return arith(v.op, v.l.float(frame), v.r.float(frame))
}

// arith is expr.ArithV(op, l, r).AsFloat() bit for bit. Each result is
// converted explicitly, which the Go spec makes round it: the compiler
// may not fuse a product into a sum and skip the product's rounding.
func arith(op expr.VOp, l, r float64) float64 {
	switch {
	case op == expr.VAdd:
		return float64(l + r)
	case op == expr.VSub:
		return float64(l - r)
	case op == expr.VMul:
		return float64(l * r)
	case r == 0:
		return 0
	case op == expr.VFloorDiv:
		q := math.Floor(l / r)
		if q >= -0x1p63 && q < 0x1p63 {
			return float64(int64(q)) // -0 becomes 0, as through Int
		}
		return q
	default:
		return float64(l / r)
	}
}
