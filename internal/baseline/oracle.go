// Package baseline is the test oracle: a naive evaluator of expression
// trees that shares nothing with the engine. It reads the algebra of
// Sec. 3.1 directly as sums over generalized multiset relations — a
// relation is a list of rows, a product is a nested loop, an aggregate
// is a map from group to accumulated multiplicity — with no plans, no
// indexes and no engine storage. From internal/mring it uses only the
// value model (Value, Tuple) and Eps, and it keys tuples by its own exact
// identity (key), not mring's; from internal/expr the trees and their
// value semantics (EvalV, EvalCmp).
//
// Every test that needs ground truth for query semantics takes it from
// Eval: the goldens, the delta-derivation and compiler tests, the
// prepared-plan tests and the oracle-agreement fuzz target. The
// re-evaluation and classical-IVM strategies of Fig. 8 and Table 1 are
// engines, not oracles: compiled programs (compile.ReEvalProgram,
// compile.FirstOrderProgram) that internal/bench holds to Eval.
package baseline

import (
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/mring"
)

// Row is one tuple of a relation and its multiplicity.
type Row struct {
	Tuple mring.Tuple
	M     float64
}

// Rows is a relation as a plain list. Eval returns at most one row per
// tuple, by key identity, and none whose multiplicity is zero; read as
// input, a tuple may repeat, and its rows sum.
type Rows []Row

// Foreach implements Source.
func (rs Rows) Foreach(f func(mring.Tuple, float64)) {
	for _, r := range rs {
		f(r.Tuple, r.M)
	}
}

// Source is anything that lists the rows of a relation; an engine
// relation is one, and so is Rows.
type Source interface {
	Foreach(func(mring.Tuple, float64))
}

// DB names the relations a tree reads. A base or view term R reads
// db["R"]; a delta term ΔR reads db["ΔR"], the name the engine binds an
// update batch under.
type DB map[string]Source

// Of reads a map of relations, engine relations among them, as a DB.
func Of[S Source](rels map[string]S) DB {
	db := make(DB, len(rels))
	for n, r := range rels {
		db[n] = r
	}
	return db
}

// Changes is a change stream per relation name: every change a row of
// its own, in arrival order. Read through Of, it hands Eval the changes
// themselves, so rows an engine relation would merge are summed by the
// oracle's identity, not by the engine's.
type Changes map[string]Rows

// ChangesOf starts a change stream with every row of rels, as the
// relations' first changes.
func ChangesOf[S Source](rels map[string]S) Changes {
	c := make(Changes, len(rels))
	for n, r := range rels {
		c.Add(n, r)
	}
	return c
}

// Add appends a copy of every row of src to relation name's stream; an
// empty src still names the relation.
func (c Changes) Add(name string, src Source) {
	if _, ok := c[name]; !ok {
		c[name] = nil
	}
	src.Foreach(func(t mring.Tuple, m float64) { c.Row(name, t, m) })
}

// Row appends a copy of one change to relation name's stream.
func (c Changes) Row(name string, t mring.Tuple, m float64) {
	c[name] = append(c[name], Row{append(mring.Tuple(nil), t...), m})
}

// Eval evaluates q over db from scratch and returns its rows over
// q.Schema(). Each relation q reads is copied into a plain list once;
// the copy consolidates rows by key identity, so any Source reads as a
// relation.
func Eval(q expr.Expr, db DB) Rows {
	o := &oracle{db: db, lists: map[string]Rows{}}
	var out table
	schema := q.Schema()
	o.eval(q, nil, func(b *binding, m float64) { out.add(b.tuple(schema), m) })
	return out.live()
}

type oracle struct {
	db    DB
	lists map[string]Rows
}

// relation returns the rows of the relation r reads.
func (o *oracle) relation(r *expr.Rel) Rows {
	name := r.Name
	if r.Kind == expr.RDelta {
		name = "Δ" + name
	}
	if rows, ok := o.lists[name]; ok {
		return rows
	}
	src := o.db[name]
	if src == nil {
		panic(fmt.Sprintf("baseline: relation %q not in the database", name))
	}
	var t table
	src.Foreach(func(tp mring.Tuple, m float64) {
		if len(tp) != len(r.Cols) {
			panic(fmt.Sprintf("baseline: %s has arity %d, read as %v", name, len(tp), r))
		}
		t.add(append(mring.Tuple(nil), tp...), m)
	})
	o.lists[name] = t.live()
	return o.lists[name]
}

// eval calls yield once per row of e under the bindings b: with b
// extended by the columns of e's schema b leaves unbound, and with the
// row's multiplicity. Bindings flow left to right through products, as
// in the paper's model of computation (Sec. 3.2.1).
func (o *oracle) eval(e expr.Expr, b *binding, yield func(*binding, float64)) {
	switch x := e.(type) {
	case *expr.Const:
		if x.V != 0 {
			yield(b, x.V)
		}
	case *expr.Val:
		if v := x.E.EvalV(b.lookup).AsFloat(); v != 0 {
			yield(b, v)
		}
	case *expr.Cmp:
		if expr.EvalCmp(x.Op, x.L.EvalV(b.lookup), x.R.EvalV(b.lookup)) {
			yield(b, 1)
		}
	case *expr.Rel:
		// A column whose variable is already bound — outside the term or
		// at an earlier column of it — must hold the same key.
		for _, r := range o.relation(x) {
			if nb, ok := b.match(x.Cols, r.Tuple); ok {
				yield(nb, r.M)
			}
		}
	case *expr.Mul:
		o.product(x.Factors, b, 1, yield)
	case *expr.Plus:
		for _, t := range x.Terms {
			o.eval(t, b, yield)
		}
	case *expr.Agg:
		for _, g := range o.groups(x.Body, x.GroupBy, b) {
			nb, _ := b.match(x.GroupBy, g.Tuple)
			yield(nb, g.M)
		}
	case *expr.Assign:
		switch {
		case x.Q == nil:
			lift(x.Var, x.ValE.EvalV(b.lookup), b, yield)
		case len(x.Q.Schema()) == 0:
			// A scalar Q always has a value: the sum of its rows, 0 when
			// it has none.
			var total float64
			o.eval(x.Q, b, func(_ *binding, m float64) { total += m })
			lift(x.Var, mring.Float(total), b, yield)
		default:
			for _, g := range o.groups(x.Q, x.Q.Schema(), b) {
				nb, _ := b.match(x.Q.Schema(), g.Tuple)
				lift(x.Var, mring.Float(g.M), nb, yield)
			}
		}
	case *expr.Exists:
		for _, g := range o.groups(x.Body, x.Body.Schema(), b) {
			nb, _ := b.match(x.Body.Schema(), g.Tuple)
			yield(nb, 1)
		}
	default:
		panic(fmt.Sprintf("baseline: unknown node %T", e))
	}
}

// product joins factors left to right: each row of the first extends
// the bindings the rest evaluate under, and multiplicities multiply.
func (o *oracle) product(factors []expr.Expr, b *binding, acc float64, yield func(*binding, float64)) {
	if len(factors) == 0 {
		yield(b, acc)
		return
	}
	o.eval(factors[0], b, func(nb *binding, m float64) {
		o.product(factors[1:], nb, acc*m, yield)
	})
}

// groups evaluates body under b and sums its rows per value of cols.
func (o *oracle) groups(body expr.Expr, cols []string, b *binding) Rows {
	var t table
	o.eval(body, b, func(nb *binding, m float64) { t.add(nb.tuple(cols), m) })
	return t.live()
}

// lift is var := v: it binds an unbound variable, and filters a bound
// one on value equality.
func lift(name string, v mring.Value, b *binding, yield func(*binding, float64)) {
	if prev, ok := b.get(name); ok {
		if prev.Equal(v) {
			yield(b, 1)
		}
		return
	}
	yield(&binding{name, v, b}, 1)
}

// binding is one variable's value on an association list of bindings,
// newest first; nil binds nothing. Extending a list shares its tail, so
// a list handed to a continuation never changes afterwards.
type binding struct {
	name string
	v    mring.Value
	next *binding
}

func (b *binding) get(name string) (mring.Value, bool) {
	for ; b != nil; b = b.next {
		if b.name == name {
			return b.v, true
		}
	}
	return mring.Value{}, false
}

// lookup reads a variable a value term needs.
func (b *binding) lookup(name string) mring.Value {
	v, ok := b.get(name)
	if !ok {
		panic(fmt.Sprintf("baseline: variable %q read unbound", name))
	}
	return v
}

// match binds cols to t's values in order. A column whose variable is
// already bound — in b or at an earlier column — must hold a
// key-identical value, or t does not match.
func (b *binding) match(cols []string, t mring.Tuple) (*binding, bool) {
	var cells []binding // one allocation per row; never grown, so never moved
	nb := b
	for i, col := range cols {
		if v, ok := nb.get(col); ok {
			if !same(v, t[i]) {
				return nil, false
			}
			continue
		}
		if cells == nil {
			cells = make([]binding, 0, len(cols))
		}
		cells = append(cells, binding{col, t[i], nb})
		nb = &cells[len(cells)-1]
	}
	return nb, true
}

// tuple reads the values of cols.
func (b *binding) tuple(cols []string) mring.Tuple {
	t := make(mring.Tuple, len(cols))
	for i, c := range cols {
		t[i] = b.lookup(c)
	}
	return t
}

// key renders a tuple's identity: a string by its bytes, a finite number
// by its exact value as a fraction (so Float(3) is Int(3), -0 is 0, and no
// two distinct integers meet), an infinity by its sign and a NaN by its
// bits, so every NaN is itself.
func key(t mring.Tuple) string {
	var b []byte
	for _, v := range t {
		b = appendKey(b, v)
	}
	return string(b)
}

func appendKey(b []byte, v mring.Value) []byte {
	switch f := v.AsFloat(); {
	case v.Kind() == mring.KString:
		b = strconv.AppendInt(append(b, 's'), int64(len(v.Text())), 10)
		return append(append(b, ':'), v.Text()...)
	case v.Kind() == mring.KInt:
		b = strconv.AppendInt(append(b, 'n'), v.AsInt(), 10)
	case math.IsNaN(f):
		b = strconv.AppendUint(append(b, "nan"...), math.Float64bits(f), 16)
	case math.IsInf(f, 0):
		b = strconv.AppendFloat(append(b, 'n'), f, 'g', -1, 64)
	default:
		b = append(append(b, 'n'), new(big.Rat).SetFloat64(f).RatString()...)
	}
	return append(b, ';')
}

// same reports whether two values have one key.
func same(a, b mring.Value) bool {
	switch {
	case a.Kind() == mring.KInt && b.Kind() == mring.KInt:
		return a.AsInt() == b.AsInt()
	case a.Kind() == mring.KString || b.Kind() == mring.KString:
		return a.Kind() == b.Kind() && a.Text() == b.Text()
	}
	var ka, kb [32]byte
	return string(appendKey(ka[:0], a)) == string(appendKey(kb[:0], b))
}

// table sums multiplicities per tuple with the data model's rule: a
// zero contribution is nothing, and a tuple whose sum falls within Eps
// of zero is gone, so a later contribution starts it afresh.
type table struct {
	at   map[string]int // key of a live tuple → its row
	rows Rows
}

func (t *table) add(tp mring.Tuple, m float64) {
	if m == 0 {
		return
	}
	if t.at == nil {
		t.at = map[string]int{}
	}
	k := key(tp)
	i, ok := t.at[k]
	if !ok {
		t.at[k] = len(t.rows)
		t.rows = append(t.rows, Row{tp, m})
		return
	}
	t.rows[i].M += m
	if t.rows[i].M > -mring.Eps && t.rows[i].M < mring.Eps {
		t.rows[i].M = 0
		delete(t.at, k)
	}
}

// live returns the rows still present, in first-contribution order.
func (t *table) live() Rows {
	var out Rows
	for _, r := range t.rows {
		if r.M != 0 {
			out = append(out, r)
		}
	}
	return out
}

// Tolerance is the relative difference Diff allows between two
// multiplicities; below magnitude 1 it is absolute.
const Tolerance = 1e-9

// Diff compares got with want, both read as relations in which an
// absent tuple has multiplicity zero. Two multiplicities agree when
// they differ by at most Tolerance times the larger magnitude (at least
// 1), or are both NaN. Diff returns "" when every tuple agrees, and
// otherwise names the disagreements, at most five of them.
func Diff(got Source, want Rows) string {
	var g table
	got.Foreach(func(tp mring.Tuple, m float64) { g.add(append(mring.Tuple(nil), tp...), m) })
	gotRows := g.live()
	wantAt := map[string]float64{}
	for _, r := range want {
		wantAt[key(r.Tuple)] += r.M
	}
	gotAt := map[string]float64{}
	for _, r := range gotRows {
		gotAt[key(r.Tuple)] = r.M
	}
	var bad []string
	check := func(t mring.Tuple, gm, wm float64) {
		if len(bad) < 5 && !agree(gm, wm) {
			bad = append(bad, fmt.Sprintf("%v: got %g, want %g", t, gm, wm))
		}
	}
	for _, r := range want {
		check(r.Tuple, gotAt[key(r.Tuple)], r.M)
	}
	for _, r := range gotRows {
		if _, ok := wantAt[key(r.Tuple)]; !ok {
			check(r.Tuple, r.M, 0)
		}
	}
	if len(bad) == 0 {
		return ""
	}
	return fmt.Sprintf("%d rows, oracle %d; %s", len(gotRows), len(want), strings.Join(bad, "; "))
}

func agree(a, b float64) bool {
	switch {
	case a == b || math.IsNaN(a) && math.IsNaN(b):
		return true
	case math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0):
		return false
	}
	return math.Abs(a-b) <= Tolerance*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
