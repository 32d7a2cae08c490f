package mring

import (
	"fmt"
	"sort"
	"strings"
)

// Eps is the threshold under which a multiplicity counts as zero; tuples
// whose multiplicity crosses zero are removed from the relation so that
// every stored tuple has a non-zero multiplicity, as the data model demands.
const Eps = 1e-9

// Schema is an ordered list of column names.
type Schema []string

// Index returns the position of col in the schema, or -1.
func (s Schema) Index(col string) int {
	for i, c := range s {
		if c == col {
			return i
		}
	}
	return -1
}

// Contains reports whether col is in the schema.
func (s Schema) Contains(col string) bool { return s.Index(col) >= 0 }

// Positions maps each column name in cols to its position in s.
// It panics if a column is missing; schema mismatches are programming
// errors in compiled trigger programs.
func (s Schema) Positions(cols []string) []int {
	idx := make([]int, len(cols))
	for i, c := range cols {
		j := s.Index(c)
		if j < 0 {
			panic(fmt.Sprintf("mring: column %q not in schema %v", c, s))
		}
		idx[i] = j
	}
	return idx
}

// Equal reports whether two schemas have the same columns in the same order.
func (s Schema) Equal(o Schema) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone copies the schema.
func (s Schema) Clone() Schema { return append(Schema(nil), s...) }

// Intersect returns the columns of s also present in o, in s's order.
func (s Schema) Intersect(o Schema) Schema {
	var out Schema
	for _, c := range s {
		if o.Contains(c) {
			out = append(out, c)
		}
	}
	return out
}

// Union returns s followed by the columns of o not in s.
func (s Schema) Union(o Schema) Schema {
	out := s.Clone()
	for _, c := range o {
		if !out.Contains(c) {
			out = append(out, c)
		}
	}
	return out
}

// entry is one slab slot: a unique tuple's multiplicity, the low 32 bits
// of its hash (enough to place it in any table without re-hashing, and
// an equality pre-filter), the id of the next entry in its bucket chain,
// and its neighbours in the relation's insertion order. The tuple's
// values live in the relation's arena under the same id. Entries hold no
// pointers, so the collector never scans the slab, and secondary indexes
// share them by id, so a multiplicity update is visible everywhere
// without index maintenance.
type entry struct {
	m          float64
	h          uint32
	next       int32
	prev, succ int32 // insertion order; 0 ends it
}

// Relation is a generalized multiset relation: a finite map from unique
// tuples to non-zero multiplicities. Storage is hash-native and owned by
// the relation: an open-chained power-of-two bucket table keyed directly
// by the tuples' 64-bit canonical hash, whose chains link entry ids in a
// slab, with each tuple's values copied into a chunked arena. Lookups
// and inserts never materialize string keys, never re-hash the key the
// way a built-in map would, and a stored tuple costs no allocation of its
// own. The live entries also form a doubly-linked list in insertion
// order, and every walk follows it: the order a relation hands out its
// tuples in depends only on the sequence of live insertions, not on the
// table's capacity, the hash or what was deleted. Views, update batches
// and per-statement aggregates are all relations. The zero value is not
// ready to use; construct with NewRelation.
type Relation struct {
	schema Schema
	ents   []entry // slab; ents[0] is a sentinel, so id 0 ends a chain
	vals   arena   // entry id -> tuple values
	free   int32   // removed slots, chained through next; 0 when none
	tab    []int32 // power-of-two bucket heads, nil until first insert
	mask   uint32  // len(tab)-1
	n      int
	// first and last are the ends of the insertion order; 0 when empty.
	first, last int32
	// idxs holds the registered secondary indexes in registration order;
	// they are maintained incrementally on every mutation.
	idxs []*Index
	// hashFn overrides tuple hashing in tests (forcing collisions); nil
	// means Tuple.Hash. Set it before the first insert.
	hashFn func(Tuple) uint64
}

// NewRelation returns an empty relation with the given schema.
func NewRelation(schema Schema) *Relation {
	return &Relation{schema: schema.Clone(), vals: arena{arity: len(schema)}}
}

// SetHashFnForTest overrides tuple hashing, so tests can force collision
// chains. The relation must be empty.
func (r *Relation) SetHashFnForTest(fn func(Tuple) uint64) {
	if r.n != 0 {
		panic("mring: SetHashFnForTest on a non-empty relation")
	}
	r.hashFn = fn
}

// grow doubles the bucket table (or creates it) and relinks every entry
// under its stored hash, along the insertion order — no per-entry
// allocation.
func (r *Relation) grow() {
	size := 8
	if len(r.tab) > 0 {
		size = len(r.tab) * 2
	}
	r.tab, r.mask = make([]int32, size), uint32(size-1)
	for id := r.first; id != 0; id = r.ents[id].succ {
		e := &r.ents[id]
		i := e.h & r.mask
		e.next, r.tab[i] = r.tab[i], id
	}
}

// Schema returns the relation's column names. Callers must not mutate it.
func (r *Relation) Schema() Schema { return r.schema }

// Len returns the number of tuples with non-zero multiplicity.
func (r *Relation) Len() int { return r.n }

// TableSize returns the current bucket-table size: 0 before the first
// insert, otherwise a power of two >= 8 that only ever grows (Clear and
// deletions keep capacity). It is a capacity hint for Preseed; no order
// depends on it.
func (r *Relation) TableSize() int { return len(r.tab) }

// Preseed sets the bucket table of an empty relation to the given size
// (a power of two >= 8, as produced by TableSize on a non-fresh
// relation), so that restoring rows which fit in it never grows it.
// Misuse is a programming error and panics; validation of sizes read
// from disk belongs to the decode layers.
func (r *Relation) Preseed(buckets int) {
	if r.tab != nil || r.n != 0 {
		panic("mring: Preseed on non-empty relation")
	}
	if buckets < 8 || buckets&(buckets-1) != 0 {
		panic(fmt.Sprintf("mring: Preseed size %d not a power of two >= 8", buckets))
	}
	r.tab = make([]int32, buckets)
	r.mask = uint32(buckets - 1)
}

// hash returns the low 32 bits of t's hash, which is all the relation
// keeps.
func (r *Relation) hash(t Tuple) uint32 {
	if r.hashFn != nil {
		return uint32(r.hashFn(t))
	}
	return uint32(t.Hash())
}

// find returns the id of the entry holding t under hash h, or 0.
func (r *Relation) find(h uint32, t Tuple) int32 {
	if r.tab == nil {
		return 0
	}
	for id := r.tab[h&r.mask]; id != 0; id = r.ents[id].next {
		if r.ents[id].h == h && r.vals.at(id).KeyEqual(t) {
			return id
		}
	}
	return 0
}

// insertHashed copies t (which must not be present) into a fresh entry
// under its precomputed hash, reusing a removed slot when there is one,
// and appends it to the insertion order.
func (r *Relation) insertHashed(h uint32, t Tuple, m float64) {
	if r.n >= len(r.tab) { // covers the nil table: 0 >= 0
		r.grow()
	}
	id := r.free
	if id != 0 {
		r.vals.put(id, t)
		r.free = r.ents[id].next
	} else {
		if len(r.ents) == 0 {
			r.ents = append(r.ents, entry{}) // the sentinel
		}
		id = int32(len(r.ents))
		r.vals.put(id, t)
		r.ents = append(r.ents, entry{})
	}
	i := h & r.mask
	r.ents[id] = entry{m: m, h: h, next: r.tab[i], prev: r.last}
	r.tab[i] = id
	if r.last != 0 {
		r.ents[r.last].succ = id
	} else {
		r.first = id
	}
	r.last = id
	r.n++
	for _, ix := range r.idxs {
		ix.insert(id)
	}
}

// remove unlinks entry id from its bucket chain, the insertion order and
// all secondary indexes, zeroes its values and puts its slot on the free
// list.
func (r *Relation) remove(id int32) {
	e := r.ents[id]
	link := &r.tab[e.h&r.mask]
	for *link != id {
		link = &r.ents[*link].next
	}
	*link = e.next
	if e.prev != 0 {
		r.ents[e.prev].succ = e.succ
	} else {
		r.first = e.succ
	}
	if e.succ != 0 {
		r.ents[e.succ].prev = e.prev
	} else {
		r.last = e.prev
	}
	r.n--
	for _, ix := range r.idxs {
		ix.remove(id)
	}
	r.vals.zero(id)
	r.ents[id] = entry{next: r.free}
	r.free = id
}

// Add adds m to the multiplicity of tuple t, inserting or deleting as
// needed. The tuple is copied; callers may reuse t.
func (r *Relation) Add(t Tuple, m float64) {
	r.addHashed(r.hash(t), t, m)
}

// addHashed is Add under a precomputed hash (which must equal r.hash(t)).
func (r *Relation) addHashed(h uint32, t Tuple, m float64) {
	if m == 0 {
		return
	}
	if id := r.find(h, t); id != 0 {
		e := &r.ents[id]
		e.m += m
		if e.m > -Eps && e.m < Eps {
			r.remove(id)
		}
		return
	}
	r.insertHashed(h, t, m)
}

// Set forces the multiplicity of t to m (removing the tuple when m is
// zero). The tuple is copied; callers may reuse t. A tuple already
// present keeps its place in the insertion order.
func (r *Relation) Set(t Tuple, m float64) {
	h := r.hash(t)
	id := r.find(h, t)
	if m > -Eps && m < Eps {
		if id != 0 {
			r.remove(id)
		}
		return
	}
	if id != 0 {
		// Replace the stored tuple too: t may be a key-equal but distinct
		// representation (Float(3) over Int(3)), and Set semantics store
		// the caller's tuple. Key-equal tuples hash identically, so the
		// primary and index bucket positions stay valid.
		r.vals.put(id, t)
		r.ents[id].m = m
		return
	}
	r.insertHashed(h, t, m)
}

// Get returns the multiplicity of t (zero if absent).
func (r *Relation) Get(t Tuple) float64 {
	if id := r.find(r.hash(t), t); id != 0 {
		return r.ents[id].m
	}
	return 0
}

// Foreach calls f for every tuple with non-zero multiplicity, in
// insertion order. f must not mutate the relation. The tuple f receives
// aliases the relation's storage and is valid only until the relation's
// next mutation; f must copy what it keeps.
func (r *Relation) Foreach(f func(t Tuple, m float64)) {
	for id := r.first; id != 0; id = r.ents[id].succ {
		f(r.vals.at(id), r.ents[id].m)
	}
}

// ForeachSorted iterates in the deterministic tuple order, handing f
// owned copies of the tuples. It backs result and delta reads, not hot
// paths: the rows are copied once, into one backing array, and the
// copies sorted.
func (r *Relation) ForeachSorted(f func(t Tuple, m float64)) {
	ts, ms := make([]Tuple, 0, r.n), make([]float64, 0, r.n)
	vals := make([]Value, 0, r.n*r.vals.arity)
	r.Foreach(func(t Tuple, m float64) {
		vals = append(vals, t...)
		ts, ms = append(ts, vals[len(vals)-len(t):len(vals):len(vals)]), append(ms, m)
	})
	// Sorting a permutation swaps 4 bytes instead of a row.
	ord := make([]int32, len(ts))
	for i := range ord {
		ord[i] = int32(i)
	}
	sort.Slice(ord, func(i, j int) bool { return ts[ord[i]].Less(ts[ord[j]]) })
	for _, i := range ord {
		f(ts[i], ms[i])
	}
}

// Clone returns a deep copy of the relation's contents, in its order.
// Secondary indexes are not cloned; they re-register on demand.
func (r *Relation) Clone() *Relation {
	c := NewRelation(r.schema)
	c.hashFn = r.hashFn
	c.ents = make([]entry, 1, r.n+1)
	c.Merge(r)
	return c
}

// Clear removes all tuples, keeping the bucket table, the slab and the
// arena's chunks, in time proportional to the tuples it held rather than
// to its capacity. Registered secondary indexes stay registered (emptied)
// and keep being maintained on subsequent mutations.
func (r *Relation) Clear() {
	for id := r.first; id != 0; id = r.ents[id].succ {
		r.tab[r.ents[id].h&r.mask] = 0
		r.vals.zero(id)
	}
	r.ents = r.ents[:0]
	r.free, r.first, r.last, r.n = 0, 0, 0, 0
	for _, ix := range r.idxs {
		ix.clear()
	}
}

// Reset is Clear for a scratch relation reused under another schema of
// its arity, which is kept, not copied.
func (r *Relation) Reset(schema Schema) {
	if len(schema) != r.vals.arity {
		panic("mring: Reset to another arity")
	}
	r.Clear()
	r.schema = schema
}

// Merge adds every tuple of o (bag union in place), in o's order.
func (r *Relation) Merge(o *Relation) { r.MergeScaled(o, 1) }

// MergeScaled adds every tuple of o with multiplicity scaled by c, in o's
// order. It reuses o's stored hashes, and into an empty relation it
// inserts without lookups, since o's tuples are distinct.
func (r *Relation) MergeScaled(o *Relation, c float64) {
	blind := r.n == 0
	for id := o.first; id != 0; id = o.ents[id].succ {
		t, h, m := o.vals.at(id), o.ents[id].h, o.ents[id].m*c
		if r.hashFn != nil || o.hashFn != nil {
			h = r.hash(t)
		}
		if !blind {
			r.addHashed(h, t, m)
		} else if m != 0 {
			r.insertHashed(h, t, m)
		}
	}
}

// Equal reports whether two relations hold the same tuples with
// multiplicities equal within Eps.
func (r *Relation) Equal(o *Relation) bool {
	return r.n == o.n && r.within(o, Eps, false)
}

// EqualApprox is Equal with a caller-chosen tolerance, for float-heavy
// aggregate comparisons.
func (r *Relation) EqualApprox(o *Relation, tol float64) bool {
	return r.within(o, tol, true) && o.within(r, tol, true)
}

// within reports whether every tuple of r has a multiplicity in o within
// tol of its own; with absentZero, a tuple o lacks passes when its own
// multiplicity is within tol of zero.
func (r *Relation) within(o *Relation, tol float64, absentZero bool) bool {
	ok := true
	r.Foreach(func(t Tuple, m float64) {
		if !ok {
			return
		}
		var om float64
		if id := o.find(o.hash(t), t); id != 0 {
			om = o.ents[id].m
		} else if !absentZero {
			ok = false
			return
		}
		d := m - om
		ok = !(d < -tol || d > tol)
	})
	return ok
}

// String renders the relation deterministically, for debugging and tests.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v{", []string(r.schema))
	first := true
	r.ForeachSorted(func(t Tuple, m float64) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%v->%g", t, m)
	})
	b.WriteString("}")
	return b.String()
}

// ProjectSum returns Sum_[cols](r): tuples projected onto cols with
// multiplicities summed per group.
func (r *Relation) ProjectSum(cols []string) *Relation {
	idx := r.schema.Positions(cols)
	out := NewRelation(Schema(cols))
	r.Foreach(func(t Tuple, m float64) {
		out.Add(t.Project(idx), m)
	})
	return out
}
