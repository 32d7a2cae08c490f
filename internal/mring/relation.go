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

// entry stores one unique tuple, its multiplicity, and its full 64-bit
// hash (kept for cheap rehashing and as an equality pre-filter). Entries
// are heap nodes shared between the primary hash table and any secondary
// indexes, so a multiplicity update is visible everywhere without index
// maintenance. next chains entries landing in the same bucket (nil in the
// overwhelming common case).
type entry struct {
	t    Tuple
	m    float64
	h    uint64
	next *entry
}

// Relation is a generalized multiset relation: a finite map from unique
// tuples to non-zero multiplicities. Storage is hash-native: an
// open-chained power-of-two bucket table keyed directly by the tuples'
// 64-bit canonical hash, so lookups and inserts never materialize string
// keys and never re-hash the key the way a built-in map would
// (Tuple.EncodeKey remains only for the wire format). The zero value is
// not ready to use; construct with NewRelation.
type Relation struct {
	schema Schema
	tab    []*entry // power-of-two bucket array, nil until first insert
	mask   uint64   // len(tab)-1
	n      int
	// idxs holds the registered secondary indexes, keyed by bound-column
	// bitmask; they are maintained incrementally on every mutation.
	idxs map[uint64]*Index
	// hashFn overrides tuple hashing in tests (forcing collisions); nil
	// means Tuple.Hash. Set it before the first insert.
	hashFn func(Tuple) uint64
}

// NewRelation returns an empty relation with the given schema.
func NewRelation(schema Schema) *Relation {
	return &Relation{schema: schema.Clone()}
}

// grow doubles the bucket table (or creates it) and relinks every entry
// under its stored hash — no per-entry allocation.
func (r *Relation) grow() {
	size := 8
	if len(r.tab) > 0 {
		size = len(r.tab) * 2
	}
	ntab := make([]*entry, size)
	nmask := uint64(size - 1)
	for _, e := range r.tab {
		for e != nil {
			next := e.next
			i := e.h & nmask
			e.next = ntab[i]
			ntab[i] = e
			e = next
		}
	}
	r.tab, r.mask = ntab, nmask
}

// Schema returns the relation's column names. Callers must not mutate it.
func (r *Relation) Schema() Schema { return r.schema }

// Len returns the number of tuples with non-zero multiplicity.
func (r *Relation) Len() int { return r.n }

// TableSize returns the current bucket-table size: 0 before the first
// insert, otherwise a power of two >= 8 that only ever grows (Clear and
// deletions keep capacity). Together with the Foreach enumeration order
// it fully determines the physical layout, so a snapshot recording
// (TableSize, Foreach sequence) can be restored bitwise via Preseed plus
// reverse-order re-insertion — see Preseed.
func (r *Relation) TableSize() int { return len(r.tab) }

// Preseed sets the bucket table of an empty relation to the given size
// (a power of two >= 8, as produced by TableSize on a non-fresh
// relation). It exists for exact-layout restore: pre-sizing the table to
// the snapshot's TableSize means re-inserting the snapshot's rows never
// triggers grow (n never exceeds the table size the rows previously fit
// in), and inserting them in REVERSE Foreach order reproduces the
// original chains exactly — each insert pushes at the chain head, so the
// last-inserted (first-enumerated) row ends up back at the head.
// Misuse is a programming error and panics; validation of sizes read
// from disk belongs to the decode layers.
func (r *Relation) Preseed(buckets int) {
	if r.tab != nil || r.n != 0 {
		panic("mring: Preseed on non-empty relation")
	}
	if buckets < 8 || buckets&(buckets-1) != 0 {
		panic(fmt.Sprintf("mring: Preseed size %d not a power of two >= 8", buckets))
	}
	r.tab = make([]*entry, buckets)
	r.mask = uint64(buckets - 1)
}

func (r *Relation) hash(t Tuple) uint64 {
	if r.hashFn != nil {
		return r.hashFn(t)
	}
	return t.Hash()
}

// lookup returns the entry holding t, or nil.
func (r *Relation) lookup(t Tuple) *entry {
	if r.tab == nil {
		return nil
	}
	h := r.hash(t)
	for e := r.tab[h&r.mask]; e != nil; e = e.next {
		if e.h == h && e.t.KeyEqual(t) {
			return e
		}
	}
	return nil
}

// insertHashed adds a fresh entry for t (which must not be present) under
// its precomputed hash. t is stored as-is; callers clone when the tuple
// may be reused.
func (r *Relation) insertHashed(h uint64, t Tuple, m float64) {
	if r.n >= len(r.tab) { // covers the nil table: 0 >= 0
		r.grow()
	}
	i := h & r.mask
	e := &entry{t: t, m: m, h: h, next: r.tab[i]}
	r.tab[i] = e
	r.n++
	for _, ix := range r.idxs {
		ix.insert(e)
	}
}

// removeHashed unlinks target from its bucket chain and from all
// secondary indexes.
func (r *Relation) removeHashed(target *entry) {
	i := target.h & r.mask
	var prev *entry
	for e := r.tab[i]; e != nil; prev, e = e, e.next {
		if e != target {
			continue
		}
		if prev == nil {
			r.tab[i] = e.next
		} else {
			prev.next = e.next
		}
		e.next = nil
		r.n--
		for _, ix := range r.idxs {
			ix.remove(e)
		}
		return
	}
}

// insert adds a fresh entry for t (which must not be present).
func (r *Relation) insert(t Tuple, m float64) {
	r.insertHashed(r.hash(t), t, m)
}

// Add adds m to the multiplicity of tuple t, inserting or deleting as
// needed. The tuple is copied; callers may reuse t.
func (r *Relation) Add(t Tuple, m float64) {
	r.addHashed(r.hash(t), t, m)
}

// addHashed is Add under a precomputed hash (which must equal r.hash(t));
// group tables reuse their stored hashes through it.
func (r *Relation) addHashed(h uint64, t Tuple, m float64) {
	if m == 0 {
		return
	}
	if r.tab != nil {
		for e := r.tab[h&r.mask]; e != nil; e = e.next {
			if e.h == h && e.t.KeyEqual(t) {
				e.m += m
				if e.m > -Eps && e.m < Eps {
					r.removeHashed(e)
				}
				return
			}
		}
	}
	r.insertHashed(h, t.Clone(), m)
}

// Set forces the multiplicity of t to m (removing the tuple when m is zero).
func (r *Relation) Set(t Tuple, m float64) {
	h := r.hash(t)
	var e *entry
	if r.tab != nil {
		for e = r.tab[h&r.mask]; e != nil; e = e.next {
			if e.h == h && e.t.KeyEqual(t) {
				break
			}
		}
	}
	if m > -Eps && m < Eps {
		if e != nil {
			r.removeHashed(e)
		}
		return
	}
	if e != nil {
		// Replace the stored tuple too: t may be a key-equal but distinct
		// representation (Float(3) over Int(3)), and Set semantics store
		// the caller's tuple. Key-equal tuples hash identically, so the
		// primary and index bucket positions stay valid.
		e.t = t.Clone()
		e.m = m
		return
	}
	r.insertHashed(h, t.Clone(), m)
}

// Get returns the multiplicity of t (zero if absent).
func (r *Relation) Get(t Tuple) float64 {
	if e := r.lookup(t); e != nil {
		return e.m
	}
	return 0
}

// Foreach calls f for every tuple with non-zero multiplicity. Iteration
// order is unspecified. f must not mutate the relation.
func (r *Relation) Foreach(f func(t Tuple, m float64)) {
	for _, e := range r.tab {
		for ; e != nil; e = e.next {
			f(e.t, e.m)
		}
	}
}

// ForeachSorted iterates in the deterministic tuple order; it is intended
// for tests and report output, not hot paths.
func (r *Relation) ForeachSorted(f func(t Tuple, m float64)) {
	es := make([]*entry, 0, r.n)
	for _, e := range r.tab {
		for ; e != nil; e = e.next {
			es = append(es, e)
		}
	}
	sort.Slice(es, func(i, j int) bool { return es[i].t.Less(es[j].t) })
	for _, e := range es {
		f(e.t, e.m)
	}
}

// Clone returns a deep copy of the relation's contents. Secondary indexes
// are not cloned; they re-register on demand.
func (r *Relation) Clone() *Relation {
	c := NewRelation(r.schema)
	c.hashFn = r.hashFn
	r.Foreach(func(t Tuple, m float64) {
		c.insert(t.Clone(), m)
	})
	return c
}

// Clear removes all tuples, keeping the bucket table's capacity.
// Registered secondary indexes stay registered (emptied) and keep being
// maintained on subsequent mutations.
func (r *Relation) Clear() {
	clear(r.tab)
	r.n = 0
	for _, ix := range r.idxs {
		clear(ix.m)
	}
}

// Merge adds every tuple of o (bag union in place).
func (r *Relation) Merge(o *Relation) {
	o.Foreach(func(t Tuple, m float64) { r.Add(t, m) })
}

// MergeScaled adds every tuple of o with multiplicity scaled by c.
func (r *Relation) MergeScaled(o *Relation, c float64) {
	o.Foreach(func(t Tuple, m float64) { r.Add(t, m*c) })
}

// Equal reports whether two relations hold the same tuples with
// multiplicities equal within Eps.
func (r *Relation) Equal(o *Relation) bool {
	if r.n != o.n {
		return false
	}
	for _, e := range r.tab {
		for ; e != nil; e = e.next {
			oe := o.lookup(e.t)
			if oe == nil {
				return false
			}
			d := e.m - oe.m
			if d < -Eps || d > Eps {
				return false
			}
		}
	}
	return true
}

// EqualApprox is Equal with a caller-chosen tolerance, for float-heavy
// aggregate comparisons.
func (r *Relation) EqualApprox(o *Relation, tol float64) bool {
	for _, e := range r.tab {
		for ; e != nil; e = e.next {
			oe := o.lookup(e.t)
			if oe == nil {
				if e.m < -tol || e.m > tol {
					return false
				}
				continue
			}
			d := e.m - oe.m
			if d < -tol || d > tol {
				return false
			}
		}
	}
	for _, e := range o.tab {
		for ; e != nil; e = e.next {
			if r.lookup(e.t) == nil && (e.m < -tol || e.m > tol) {
				return false
			}
		}
	}
	return true
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
