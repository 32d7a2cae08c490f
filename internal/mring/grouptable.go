package mring

// GroupTable is the hash-native aggregation table: a streaming map from
// group-key tuples to accumulated ring values, backed by the same
// open-chained power-of-two layout as Relation's primary storage. It is
// what evalAgg and the batch pre-aggregation statements build instead of
// string-keyed maps, so grouping never materializes Tuple.Key on the
// per-batch hot path.
//
// Identity and cancellation follow the relation data model exactly: keys
// compare by the canonical key encoding (KeyEqual), and a group whose
// accumulated value crosses into (-Eps, Eps) is removed from the table at
// accumulation time — empty groups never survive to emission, matching
// what Relation.Add does to multiplicities.
//
// Iteration (Foreach, AppendTo, FillRelation, Merge) visits live groups
// in first-insertion order. That makes every fold of a group table into
// downstream state deterministic: merging per-worker tables in
// worker-index order replays the same float additions in the same order
// on every run (see DESIGN.md §6).
type GroupTable struct {
	schema Schema
	tab    []*gentry // power-of-two bucket array, nil until first insert
	mask   uint64    // len(tab)-1
	n      int       // live groups
	order  []*gentry // every inserted entry in insertion order (dead ones skipped)
	// hashFn overrides key hashing in tests (forcing collision chains);
	// nil means Tuple.Hash. Set with SetHashFnForTest before the first Add.
	hashFn func(Tuple) uint64
}

// gentry is one group: its key tuple, accumulated value, full 64-bit key
// hash (kept for rehash-free growth and conversion to relations), and the
// bucket collision chain. dead marks groups canceled by accumulation;
// they stay in order (skipped on iteration) but leave the chains.
type gentry struct {
	t    Tuple
	v    float64
	h    uint64
	next *gentry
	dead bool
}

// NewGroupTable returns an empty group table whose keys have the given
// schema (the aggregate's group-by columns; empty for scalar aggregates).
func NewGroupTable(schema Schema) *GroupTable {
	return &GroupTable{schema: schema.Clone()}
}

// SetHashFnForTest overrides key hashing (tests force collision chains
// with it). It must be called before the first Add and disables the
// hash-reuse fast paths of AppendTo/FillRelation/MergeRelation.
func (g *GroupTable) SetHashFnForTest(fn func(Tuple) uint64) {
	if g.n != 0 || len(g.order) != 0 {
		panic("mring: SetHashFnForTest after first Add")
	}
	g.hashFn = fn
}

// Schema returns the group-key column names. Callers must not mutate it.
func (g *GroupTable) Schema() Schema { return g.schema }

// Len returns the number of live groups.
func (g *GroupTable) Len() int { return g.n }

func (g *GroupTable) hash(t Tuple) uint64 {
	if g.hashFn != nil {
		return g.hashFn(t)
	}
	return t.Hash()
}

// grow doubles the bucket table (or creates it) and relinks every live
// entry under its stored hash — no per-entry allocation.
func (g *GroupTable) grow() {
	size := 8
	if len(g.tab) > 0 {
		size = len(g.tab) * 2
	}
	ntab := make([]*gentry, size)
	nmask := uint64(size - 1)
	for _, e := range g.tab {
		for e != nil {
			next := e.next
			i := e.h & nmask
			e.next = ntab[i]
			ntab[i] = e
			e = next
		}
	}
	g.tab, g.mask = ntab, nmask
}

// addHashed accumulates v into the group keyed by key under its
// precomputed hash. key is only cloned when a new group is inserted, so
// callers stream through a reused buffer. A group whose value crosses
// into (-Eps, Eps) is unlinked immediately (in-table cancellation).
func (g *GroupTable) addHashed(h uint64, key Tuple, v float64) {
	if v == 0 {
		return
	}
	if g.tab != nil {
		var prev *gentry
		for e := g.tab[h&g.mask]; e != nil; prev, e = e, e.next {
			if e.h != h || !e.t.KeyEqual(key) {
				continue
			}
			e.v += v
			if e.v > -Eps && e.v < Eps {
				// Cancel in place: out of the chain, tombstoned in order.
				if prev == nil {
					g.tab[h&g.mask] = e.next
				} else {
					prev.next = e.next
				}
				e.next = nil
				e.dead = true
				g.n--
			}
			return
		}
	}
	if g.n >= len(g.tab) { // covers the nil table: 0 >= 0
		g.grow()
	}
	i := h & g.mask
	e := &gentry{t: key.Clone(), v: v, h: h, next: g.tab[i]}
	g.tab[i] = e
	g.order = append(g.order, e)
	g.n++
}

// Add accumulates v into the group keyed by key (len(key) must match the
// schema). key may be a reused buffer; it is cloned only on first insert.
func (g *GroupTable) Add(key Tuple, v float64) {
	g.addHashed(g.hash(key), key, v)
}

// Get returns the accumulated value of the group keyed by key (zero when
// absent or canceled).
func (g *GroupTable) Get(key Tuple) float64 {
	if g.tab == nil {
		return 0
	}
	h := g.hash(key)
	for e := g.tab[h&g.mask]; e != nil; e = e.next {
		if e.h == h && e.t.KeyEqual(key) {
			return e.v
		}
	}
	return 0
}

// Foreach visits every live group in first-insertion order. f must not
// mutate the table.
func (g *GroupTable) Foreach(f func(key Tuple, v float64)) {
	for _, e := range g.order {
		if !e.dead {
			f(e.t, e.v)
		}
	}
}

// MergeRelation accumulates every tuple of r as a group contribution
// (r's schema must match the group schema positionally). Entries reuse
// r's stored hashes when neither side overrides hashing; iteration
// follows r's storage order, so merging fragments in a fixed sequence is
// deterministic for a fixed partitioning.
func (g *GroupTable) MergeRelation(r *Relation) {
	reuse := g.hashFn == nil && r.hashFn == nil
	for _, e := range r.tab {
		for ; e != nil; e = e.next {
			if reuse {
				g.addHashed(e.h, e.t, e.m)
			} else {
				g.Add(e.t, e.m)
			}
		}
	}
}

// Merge accumulates every live group of o, in o's insertion order.
func (g *GroupTable) Merge(o *GroupTable) {
	reuse := g.hashFn == nil && o.hashFn == nil
	for _, e := range o.order {
		if e.dead {
			continue
		}
		if reuse {
			g.addHashed(e.h, e.t, e.v)
		} else {
			g.Add(e.t, e.v)
		}
	}
}

// AppendTo folds every live group into r as a multiplicity delta
// (r.Add semantics), reusing the stored hashes when neither side
// overrides hashing. Groups are applied in insertion order.
func (g *GroupTable) AppendTo(r *Relation) {
	reuse := g.hashFn == nil && r.hashFn == nil
	for _, e := range g.order {
		if e.dead {
			continue
		}
		if reuse {
			r.addHashed(e.h, e.t, e.v)
		} else {
			r.Add(e.t, e.v)
		}
	}
}

// FillRelation blind-inserts every live group into r, which must be
// empty (the OpSet fold: Clear then fill). Group keys are unique, so no
// lookups happen, and both the stored hashes and the key tuples carry
// over allocation-free; r's registered secondary indexes are maintained
// by the inserts. The fill transfers ownership of the group-key tuples
// (they were cloned on table insert and tuples are never mutated in
// place), so the table must be discarded afterward — every caller is
// single-use: the executor's and workers' OpSet folds, gather, and
// ToRelation.
func (g *GroupTable) FillRelation(r *Relation) {
	if r.Len() != 0 {
		panic("mring: FillRelation target not empty")
	}
	if g.hashFn != nil || r.hashFn != nil {
		g.AppendTo(r)
		return
	}
	for _, e := range g.order {
		if !e.dead {
			r.insertHashed(e.h, e.t, e.v)
		}
	}
}

// ToRelation converts the live groups into a fresh relation with the
// group schema, reusing stored hashes.
func (g *GroupTable) ToRelation() *Relation {
	r := NewRelation(g.schema)
	g.FillRelation(r)
	return r
}
