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
// Groups live in a slab in insertion order, with their keys copied into
// an arena under the same id, so a new group costs no allocation of its
// own and Reset empties the table for reuse in time proportional to the
// groups it held. Iteration (Foreach, AppendTo, FillRelation, Merge)
// visits live groups in first-insertion order. That makes every fold of
// a group table into downstream state deterministic: merging per-worker
// tables in worker-index order replays the same float additions in the
// same order on every run (see DESIGN.md §6).
type GroupTable struct {
	schema Schema
	ents   []gentry // slab in insertion order; ents[0] is a sentinel
	keys   arena    // entry id -> group key
	tab    []int32  // power-of-two bucket heads, nil until first insert
	mask   uint64   // len(tab)-1
	n      int      // live groups
	// hashFn overrides key hashing in tests (forcing collision chains);
	// nil means Tuple.Hash. Set with SetHashFnForTest before the first Add.
	hashFn func(Tuple) uint64
}

// gentry is one group: its accumulated value, full 64-bit key hash (kept
// for rehash-free growth and conversion to relations), and the id of the
// next group in its bucket chain. dead marks groups canceled by
// accumulation; they keep their slab slot (skipped on iteration) but
// leave the chains.
type gentry struct {
	v    float64
	h    uint64
	next int32
	dead bool
}

// NewGroupTable returns an empty group table whose keys have the given
// schema (the aggregate's group-by columns; empty for scalar aggregates).
func NewGroupTable(schema Schema) *GroupTable {
	return &GroupTable{schema: schema.Clone(), keys: arena{arity: len(schema)}}
}

// Reset empties the table for reuse under schema, which must have the
// table's key arity and is kept, not copied. It keeps the bucket table,
// the slab and the key arena, and costs time proportional to the groups
// the table held, not to its capacity.
func (g *GroupTable) Reset(schema Schema) {
	if len(schema) != g.keys.arity {
		panic("mring: GroupTable.Reset to another key arity")
	}
	for id := 1; id < len(g.ents); id++ {
		g.tab[g.ents[id].h&g.mask] = 0
		g.keys.zero(int32(id))
	}
	g.schema, g.ents, g.n = schema, g.ents[:0], 0
}

// SetHashFnForTest overrides key hashing (tests force collision chains
// with it). It must be called before the first Add and disables the
// hash-reuse fast paths of AppendTo/FillRelation/MergeRelation.
func (g *GroupTable) SetHashFnForTest(fn func(Tuple) uint64) {
	if len(g.ents) > 1 {
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
// group under its stored hash — no per-group allocation.
func (g *GroupTable) grow() {
	size := 8
	if len(g.tab) > 0 {
		size = len(g.tab) * 2
	}
	g.tab, g.mask = make([]int32, size), uint64(size-1)
	for id := 1; id < len(g.ents); id++ {
		if e := &g.ents[id]; !e.dead {
			i := e.h & g.mask
			e.next, g.tab[i] = g.tab[i], int32(id)
		}
	}
}

// addHashed accumulates v into the group keyed by key under its
// precomputed hash. key is copied only when a new group is inserted, so
// callers stream through a reused buffer. A group whose value crosses
// into (-Eps, Eps) is unlinked immediately (in-table cancellation).
func (g *GroupTable) addHashed(h uint64, key Tuple, v float64) {
	if v == 0 {
		return
	}
	if g.tab != nil {
		for link := &g.tab[h&g.mask]; *link != 0; link = &g.ents[*link].next {
			e := &g.ents[*link]
			if e.h != h || !g.keys.at(*link).KeyEqual(key) {
				continue
			}
			e.v += v
			if e.v > -Eps && e.v < Eps {
				// Cancel in place: out of the chain, tombstoned in the slab.
				*link, e.next, e.dead = e.next, 0, true
				g.n--
			}
			return
		}
	}
	if g.n >= len(g.tab) { // covers the nil table: 0 >= 0
		g.grow()
	}
	if len(g.ents) == 0 {
		g.ents = append(g.ents, gentry{}) // the sentinel
	}
	id := int32(len(g.ents))
	g.keys.put(id, key)
	i := h & g.mask
	g.ents = append(g.ents, gentry{v: v, h: h, next: g.tab[i]})
	g.tab[i] = id
	g.n++
}

// Add accumulates v into the group keyed by key (len(key) must match the
// schema). key may be a reused buffer; it is copied only on first insert.
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
	for id := g.tab[h&g.mask]; id != 0; id = g.ents[id].next {
		if g.ents[id].h == h && g.keys.at(id).KeyEqual(key) {
			return g.ents[id].v
		}
	}
	return 0
}

// each visits every live group in first-insertion order.
func (g *GroupTable) each(f func(key Tuple, e gentry)) {
	for id := 1; id < len(g.ents); id++ {
		if e := g.ents[id]; !e.dead {
			f(g.keys.at(int32(id)), e)
		}
	}
}

// Foreach visits every live group in first-insertion order. f must not
// mutate the table; the key it receives aliases the table's storage and
// is valid only until the table's next Add or Reset.
func (g *GroupTable) Foreach(f func(key Tuple, v float64)) {
	g.each(func(key Tuple, e gentry) { f(key, e.v) })
}

// MergeRelation accumulates every tuple of r as a group contribution
// (r's schema must match the group schema positionally). Entries reuse
// r's stored hashes when neither side overrides hashing; iteration
// follows r's storage order, so merging fragments in a fixed sequence is
// deterministic for a fixed partitioning.
func (g *GroupTable) MergeRelation(r *Relation) {
	reuse := g.hashFn == nil && r.hashFn == nil
	r.each(func(id int32, e entry) {
		if reuse {
			g.addHashed(e.h, r.vals.at(id), e.m)
		} else {
			g.Add(r.vals.at(id), e.m)
		}
	})
}

// Merge accumulates every live group of o, in o's insertion order.
func (g *GroupTable) Merge(o *GroupTable) {
	reuse := g.hashFn == nil && o.hashFn == nil
	o.each(func(key Tuple, e gentry) {
		if reuse {
			g.addHashed(e.h, key, e.v)
		} else {
			g.Add(key, e.v)
		}
	})
}

// AppendTo folds every live group into r as a multiplicity delta
// (r.Add semantics), reusing the stored hashes when neither side
// overrides hashing. Groups are applied in insertion order.
func (g *GroupTable) AppendTo(r *Relation) {
	reuse := g.hashFn == nil && r.hashFn == nil
	g.each(func(key Tuple, e gentry) {
		if reuse {
			r.addHashed(e.h, key, e.v)
		} else {
			r.Add(key, e.v)
		}
	})
}

// FillRelation blind-inserts every live group into r, which must be
// empty (the OpSet fold: Clear then fill). Group keys are unique, so no
// lookups happen: the stored hashes carry over and each key is copied
// into r's arena; r's registered secondary indexes are maintained by the
// inserts. The table keeps its own keys and may be reset and reused.
func (g *GroupTable) FillRelation(r *Relation) {
	if r.Len() != 0 {
		panic("mring: FillRelation target not empty")
	}
	if g.hashFn != nil || r.hashFn != nil {
		g.AppendTo(r)
		return
	}
	g.each(func(key Tuple, e gentry) { r.insertHashed(e.h, key, e.v) })
}

// ToRelation converts the live groups into a fresh relation with the
// group schema, reusing stored hashes.
func (g *GroupTable) ToRelation() *Relation {
	r := NewRelation(g.schema)
	g.FillRelation(r)
	return r
}
