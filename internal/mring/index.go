package mring

import "fmt"

// Index is a secondary hash index over a relation, keyed by the projection
// of each tuple onto a fixed set of column positions (the bound-column mask
// of a slice access pattern, Sec. 5.1). Indexes are owned by the relation
// and maintained incrementally on every Add/Set/Clear, so they are always
// consistent with the primary storage — there is nothing to invalidate.
//
// An index lists the relation's entry ids, so a pure multiplicity change
// needs no index work at all; only insertions and deletions of distinct
// tuples touch it. Each distinct key hash has a record in a chained
// power-of-two table laid out like the relation's own, and the record
// heads a doubly-linked list of the entries under that hash, threaded
// through a per-entry array indexed by entry id. Nothing holds a pointer,
// a new key allocates nothing once the tables have grown, and a removal
// finds its record through the entry instead of re-hashing the tuple.
type Index struct {
	r    *Relation
	pos  []int
	cols uint64   // ColMask(pos)
	recs []keyRec // recs[0] is a sentinel, so record 0 ends a chain
	free int32    // removed records, chained through link; 0 when none
	tab  []int32  // power-of-two chain heads, nil until first insert
	mask uint64   // len(tab)-1
	n    int      // live records
	at   []keyPos // entry id -> its place in its key's list
}

// keyRec is one key hash's list of entries, and the next record in its
// table chain.
type keyRec struct {
	h          uint64
	head, tail int32
	link       int32
}

// keyPos is an entry's record and its neighbours in the record's list;
// 0 ends the list.
type keyPos struct {
	rec, prev, next int32
}

// MaxIndexCol is the first column position a secondary index cannot
// cover (the bound-column bitmask is 64 bits wide). Callers probing wider
// relations must check Indexable and fall back to a scan.
const MaxIndexCol = 64

// Indexable reports whether every position fits in the index bitmask.
// Positions are ascending, so only the last needs checking.
func Indexable(pos []int) bool {
	return len(pos) == 0 || pos[len(pos)-1] < MaxIndexCol
}

// ColMask packs ascending column positions into a bitmask identifying an
// index. Callers guard with Indexable; out-of-range positions panic.
func ColMask(pos []int) uint64 {
	var mask uint64
	for _, p := range pos {
		if p < 0 || p >= MaxIndexCol {
			panic(fmt.Sprintf("mring: index column position %d out of range", p))
		}
		mask |= 1 << uint(p)
	}
	return mask
}

// keyHash hashes the projection of t onto the index columns, honoring the
// relation's test-only hash override so forced collisions also exercise
// the key lists.
func (ix *Index) keyHash(t Tuple) uint64 {
	if ix.r.hashFn != nil {
		return ix.r.hashFn(t.Project(ix.pos))
	}
	return t.HashCols(ix.pos)
}

// find returns the record of key hash h, or 0.
func (ix *Index) find(h uint64) int32 {
	if ix.tab == nil {
		return 0
	}
	for k := ix.tab[h&ix.mask]; k != 0; k = ix.recs[k].link {
		if ix.recs[k].h == h {
			return k
		}
	}
	return 0
}

// grow doubles the record table (or creates it) and relinks every record
// under its hash, as Relation.grow does for entries.
func (ix *Index) grow() {
	size := 8
	if len(ix.tab) > 0 {
		size = len(ix.tab) * 2
	}
	ntab := make([]int32, size)
	nmask := uint64(size - 1)
	for _, k := range ix.tab {
		for k != 0 {
			rec := &ix.recs[k]
			link := rec.link
			i := rec.h & nmask
			rec.link = ntab[i]
			ntab[i] = k
			k = link
		}
	}
	ix.tab, ix.mask = ntab, nmask
}

// insert appends entry id to the tail of its key's list, adding the key's
// record first if the key is new.
func (ix *Index) insert(id int32) {
	h := ix.keyHash(ix.r.vals.at(id))
	k := ix.find(h)
	if k == 0 {
		if ix.n >= len(ix.tab) {
			ix.grow()
		}
		if k = ix.free; k != 0 {
			ix.free = ix.recs[k].link
		} else {
			k = int32(len(ix.recs))
			ix.recs = append(ix.recs, keyRec{})
		}
		i := h & ix.mask
		ix.recs[k] = keyRec{h: h, link: ix.tab[i]}
		ix.tab[i] = k
		ix.n++
	}
	for int(id) >= len(ix.at) {
		ix.at = append(ix.at, keyPos{})
	}
	rec := &ix.recs[k]
	ix.at[id] = keyPos{rec: k, prev: rec.tail}
	if rec.tail != 0 {
		ix.at[rec.tail].next = id
	} else {
		rec.head = id
	}
	rec.tail = id
}

// remove takes entry id out of its key's list by moving the list's tail
// into its place, the order a swap-removal from a slice leaves, and drops
// the key's record when the list empties.
func (ix *Index) remove(id int32) {
	p := ix.at[id]
	rec := &ix.recs[p.rec]
	last := rec.tail
	if last == rec.head {
		ix.unlink(p.rec)
		return
	}
	rec.tail = ix.at[last].prev
	ix.at[rec.tail].next = 0
	if last == id {
		return
	}
	p = ix.at[id] // re-read: id ends the list now if the tail followed it
	ix.at[last] = p
	if p.prev != 0 {
		ix.at[p.prev].next = last
	} else {
		rec.head = last
	}
	if p.next != 0 {
		ix.at[p.next].prev = last
	} else {
		rec.tail = last
	}
}

// unlink removes record k from its table chain and puts it on the free
// list.
func (ix *Index) unlink(k int32) {
	link := &ix.tab[ix.recs[k].h&ix.mask]
	for *link != k {
		link = &ix.recs[*link].link
	}
	*link = ix.recs[k].link
	ix.recs[k] = keyRec{link: ix.free}
	ix.free = k
	ix.n--
}

// clear empties the index, keeping its tables and per-entry array.
func (ix *Index) clear() {
	clear(ix.tab)
	ix.recs = ix.recs[:1]
	ix.free = 0
	ix.n = 0
}

// EnsureIndex returns the secondary index over the given ascending column
// positions, building it from the current contents on first registration.
// The returned bool reports whether a build happened (for index-op stats).
// The positions slice is not retained if the index already exists.
func (r *Relation) EnsureIndex(pos []int) (*Index, bool) {
	cols := ColMask(pos)
	for _, ix := range r.idxs {
		if ix.cols == cols {
			return ix, false
		}
	}
	ix := &Index{r: r, pos: append([]int(nil), pos...), cols: cols,
		recs: make([]keyRec, 1), at: make([]keyPos, len(r.ents))}
	r.each(func(id int32, _ entry) { ix.insert(id) })
	r.idxs = append(r.idxs, ix)
	return ix, true
}

// Probe calls f for every tuple whose projection onto the index columns
// equals probe (one value per index column, in ascending position order),
// in the order the key's list holds them. f must not mutate the
// relation; the tuple it receives aliases storage, as in Foreach.
func (ix *Index) Probe(probe Tuple, f func(t Tuple, m float64)) {
	var h uint64
	if ix.r.hashFn != nil {
		h = ix.r.hashFn(probe)
	} else {
		h = probe.Hash()
	}
	for id := ix.recs[ix.find(h)].head; id != 0; id = ix.at[id].next {
		if t := ix.r.vals.at(id); t.EqualAt(ix.pos, probe) {
			f(t, ix.r.ents[id].m)
		}
	}
}

// Indexes returns the number of registered secondary indexes (for tests
// and memory reporting).
func (r *Relation) Indexes() int { return len(r.idxs) }
