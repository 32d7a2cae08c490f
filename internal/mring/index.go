package mring

import "fmt"

// Index is a secondary hash index over a relation, keyed by the projection
// of each tuple onto a fixed set of column positions (the bound-column mask
// of a slice access pattern, Sec. 5.1). Indexes are owned by the relation
// and maintained incrementally on every Add/Set/Clear, so they are always
// consistent with the primary storage — there is nothing to invalidate.
//
// Index buckets hold the relation's entry ids, so a pure multiplicity
// change needs no index work at all; only insertions and deletions of
// distinct tuples touch the buckets.
type Index struct {
	r   *Relation
	pos []int
	m   map[uint64][]int32
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
// index buckets.
func (ix *Index) keyHash(t Tuple, pos []int) uint64 {
	if ix.r.hashFn != nil {
		return ix.r.hashFn(t.Project(pos))
	}
	return t.HashCols(pos)
}

func (ix *Index) insert(id int32) {
	h := ix.keyHash(ix.r.vals.at(id), ix.pos)
	ix.m[h] = append(ix.m[h], id)
}

func (ix *Index) remove(id int32) {
	h := ix.keyHash(ix.r.vals.at(id), ix.pos)
	b := ix.m[h]
	for i, x := range b {
		if x == id {
			b[i] = b[len(b)-1]
			b = b[:len(b)-1]
			if len(b) == 0 {
				delete(ix.m, h)
			} else {
				ix.m[h] = b
			}
			return
		}
	}
}

// EnsureIndex returns the secondary index over the given ascending column
// positions, building it from the current contents on first registration.
// The returned bool reports whether a build happened (for index-op stats).
// The positions slice is not retained if the index already exists.
func (r *Relation) EnsureIndex(pos []int) (*Index, bool) {
	mask := ColMask(pos)
	if ix, ok := r.idxs[mask]; ok {
		return ix, false
	}
	ix := &Index{r: r, pos: append([]int(nil), pos...), m: make(map[uint64][]int32, r.n)}
	r.each(func(id int32, _ entry) { ix.insert(id) })
	if r.idxs == nil {
		r.idxs = make(map[uint64]*Index)
	}
	r.idxs[mask] = ix
	return ix, true
}

// Probe calls f for every tuple whose projection onto the index columns
// equals probe (one value per index column, in ascending position order),
// in the order the key's bucket holds them. f must not mutate the
// relation; the tuple it receives aliases storage, as in Foreach.
func (ix *Index) Probe(probe Tuple, f func(t Tuple, m float64)) {
	var h uint64
	if ix.r.hashFn != nil {
		h = ix.r.hashFn(probe)
	} else {
		h = probe.Hash()
	}
	for _, id := range ix.m[h] {
		if t := ix.r.vals.at(id); t.EqualAt(ix.pos, probe) {
			f(t, ix.r.ents[id].m)
		}
	}
}

// Indexes returns the number of registered secondary indexes (for tests
// and memory reporting).
func (r *Relation) Indexes() int { return len(r.idxs) }
