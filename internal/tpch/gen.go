package tpch

import (
	"math/rand"

	"repro/internal/mring"
)

// Generator produces deterministic TPC-H-shaped tuples. Foreign keys
// reference the key ranges of the related tables at the same scale, so
// joins have realistic fan-outs.
type Generator struct {
	sf  float64
	rng *rand.Rand
	// next sequential primary key per table
	next map[string]int64
}

// NewGenerator creates a generator at scale sf with a fixed seed.
func NewGenerator(sf float64, seed int64) *Generator {
	return &Generator{
		sf:   sf,
		rng:  rand.New(rand.NewSource(seed)),
		next: make(map[string]int64),
	}
}

func (g *Generator) seq(table string) int64 {
	g.next[table]++
	return g.next[table]
}

func (g *Generator) date() int64 {
	y := 1992 + g.rng.Intn(7)
	m := 1 + g.rng.Intn(12)
	d := 1 + g.rng.Intn(28)
	return int64(y*10000 + m*100 + d)
}

// fkRange picks a foreign key uniformly from the related table's key
// space at this scale.
func (g *Generator) fkRange(table string) int64 {
	return 1 + int64(g.rng.Intn(Cardinality(table, g.sf)))
}

// Tuple generates the next tuple for the given table.
func (g *Generator) Tuple(table string) mring.Tuple {
	r := g.rng
	switch table {
	case Lineitem:
		ship := g.date()
		commit := ship + int64(r.Intn(60)) - 30
		receipt := ship + int64(r.Intn(30))
		return mring.Tuple{
			mring.Int(g.fkRange(Orders)),           // l_orderkey
			mring.Int(g.fkRange(Part)),             // l_partkey
			mring.Int(g.fkRange(Supplier)),         // l_suppkey
			mring.Float(float64(1 + r.Intn(50))),   // l_quantity
			mring.Float(900 + r.Float64()*104000),  // l_extendedprice
			mring.Float(float64(r.Intn(11)) / 100), // l_discount
			mring.Int(ship),                        // l_shipdate
			mring.Int(commit),                      // l_commitdate
			mring.Int(receipt),                     // l_receiptdate
			mring.Int(int64(r.Intn(3))),            // l_returnflag (0=A,1=N,2=R)
			mring.Int(int64(r.Intn(2))),            // l_linestatus
			mring.Int(int64(r.Intn(NumShipmodes))), // l_shipmode
		}
	case Orders:
		return mring.Tuple{
			mring.Int(g.seq(Orders)),               // o_orderkey
			mring.Int(g.fkRange(Customer)),         // o_custkey
			mring.Int(g.date()),                    // o_orderdate
			mring.Int(int64(r.Intn(NumPriority))),  // o_orderpriority
			mring.Int(int64(r.Intn(2))),            // o_shippriority
			mring.Float(1000 + r.Float64()*450000), // o_totalprice
		}
	case Customer:
		return mring.Tuple{
			mring.Int(g.seq(Customer)),            // c_custkey
			mring.Int(int64(r.Intn(NumSegments))), // c_mktsegment
			mring.Int(int64(r.Intn(NumNations))),  // c_nationkey
			mring.Float(-999 + r.Float64()*10999), // c_acctbal
			mring.Int(10 + int64(r.Intn(25))),     // c_phone (country code)
		}
	case Part:
		return mring.Tuple{
			mring.Int(g.seq(Part)),                 // p_partkey
			mring.Int(int64(r.Intn(NumBrands))),    // p_brand
			mring.Int(int64(r.Intn(NumTypes))),     // p_type
			mring.Int(1 + int64(r.Intn(50))),       // p_size
			mring.Int(int64(r.Intn(NumContainer))), // p_container
		}
	case Supplier:
		return mring.Tuple{
			mring.Int(g.seq(Supplier)),            // s_suppkey
			mring.Int(int64(r.Intn(NumNations))),  // s_nationkey
			mring.Float(-999 + r.Float64()*10999), // s_acctbal
		}
	case Partsupp:
		return mring.Tuple{
			mring.Int(g.fkRange(Part)),         // ps_partkey
			mring.Int(g.fkRange(Supplier)),     // ps_suppkey
			mring.Int(1 + int64(r.Intn(9999))), // ps_availqty
			mring.Float(1 + r.Float64()*1000),  // ps_supplycost
		}
	case Nation:
		k := g.seq(Nation) - 1
		return mring.Tuple{
			mring.Int(k),              // n_nationkey
			mring.Int(k % NumRegions), // n_regionkey
			mring.Int(k),              // n_name (coded)
		}
	case Region:
		k := g.seq(Region) - 1
		return mring.Tuple{mring.Int(k), mring.Int(k)}
	}
	panic("tpch: unknown table " + table)
}

// Static returns the preloaded contents of a static dimension table.
func (g *Generator) Static(table string) *mring.Relation {
	rel := mring.NewRelation(Schemas[table])
	for i := 0; i < Cardinality(table, g.sf); i++ {
		rel.Add(g.Tuple(table), 1)
	}
	return rel
}

// Event is one stream element: an insertion into a base table.
type Event struct {
	Table string
	Tuple mring.Tuple
}

// Stream synthesizes an insert stream by interleaving insertions to the
// base relations in round-robin fashion weighted by table cardinality
// (Sec. 6: "data streams synthesized from TPC-H databases by
// interleaving insertions to the base relations in a round-robin
// fashion").
type Stream struct {
	gen    *Generator
	tables []string
	quota  []int // remaining rows per table
	pos    int
}

// NewStream creates the full insert stream for the generator's scale,
// restricted to the tables a query references (plus their stream deps).
func NewStream(gen *Generator, tables []string) *Stream {
	s := &Stream{gen: gen}
	for _, t := range tables {
		if t == Nation || t == Region {
			continue // static dimensions are preloaded, not streamed
		}
		s.tables = append(s.tables, t)
		s.quota = append(s.quota, Cardinality(t, gen.sf))
	}
	return s
}

// Next returns the next event, or ok=false at end of stream. Round-robin
// proceeds proportionally: each pass emits one tuple from every table
// that still has quota, visiting larger tables more often by repeating
// them within a pass proportional to their share.
func (s *Stream) Next() (Event, bool) {
	total := 0
	for _, q := range s.quota {
		total += q
	}
	if total == 0 {
		return Event{}, false
	}
	// Weighted round-robin: walk tables cyclically, skipping exhausted
	// ones; tables with larger remaining quota are picked proportionally
	// by a deterministic stride.
	for i := 0; i < len(s.tables)*2; i++ {
		idx := s.pos % len(s.tables)
		s.pos++
		if s.quota[idx] == 0 {
			continue
		}
		// Emit from this table with probability proportional to its share
		// of the remaining stream, deterministically via the generator's
		// RNG (the stream itself is part of the workload definition).
		share := float64(s.quota[idx]) / float64(total)
		if s.gen.rng.Float64() < share*float64(len(s.tables)) || allOthersEmpty(s.quota, idx) {
			s.quota[idx]--
			return Event{Table: s.tables[idx], Tuple: s.gen.Tuple(s.tables[idx])}, true
		}
	}
	// Fallback: first non-empty table.
	for idx, q := range s.quota {
		if q > 0 {
			s.quota[idx]--
			return Event{Table: s.tables[idx], Tuple: s.gen.Tuple(s.tables[idx])}, true
		}
	}
	return Event{}, false
}

func allOthersEmpty(quota []int, idx int) bool {
	for i, q := range quota {
		if i != idx && q > 0 {
			return false
		}
	}
	return true
}

// Batches consumes the stream into per-relation batches: each chunk of
// batchSize consecutive events is split by relation (one trigger call per
// relation per chunk, as in Sec. 6.2: "we chunk the input stream into
// batches of a given size").
type Batch struct {
	Table string
	Rel   *mring.Relation
}

// NextBatches returns the batches of the next stream chunk (empty at end).
func (s *Stream) NextBatches(batchSize int) []Batch {
	byTable := map[string]*mring.Relation{}
	var order []string
	for i := 0; i < batchSize; i++ {
		ev, ok := s.Next()
		if !ok {
			break
		}
		r := byTable[ev.Table]
		if r == nil {
			r = mring.NewRelation(Schemas[ev.Table])
			byTable[ev.Table] = r
			order = append(order, ev.Table)
		}
		r.Add(ev.Tuple, 1)
	}
	out := make([]Batch, 0, len(order))
	for _, t := range order {
		out = append(out, Batch{Table: t, Rel: byTable[t]})
	}
	return out
}
