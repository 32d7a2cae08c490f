package main

import (
	"math/rand"

	"repro/internal/mring"
	"repro/internal/tpch"
)

// change is one tuple-level update: mult is +1 (insert) or -1 (delete).
type change struct {
	table string
	t     mring.Tuple
	mult  float64
}

// txn is one transaction of the script: changes grouped by table in
// parent-before-child order, which is also the engine's fold order.
type txn []change

// liveTable is the FIFO live window of one base table. Primary keys are
// sequential, the live rows are exactly the keys in [lo, hi), and because
// every transaction deletes as many of a table's oldest rows as it
// inserts, hi-lo is constant: state size, and so latency, is stationary.
// A table without a key column of its own, lineitem, is numbered the same
// way by position.
type liveTable struct {
	name   string
	parent *liveTable // foreign keys are drawn from its live key range
	rows   []mring.Tuple
	lo, hi int64
	share  float64 // of a transaction's inserts
	acc    float64 // fractional inserts carried to the next transaction
}

func (lt *liveTable) at(key int64) *mring.Tuple { return &lt.rows[key%int64(len(lt.rows))] }

// gen produces a workload's script from a seed: the initial window, then
// an endless stream of transactions, each half inserts of new tuples and
// half deletes of the oldest live ones.
//
// tpch.Stream is not reused: its foreign keys span the whole scale, so a
// window of a few thousand rows joins to nothing. Here the database stays
// consistent: a row references a parent that is live when the row is
// inserted and still live when the row is deleted. For that a parent table
// turns over half as fast as its child (every row of a table lives equally
// long, its window over its share of the inserts), and a foreign key is
// drawn from the newest fkSpan of the parent's live range, so the child is
// gone before the parent has lived its double lifetime.
type gen struct {
	rng    *rand.Rand
	tables []*liveTable
	perTx  int
}

// fkSpan leaves a margin below one half: shares of a transaction are
// dealt in whole rows, so lifetimes jitter by a transaction or two.
const fkSpan = 3.0 / 8

// newGen builds the generator and fills the initial window. live gives the
// window size per table in parent-before-child order (tpch.Customer,
// tpch.Orders, tpch.Lineitem; any prefix may be absent). With foreign keys
// in play it then discards two lifetimes of the slowest table, so that the
// window an engine is warmed with is one the stream itself produces, and
// latency is stationary from the first timed transaction.
func newGen(seed int64, names []string, live []int, perTx int) *gen {
	g := &gen{rng: rand.New(rand.NewSource(seed)), perTx: perTx}
	rate := make([]float64, len(live)) // of turnover, relative to the last table
	total := 0.0
	for i, n := range live {
		rate[i] = float64(n) / float64(int(1)<<(len(live)-1-i))
		total += rate[i]
	}
	for i, name := range names {
		lt := &liveTable{name: name, rows: make([]mring.Tuple, live[i]), lo: 1, hi: 1, share: rate[i] / total}
		if i > 0 {
			lt.parent = g.tables[i-1]
		}
		g.tables = append(g.tables, lt)
		for k := 0; k < live[i]; k++ {
			g.insert(lt)
		}
	}
	if len(names) > 1 {
		slowest := float64(live[0]) / (g.tables[0].share * float64(perTx) / 2) // lifetime in transactions
		for i := 0; i < int(2*slowest); i++ {
			g.next()
		}
	}
	return g
}

func (g *gen) insert(lt *liveTable) mring.Tuple {
	t := g.tuple(lt)
	*lt.at(lt.hi) = t
	lt.hi++
	return t
}

// fk draws a foreign key from the newest fkSpan of the parent's live
// range. A table whose parent is outside the query draws from a range a
// quarter its own size.
func (g *gen) fk(lt *liveTable) int64 {
	if p := lt.parent; p != nil {
		return p.hi - 1 - g.rng.Int63n(1+int64(fkSpan*float64(p.hi-p.lo-1)))
	}
	return 1 + g.rng.Int63n(int64(len(lt.rows)/4+1))
}

func (g *gen) date() int64 {
	return int64((1992+g.rng.Intn(7))*10000 + (1+g.rng.Intn(12))*100 + 1 + g.rng.Intn(28))
}

// tuple makes the next row of a table, with the column order and kinds of
// tpch.Schemas and the value distributions of tpch.Generator.
func (g *gen) tuple(lt *liveTable) mring.Tuple {
	r := g.rng
	switch lt.name {
	case tpch.Customer:
		return mring.Tuple{
			mring.Int(lt.hi),                          // c_custkey
			mring.Int(lt.hi % tpch.NumSegments),       // c_mktsegment: the same share of every window on every seed
			mring.Int(int64(r.Intn(tpch.NumNations))), // c_nationkey
			mring.Float(-999 + r.Float64()*10999),     // c_acctbal
			mring.Int(10 + int64(r.Intn(25))),         // c_phone
		}
	case tpch.Orders:
		return mring.Tuple{
			mring.Int(lt.hi),                           // o_orderkey
			mring.Int(g.fk(lt)),                        // o_custkey
			mring.Int(g.date()),                        // o_orderdate
			mring.Int(int64(r.Intn(tpch.NumPriority))), // o_orderpriority
			mring.Int(int64(r.Intn(2))),                // o_shippriority
			mring.Float(1000 + r.Float64()*450000),     // o_totalprice
		}
	case tpch.Lineitem:
		ship := g.date()
		return mring.Tuple{
			mring.Int(g.fk(lt)),                         // l_orderkey
			mring.Int(1 + r.Int63n(200)),                // l_partkey
			mring.Int(1 + r.Int63n(10)),                 // l_suppkey
			mring.Float(float64(1 + r.Intn(50))),        // l_quantity
			mring.Float(900 + r.Float64()*104000),       // l_extendedprice
			mring.Float(float64(r.Intn(11)) / 100),      // l_discount
			mring.Int(ship),                             // l_shipdate
			mring.Int(ship + int64(r.Intn(60)) - 30),    // l_commitdate
			mring.Int(ship + int64(r.Intn(30))),         // l_receiptdate
			mring.Int(int64(r.Intn(3))),                 // l_returnflag
			mring.Int(int64(r.Intn(2))),                 // l_linestatus
			mring.Int(int64(r.Intn(tpch.NumShipmodes))), // l_shipmode
		}
	}
	panic("benchmark: no generator for table " + lt.name)
}

// next returns the following transaction. Per table it deletes the k
// oldest live rows and inserts k new ones, parents first, so the keys an
// insert draws are live once the transaction has been applied.
func (g *gen) next() txn {
	var tx txn
	for _, lt := range g.tables {
		lt.acc += lt.share * float64(g.perTx) / 2
		k := int(lt.acc)
		lt.acc -= float64(k)
		for i := 0; i < k; i++ {
			tx = append(tx, change{lt.name, *lt.at(lt.lo), -1})
			lt.lo++
		}
		for i := 0; i < k; i++ {
			tx = append(tx, change{lt.name, g.insert(lt), 1})
		}
	}
	return tx
}

// window returns the live rows per table, oldest first.
func (g *gen) window() map[string][]mring.Tuple {
	out := make(map[string][]mring.Tuple, len(g.tables))
	for _, lt := range g.tables {
		rows := make([]mring.Tuple, 0, lt.hi-lt.lo)
		for k := lt.lo; k < lt.hi; k++ {
			rows = append(rows, *lt.at(k))
		}
		out[lt.name] = rows
	}
	return out
}
