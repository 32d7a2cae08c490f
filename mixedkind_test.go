package ivm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/baseline"
)

// mixedChange is one change to a base table of the mixed-kind stream.
type mixedChange struct {
	table string
	t     Tuple
	delta float64
}

// mixedKindStream builds a warm start and a stream of transactions over
// R(k, v) and S(k, w) in which two columns mix value kinds: the join key
// k is an int or a string ("3" beside 3), and the measure v an int or a
// non-integral float, so a value coerced to its column's first kind
// changes a result.
func mixedKindStream(seed int64, rounds int) (warm []mixedChange, txs [][]mixedChange) {
	rng := rand.New(rand.NewSource(seed))
	key := func() any {
		n := rng.Intn(8)
		if rng.Intn(2) == 0 {
			return n
		}
		return fmt.Sprint(n)
	}
	measure := func() any {
		if rng.Intn(2) == 0 {
			return rng.Intn(9) - 4
		}
		return float64(rng.Intn(16)) + 0.25
	}
	var live []mixedChange
	gen := func(n int) []mixedChange {
		var out []mixedChange
		for i := 0; i < n; i++ {
			if len(live) > 0 && rng.Intn(4) == 0 {
				j := rng.Intn(len(live))
				c := live[j]
				live = append(live[:j], live[j+1:]...)
				out = append(out, mixedChange{c.table, c.t, -c.delta})
				continue
			}
			c := mixedChange{"R", Row(key(), measure()), float64(1 + rng.Intn(2))}
			if rng.Intn(3) == 0 {
				c = mixedChange{"S", Row(key(), rng.Intn(3)), 1}
			}
			live = append(live, c)
			out = append(out, c)
		}
		return out
	}
	warm = gen(40)
	for i := 0; i < rounds; i++ {
		txs = append(txs, gen(12))
	}
	return warm, txs
}

var mixedBases = map[string]Schema{"R": {"k", "v"}, "S": {"k", "w"}}

// mixedQuery groups by both mixed columns, so the result's keys carry
// their kinds, and sums the mixed measure.
func mixedQuery() Expr {
	return Sum([]string{"k", "v"}, Join(Table("R", "k", "v"), Table("S", "k", "w"), Val(Col("v"))))
}

// mixedRow is a row over mixedBases whose lanes rank k for the
// distributed backends: the local engine, the simulated cluster, process
// workers over loopback TCP (whose deals, shuffles and fetches ship the
// mixed columns as bytes), and a durable cluster engine recovered at kill
// from a checkpoint taken at ckpt and the WAL tail.
func mixedRow(query string, def Expr, warm []mixedChange, txs [][]mixedChange, ckpt, kill int) row {
	r := row{query: query, def: def, bases: mixedBases, opts: []Option{KeyRanks(map[string]int{"k": 2})},
		lanes: []lane{localLane(), distLane(2), remoteLane(2), durableLane(distLane(2), ckpt, kill, NoFsync())}}
	if len(warm) > 0 {
		r.warm = changeRound(mixedBases, warm)
	}
	for _, tx := range txs {
		r.rounds = append(r.rounds, changeRound(mixedBases, tx))
	}
	return r
}

// TestMixedKindColumnsAcrossBackends streams a table whose join key mixes
// ints and strings and whose measure mixes ints and floats through every
// backend. The durable engine checkpoints a third of the way in and is
// abandoned un-Closed two thirds in; the reopened engine restores the
// checkpoint, replays the tail and runs the rest. Every result must agree
// bitwise, kinds included.
func TestMixedKindColumnsAcrossBackends(t *testing.T) {
	warm, txs := mixedKindStream(7, 16)
	r := mixedRow("QM", mixedQuery(), warm, txs, len(txs)/3, 2*len(txs)/3)
	r.check = func(t *testing.T, lanes map[string]*laneRun) {
		kinds := map[string]bool{}
		lanes["local"].e.Result().Foreach(func(tp Tuple, _ float64) {
			kinds["k"+tp[0].Kind().String()] = true
			kinds["v"+tp[1].Kind().String()] = true
		})
		if len(kinds) != 4 {
			t.Fatalf("result groups carry kinds %v, want both kinds in both columns", kinds)
		}
	}
	runRows(t, r)
}

// TestWideIntegerKeysAcrossBackends groups by integers that float64
// cannot tell apart: 2^53 and 2^53+1 round to one float, and MaxInt64-1
// and MaxInt64 both round to 2^63. Each is its own group on every
// backend, the durable engine checkpointed after the first transaction
// and recovered after the second, and every result equals the oracle's
// and, bitwise, the local engine's.
func TestWideIntegerKeysAcrossBackends(t *testing.T) {
	q := Sum([]string{"k"}, Table("R", "k", "v"))
	// Key i enters with multiplicity i+1, so every group has its own
	// count; then one row of 2^53+1 leaves and MaxInt64 gains one.
	var first []mixedChange
	for i, k := range []int64{1 << 53, 1<<53 + 1, math.MaxInt64 - 1, math.MaxInt64} {
		first = append(first, mixedChange{"R", Row(k, i), float64(i + 1)})
	}
	txs := [][]mixedChange{first,
		{{"R", Row(int64(1<<53+1), 1), -1}},
		{{"R", Row(int64(math.MaxInt64), 7), 1}}}
	var rows baseline.Rows // every change apart, for the oracle to sum
	for _, tx := range txs {
		for _, c := range tx {
			rows = append(rows, baseline.Row{Tuple: c.t, M: c.delta})
		}
	}
	if want := baseline.Eval(q, baseline.DB{"R": rows}); len(want) != 4 {
		t.Fatalf("the oracle finds %d groups, want 4: %v", len(want), want)
	}
	r := mixedRow("QW", q, nil, txs, 1, 2)
	r.bases = map[string]Schema{"R": {"k", "v"}}
	for i := range r.lanes {
		r.lanes[i].oracle = true
	}
	r.tol = diff
	runRows(t, r)
}
