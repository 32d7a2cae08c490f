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

func warmMixed(t *testing.T, e *Engine, warm []mixedChange) {
	t.Helper()
	tables := map[string]*Batch{}
	for n, s := range mixedBases {
		tables[n] = NewBatch(s)
	}
	for _, c := range warm {
		if err := tables[c.table].Change(c.t, c.delta); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Warm(tables); err != nil {
		t.Fatal(err)
	}
}

func applyMixed(t *testing.T, e *Engine, tx []mixedChange) {
	t.Helper()
	x := e.NewTx()
	for _, c := range tx {
		if err := x.Change(c.table, c.t, c.delta); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Apply(x); err != nil {
		t.Fatal(err)
	}
}

// kindedContents renders a result as group -> aggregate bits, the group
// printed with each value's kind, so Int(2) and Float(2) — equal under
// Value.Equal — are different groups here.
func kindedContents(r *Result) map[string]uint64 {
	out := make(map[string]uint64, r.Len())
	r.Foreach(func(t Tuple, agg float64) { out[fmt.Sprintf("%#v", t)] = math.Float64bits(agg) })
	return out
}

func requireSameKinded(t *testing.T, label string, got, want *Result) {
	t.Helper()
	g, w := kindedContents(got), kindedContents(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d groups, want %d\n got %v\nwant %v", label, len(g), len(w), got, want)
	}
	for k, bits := range w {
		if gb, ok := g[k]; !ok || gb != bits {
			t.Fatalf("%s: group %s = %v (present %v), want %v", label, k, math.Float64frombits(gb), ok, math.Float64frombits(bits))
		}
	}
}

// TestMixedKindColumnsAcrossBackends streams a table whose join key mixes
// ints and strings and whose measure mixes ints and floats through every
// backend: the local engine, the simulated cluster, process workers over
// loopback TCP (whose deals, shuffles and fetches ship the mixed columns
// as bytes), and a durable cluster engine reopened from a checkpoint and
// a WAL tail. Every result must agree bitwise, kinds included.
func TestMixedKindColumnsAcrossBackends(t *testing.T) {
	warm, txs := mixedKindStream(7, 16)
	ranks := KeyRanks(map[string]int{"k": 2})
	run := func(label string, opts ...Option) *Engine {
		t.Helper()
		e, err := New("QM", mixedQuery(), mixedBases, opts...)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		t.Cleanup(func() { e.Close() })
		warmMixed(t, e, warm)
		for _, tx := range txs {
			applyMixed(t, e, tx)
		}
		return e
	}
	local := run("local")
	if local.Result().Len() == 0 {
		t.Fatal("empty result: the stream joins nothing")
	}
	kinds := map[string]bool{}
	local.Result().Foreach(func(tp Tuple, _ float64) {
		kinds["k"+tp[0].Kind().String()] = true
		kinds["v"+tp[1].Kind().String()] = true
	})
	if len(kinds) != 4 {
		t.Fatalf("result groups carry kinds %v, want both kinds in both columns", kinds)
	}
	requireSameKinded(t, "Distributed(2)", run("distributed", Distributed(2), ranks).Result(), local.Result())
	addrs, _ := startWorkers(t, 2)
	requireSameKinded(t, "Remote(2)", run("remote", Remote(addrs...), ranks).Result(), local.Result())

	// The durable engine checkpoints a third of the way in and is
	// abandoned un-Closed two thirds in; the reopened engine restores the
	// checkpoint, replays the tail and runs the rest.
	dir := t.TempDir()
	opts := []Option{Distributed(2), ranks, Durable(dir, NoFsync())}
	victim, err := New("QM", mixedQuery(), mixedBases, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ckptAt, killAt := len(txs)/3, 2*len(txs)/3
	warmMixed(t, victim, warm)
	for i, tx := range txs[:killAt] {
		applyMixed(t, victim, tx)
		if i+1 == ckptAt {
			if err := victim.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	reopened, err := New("QM", mixedQuery(), mixedBases, opts...)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if rec := reopened.Stats().Durability.Recovery; !rec.HasCheckpoint || rec.ReplayedRecords != killAt-ckptAt {
		t.Fatalf("want checkpoint + %d-record tail replay, got %+v", killAt-ckptAt, rec)
	}
	for _, tx := range txs[killAt:] {
		applyMixed(t, reopened, tx)
	}
	requireSameKinded(t, "Durable reopen", reopened.Result(), local.Result())
}

// TestWideIntegerKeysAcrossBackends groups by integers that float64
// cannot tell apart: 2^53 and 2^53+1 round to one float, and MaxInt64-1
// and MaxInt64 both round to 2^63. Each is its own group on the local
// engine, the simulated cluster, process workers over loopback TCP and a
// durable cluster engine reopened from a checkpoint and a WAL tail, and
// every result equals the oracle's.
func TestWideIntegerKeysAcrossBackends(t *testing.T) {
	q := Sum([]string{"k"}, Table("R", "k", "v"))
	bases := map[string]Schema{"R": {"k", "v"}}
	ranks := KeyRanks(map[string]int{"k": 2})
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
	want := baseline.Eval(q, baseline.DB{"R": rows})
	if len(want) != 4 {
		t.Fatalf("the oracle finds %d groups, want 4: %v", len(want), want)
	}
	check := func(label string, e *Engine) {
		t.Helper()
		if d := baseline.Diff(e.Result().rel, want); d != "" {
			t.Fatalf("%s: %s", label, d)
		}
	}
	run := func(label string, opts ...Option) {
		t.Helper()
		e, err := New("QW", q, bases, opts...)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		t.Cleanup(func() { e.Close() })
		for _, tx := range txs {
			applyMixed(t, e, tx)
		}
		check(label, e)
	}
	run("local")
	run("Distributed(2)", Distributed(2), ranks)
	addrs, _ := startWorkers(t, 2)
	run("Remote(2)", Remote(addrs...), ranks)

	// The durable engine checkpoints after the first transaction and is
	// abandoned un-Closed after the second; the reopened engine restores
	// the checkpoint, replays the second and runs the third.
	dir := t.TempDir()
	opts := []Option{Distributed(2), ranks, Durable(dir, NoFsync())}
	victim, err := New("QW", q, bases, opts...)
	if err != nil {
		t.Fatal(err)
	}
	applyMixed(t, victim, txs[0])
	if err := victim.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyMixed(t, victim, txs[1])
	reopened, err := New("QW", q, bases, opts...)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if rec := reopened.Stats().Durability.Recovery; !rec.HasCheckpoint || rec.ReplayedRecords != 1 {
		t.Fatalf("want checkpoint + 1-record tail replay, got %+v", rec)
	}
	applyMixed(t, reopened, txs[2])
	check("Durable reopen", reopened)
}
