package ivm

// The differential matrix. The contract every backend keeps is that it
// maintains what the local engine maintains: bitwise where the arithmetic
// runs in the same order, within the oracle's tolerance where it cannot.
// Each test that holds backends to each other or to the oracle
// (internal/baseline) is a table of rows run by runRows. A row names a
// query, a script of transactions, the lanes (backends) that run it, and
// what they are compared on; the test keeps its own script builder and
// its own assertions in the row's check hook.

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/expr"
	"repro/internal/mring"
	"repro/internal/tpch"
)

// A row is one differential case.
type row struct {
	name string // the subtest's name; empty runs the row in the caller's test

	// The query: an engine name, its expression and base schemas, and the
	// options every lane's engine gets (key ranks, compile options).
	query string
	def   Expr
	bases map[string]Schema
	opts  []Option

	// The script: a warm load (Engine.Warm), then rounds of table
	// batches, each applied as one transaction.
	warm   []tpch.Batch
	rounds [][]tpch.Batch

	lanes []lane // lanes[0] is the reference

	// What is compared. The lanes' result or, with views, every
	// persistent view of the reference's program, against the reference
	// after the last round, or after every round with every; the result
	// against the oracle at the same points, and with views each delta-free
	// persistent view of the lane's own program after the last round. With
	// feed every lane subscribes from its start, and a bitwise lane's feed
	// must render as the reference's does from the round the lane began.
	views bool
	every bool
	feed  bool
	tol   cmp // the oracle's tolerance: approx or diff

	// empty names why the reference's compared relations may all end
	// empty on this row's script; otherwise the row fails then.
	empty string
	// check runs the row's own assertions after the last comparison.
	check func(t *testing.T, lanes map[string]*laneRun)
}

// cmp is how a lane's relations are compared with the reference's or the
// oracle's.
type cmp int

const (
	bitwise cmp = iota // groups, value kinds and multiplicity bits
	skip               // not compared
	approx             // mring's EqualApprox at 1e-6, group counts equal
	diff               // baseline.Diff: relative 1e-9, absent = 0
)

// A lane is one backend of a row.
type lane struct {
	name    string
	opts    []Option
	workers int      // Remote over this many loopback workers (startWorkers)
	addrs   []string // Remote over these addresses
	// durable runs the lane on a Durable directory, reopened mid-script.
	durable *recovery
	ref     cmp  // against the reference
	oracle  bool // against the oracle at the row's tolerance
}

// recovery checkpoints a durable lane's engine before round ckpt (never
// when ckpt is negative), abandons it un-Closed before round kill
// (len(rounds): after the last), as a crash leaves its directory, and
// reopens the directory; a Remote lane's workers restart empty with it.
// The reopened engine must have restored that checkpoint and replayed
// exactly the log's records after it.
type recovery struct {
	ckpt, kill int
	opts       []DurOpt
}

func localLane() lane { return lane{name: "local"} }
func distLane(n int) lane {
	return lane{name: fmt.Sprintf("Distributed(%d)", n), opts: []Option{Distributed(n)}}
}
func remoteLane(n int) lane  { return lane{name: fmt.Sprintf("Remote(%d)", n), workers: n} }
func oracleLane(l lane) lane { l.oracle = true; return l }

// durableLane runs l on a Durable directory that recovers before round
// kill from the checkpoint taken before round ckpt.
func durableLane(l lane, ckpt, kill int, opts ...DurOpt) lane {
	l.name = "Durable " + l.name
	l.durable = &recovery{ckpt, kill, opts}
	return l
}

// q3Empty is why Q3's result ends empty on a short tpch.Stream, which
// draws every foreign key uniformly over its parent's whole key range.
const q3Empty = "Q3's result stays empty on this tpch.Stream (ROADMAP item 25)"

// tpchRow is a row over a TPC-H query under the TPC-H key ranks.
func tpchRow(name string, q tpch.Query, rounds [][]tpch.Batch, lanes ...lane) row {
	return row{name: name, query: q.Name, def: q.Def, bases: q.BaseSchemas(),
		opts: []Option{KeyRanks(tpch.PrimaryKeyRanks)}, rounds: rounds, lanes: lanes}
}

// laneRun is a lane's engine and changefeed while its row runs.
type laneRun struct {
	lane
	e        *Engine
	feed     *replayer
	srvs     []*cluster.WorkerServer
	dir      string
	feedFrom int // the reference's deltas before this engine subscribed
}

// runRows runs each row, as a subtest when it is named.
func runRows(t *testing.T, rows ...row) {
	t.Helper()
	for _, r := range rows {
		if r.name == "" {
			r.run(t)
		} else {
			t.Run(r.name, r.run)
		}
	}
}

func (r row) run(t *testing.T) {
	t.Helper()
	lanes := make([]*laneRun, len(r.lanes))
	byName := make(map[string]*laneRun, len(r.lanes))
	for i, l := range r.lanes {
		lr := &laneRun{lane: l}
		if l.durable != nil {
			lr.dir = t.TempDir()
		}
		r.open(t, lr, nil)
		if len(r.warm) > 0 {
			tables := map[string]*Batch{}
			for n, s := range r.bases {
				tables[n] = NewBatch(s)
			}
			for _, b := range r.warm {
				tables[b.Table].rel.Merge(b.Rel)
			}
			if err := lr.e.Warm(tables); err != nil {
				t.Fatalf("%s: %v", l.name, err)
			}
		}
		lanes[i], byName[l.name] = lr, lr
	}
	accum := baseline.Changes{}
	for n := range r.bases {
		accum[n] = nil
	}
	for _, b := range r.warm {
		accum.Add(b.Table, b.Rel)
	}
	for i, round := range r.rounds {
		r.recover(t, lanes, i)
		for _, lr := range lanes {
			applyRound(t, lr.e, round)
		}
		for _, b := range round {
			accum.Add(b.Table, b.Rel)
		}
		if r.every && i < len(r.rounds)-1 {
			r.compare(t, fmt.Sprintf("round %d", i), lanes, accum, false)
		}
	}
	r.recover(t, lanes, len(r.rounds))
	r.compare(t, "at the end", lanes, accum, true)

	ref := lanes[0]
	if r.feed {
		for _, lr := range lanes[1:] {
			if lr.ref != bitwise {
				continue
			}
			if want := ref.feed.stream[lr.feedFrom:]; !slices.Equal(lr.feed.stream, want) {
				t.Fatalf("%s's feed is not %s's from delta %d on\n got %q\nwant %q", lr.name, ref.name, lr.feedFrom, lr.feed.stream, want)
			}
		}
	}
	rels := r.compared(ref.e)
	full := 0
	for _, rel := range rels {
		if rel.Len() > 0 {
			full++
		}
	}
	t.Logf("%s: %d of %d compared relations non-empty at the end", ref.name, full, len(rels))
	if full == 0 {
		if r.empty == "" {
			t.Fatalf("%s: every compared relation is empty: the comparisons proved nothing", ref.name)
		}
		t.Logf("empty by design: %s", r.empty)
	}
	if r.check != nil {
		r.check(t, byName)
	}
}

// open builds the lane's engine, on fresh workers for a Remote lane, and
// subscribes its feed; ref is the reference lane when a durable lane
// reopens, nil on first open.
func (r row) open(t *testing.T, lr *laneRun, ref *laneRun) {
	t.Helper()
	opts := append(append([]Option{}, r.opts...), lr.opts...)
	if lr.workers > 0 {
		var addrs []string
		addrs, lr.srvs = startWorkers(t, lr.workers)
		opts = append(opts, Remote(addrs...))
	}
	if len(lr.addrs) > 0 {
		opts = append(opts, Remote(lr.addrs...))
	}
	if lr.durable != nil {
		opts = append(opts, Durable(lr.dir, lr.durable.opts...))
	}
	e, err := New(r.query, r.def, r.bases, opts...)
	if err != nil {
		t.Fatalf("%s: %v", lr.name, err)
	}
	t.Cleanup(func() {
		if lr.e == e {
			e.Close()
		}
	})
	lr.e = e
	if r.feed {
		lr.feed = subscribeReplay(t, e)
		if ref != nil {
			lr.feedFrom = len(ref.feed.stream)
		}
	}
}

// recover runs every durable lane's checkpoint and crash due before
// round i.
func (r row) recover(t *testing.T, lanes []*laneRun, i int) {
	t.Helper()
	for _, lr := range lanes {
		d := lr.durable
		if d == nil {
			continue
		}
		if i == d.ckpt {
			if err := lr.e.Checkpoint(); err != nil {
				t.Fatalf("%s: %v", lr.name, err)
			}
		}
		if i != d.kill {
			continue
		}
		for _, s := range lr.srvs {
			s.Close()
		}
		r.open(t, lr, lanes[0])
		warm := 0
		if len(r.warm) > 0 {
			warm = 1 // the warm load is the log's first record
		}
		ckpt := max(d.ckpt+warm, 0)
		rec := lr.e.Stats().Durability.Recovery
		if !rec.Recovered || rec.HasCheckpoint != (d.ckpt >= 0) || rec.CheckpointSeq != int64(ckpt) || rec.ReplayedRecords != d.kill+warm-ckpt {
			t.Fatalf("%s: want a checkpoint of %d records and the %d after it replayed, got %+v", lr.name, ckpt, d.kill+warm-ckpt, rec)
		}
	}
}

// compared returns the relations a row compares, by view name: the
// result, or every persistent view.
func (r row) compared(e *Engine) map[string]*mring.Relation {
	if !r.views {
		return map[string]*mring.Relation{e.prog.QueryName: e.Result().rel}
	}
	out := map[string]*mring.Relation{}
	for _, v := range e.prog.Views {
		if !v.Transient {
			out[v.Name] = e.be.ViewContents(v.Name)
		}
	}
	return out
}

func (r row) compare(t *testing.T, at string, lanes []*laneRun, accum baseline.Changes, end bool) {
	t.Helper()
	ref := lanes[0]
	var want map[string]*mring.Relation
	for _, lr := range lanes[1:] {
		if lr.ref == skip {
			continue
		}
		if want == nil {
			want = r.compared(ref.e)
		}
		got := r.compared(lr.e)
		for name, w := range want {
			compareRel(t, lr.ref, fmt.Sprintf("%s: %s on %s against %s", at, name, lr.name, ref.name), got[name], w)
		}
	}
	db := baseline.Of(accum)
	var result baseline.Rows
	evaluated := false
	for _, lr := range lanes {
		if !lr.oracle {
			continue
		}
		if !evaluated {
			result, evaluated = baseline.Eval(r.def, db), true
		}
		label := fmt.Sprintf("%s: %s against the oracle", at, lr.name)
		compareOracle(t, r.tol, label, lr.e.Result().rel, result)
		if !end || !r.views {
			continue
		}
		for _, v := range lr.e.prog.Views {
			if !v.Transient && !expr.HasDelta(v.Def) {
				compareOracle(t, r.tol, label+", view "+v.Name, lr.e.be.ViewContents(v.Name), baseline.Eval(v.Def, db))
			}
		}
	}
}

// compareRel fails unless got matches want under c.
func compareRel(t *testing.T, c cmp, label string, got, want *mring.Relation) {
	t.Helper()
	switch c {
	case bitwise:
		requireBitwiseEqual(t, label, got, want)
	case approx:
		if got.Len() != want.Len() || !got.EqualApprox(want, 1e-6) {
			t.Fatalf("%s: %d groups, want %d\n got %v\nwant %v", label, got.Len(), want.Len(), got, want)
		}
	case diff:
		if d := baseline.Diff(got, oracleRows(want)); d != "" {
			t.Fatalf("%s: %s", label, d)
		}
	}
}

// compareOracle fails unless got matches the oracle's rows under c.
func compareOracle(t *testing.T, c cmp, label string, got *mring.Relation, want baseline.Rows) {
	t.Helper()
	switch c {
	case approx:
		compareRel(t, approx, label, got, relationOf(got.Schema(), want))
	case diff:
		if d := baseline.Diff(got, want); d != "" {
			t.Fatalf("%s: %s", label, d)
		}
	default:
		t.Fatalf("%s: the oracle compares at approx or diff, not %d", label, c)
	}
}

// relationOf reads the oracle's rows as a relation.
func relationOf(schema mring.Schema, rows baseline.Rows) *mring.Relation {
	r := mring.NewRelation(schema)
	for _, row := range rows {
		r.Add(row.Tuple, row.M)
	}
	return r
}

// requireBitwiseEqual fails unless got and want hold the same groups, each
// value of the same kind and bits, with multiplicities of the same bits:
// Int(2) and Float(2) are different groups, a NaN matches a NaN of its
// bits, and -0 does not match +0.
func requireBitwiseEqual(t *testing.T, label string, got, want *mring.Relation) {
	t.Helper()
	g, w := kindedBits(got), kindedBits(want)
	if len(g) != len(w) {
		t.Fatalf("%s: %d groups, want %d\n got %v\nwant %v", label, len(g), len(w), got, want)
	}
	for k, bits := range w {
		if gb, ok := g[k]; !ok || gb != bits {
			t.Fatalf("%s: group %q = %v (present %v), want exactly %v", label, k, math.Float64frombits(gb), ok, math.Float64frombits(bits))
		}
	}
}

// kindedBits renders a relation as group -> multiplicity bits, each group
// value written with its kind.
func kindedBits(r *mring.Relation) map[string]uint64 {
	out := make(map[string]uint64, r.Len())
	var key []byte
	r.Foreach(func(tp mring.Tuple, m float64) {
		key = key[:0]
		for _, v := range tp {
			switch key = append(key, byte(v.Kind())); v.Kind() {
			case mring.KString:
				key = strconv.AppendQuote(key, v.Text())
			case mring.KFloat:
				key = strconv.AppendUint(key, math.Float64bits(v.AsFloat()), 16)
			default:
				key = strconv.AppendInt(key, v.AsInt(), 10)
			}
		}
		out[string(key)] = math.Float64bits(m)
	})
	return out
}

// applyRound folds one round as a single transaction, each batch a clone.
func applyRound(t *testing.T, e *Engine, round []tpch.Batch) {
	t.Helper()
	tx := NewTx()
	for _, b := range round {
		if err := tx.Put(b.Table, &Batch{rel: b.Rel.Clone()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Apply(tx); err != nil {
		t.Fatal(err)
	}
}

// changeRound groups changes into one round's table batches, the tables in
// first-touch order and each batch's rows in change order, as Tx.Change
// builds them.
func changeRound(bases map[string]Schema, changes []mixedChange) []tpch.Batch {
	var round []tpch.Batch
	at := map[string]int{}
	for _, c := range changes {
		i, ok := at[c.table]
		if !ok {
			i = len(round)
			at[c.table] = i
			round = append(round, tpch.Batch{Table: c.table, Rel: mring.NewRelation(bases[c.table])})
		}
		round[i].Rel.Add(c.t, c.delta)
	}
	return round
}
