package ivm

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	inet "repro/internal/net"
	"repro/internal/tpch"
)

var updateLedger = flag.Bool("update", false, "rewrite "+ledgerFile+" from this run")

const ledgerFile = "testdata/work.ledger"

// ledgerQueries are the queries the work ledger replays.
var ledgerQueries = []string{"Q1", "Q3", "Q5", "Q6", "Q10"}

// ledgerScript is the fixed transaction script the work ledger replays
// per query: the static dimensions as one transaction, then every stream
// round of 20 events as one multi-table transaction, its tables in the
// stream's first-touch order.
func ledgerScript(q tpch.Query) [][]tpch.Batch {
	gen := tpch.NewGenerator(0.05, 17)
	var script [][]tpch.Batch
	var static []tpch.Batch
	for _, tbl := range q.Tables {
		if tbl == tpch.Nation || tbl == tpch.Region {
			static = append(static, tpch.Batch{Table: tbl, Rel: gen.Static(tbl)})
		}
	}
	if len(static) > 0 {
		script = append(script, static)
	}
	stream := tpch.NewStream(gen, q.Tables)
	for bs := stream.NextBatches(20); len(bs) > 0; bs = stream.NextBatches(20) {
		script = append(script, bs)
	}
	return script
}

// TestWorkLedger replays a fixed script of TPC-H transactions through
// ivm.Engine on every backend and compares the work it counts — never a
// time or an allocation — with testdata/work.ledger, line for line:
// evaluation operations per changed tuple, kept tuples per view, stages
// and shuffled bytes, requests each worker serves per transaction, the
// payload bytes of those requests and their responses over every worker's
// transport (wire_b_per_tx: shuffled_b counts the movement transformers
// only, never the deal of a batch or a deploy), WAL
// bytes per transaction, and changefeed rows. kept.* counts every copy:
// a replicated view counts its driver mirror and each worker's replica,
// so Q3's 1-row M2 reads 3 on two workers. A change that moves a line
// moves it on purpose; re-pin with
//
//	go test -run '^TestWorkLedger$' -update .
func TestWorkLedger(t *testing.T) {
	var out bytes.Buffer
	fmt.Fprintf(&out, "# Work counted over ledgerScript (ledger_test.go); one line per query, backend and metric.\n")
	fmt.Fprintf(&out, "# Regenerate with: go test -run '^TestWorkLedger$' -update .\n")
	for _, name := range ledgerQueries {
		q, err := tpch.QueryByName(name)
		if err != nil {
			t.Fatal(err)
		}
		script := ledgerScript(q)
		for _, be := range []string{"local", "dist2", "remote2", "durable"} {
			for _, l := range ledgerRun(t, q, be, script) {
				fmt.Fprintf(&out, "%s %s %s\n", name, be, l)
			}
		}
	}
	if *updateLedger {
		if err := os.WriteFile(ledgerFile, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ledgerFile)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	gotLines, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d: got %q, ledger has %q", i+1, g, w)
		}
	}
}

// ledgerRun replays the script on one backend and returns its ledger
// lines, each "metric value".
func ledgerRun(t *testing.T, q tpch.Query, be string, script [][]tpch.Batch) []string {
	t.Helper()
	opts := []Option{KeyRanks(tpch.PrimaryKeyRanks)}
	var recv, wire []*atomic.Int64
	switch be {
	case "dist2":
		opts = append(opts, Distributed(2))
	case "remote2":
		addrs := make([]string, 2)
		for i := range addrs {
			tr := countingTCP{recv: new(atomic.Int64), sent: new(atomic.Int64), wire: new(atomic.Int64)}
			srv, err := cluster.ListenAndServeWorker(tr, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			addrs[i] = srv.Addr()
			recv = append(recv, tr.recv)
			wire = append(wire, tr.wire)
		}
		opts = append(opts, Remote(addrs...))
	case "durable":
		opts = append(opts, Durable(t.TempDir()))
	}
	e, err := New(q.Name, q.Def, q.BaseSchemas(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var feedRows int64
	if _, err := e.Subscribe(func(d Delta) { feedRows += int64(d.Len()) }); err != nil {
		t.Fatal(err)
	}
	requests := make([]int64, len(recv))
	var changed, wireBytes int64
	for _, bs := range script {
		tx := e.NewTx()
		for _, b := range bs {
			changed += int64(b.Rel.Len())
			if err := tx.Put(b.Table, &Batch{rel: b.Rel}); err != nil {
				t.Fatal(err)
			}
		}
		before := make([]int64, len(recv))
		for i, r := range recv {
			before[i] = r.Load()
			wireBytes -= wire[i].Load()
		}
		if err := e.Apply(tx); err != nil {
			t.Fatal(err)
		}
		for i, r := range recv {
			requests[i] += r.Load() - before[i]
			wireBytes += wire[i].Load()
		}
	}
	txs := float64(len(script))
	perTuple := func(n int64) string { return fmt.Sprintf("%.4f", float64(n)/float64(changed)) }
	st := e.Stats()
	lines := []string{
		fmt.Sprintf("txs %d", len(script)),
		fmt.Sprintf("changed_tuples %d", changed),
		"lookups_per_tuple " + perTuple(st.Lookups),
		"scans_per_tuple " + perTuple(st.Scans),
		"emits_per_tuple " + perTuple(st.Emits),
		"indexops_per_tuple " + perTuple(st.IndexOps),
	}
	if m := e.Metrics(); be == "dist2" || be == "remote2" {
		lines = append(lines,
			fmt.Sprintf("stages_per_tx %.4f", float64(m.Stages)/txs),
			fmt.Sprintf("shuffled_b %d", m.ShuffledBytes))
	}
	for i, n := range requests {
		lines = append(lines, fmt.Sprintf("requests_per_tx.w%d %.4f", i, float64(n)/txs))
	}
	if be == "remote2" {
		lines = append(lines, fmt.Sprintf("wire_b_per_tx %.1f", float64(wireBytes)/txs))
	}
	if be == "durable" {
		lines = append(lines, fmt.Sprintf("wal_b_per_tx %.1f", float64(st.Durability.Bytes)/txs))
	}
	lines = append(lines, fmt.Sprintf("feed_rows %d", feedRows))
	kept := keptTuples(t, e)
	views := make([]string, 0, len(kept))
	for v := range kept {
		views = append(views, v)
	}
	sort.Strings(views)
	for _, v := range views {
		lines = append(lines, fmt.Sprintf("kept.%s %d", v, kept[v]))
	}
	return lines
}

// keptTuples counts, per persistent view of the engine's program, the
// tuples its state holds over every node: the driver copy and every
// worker fragment or replica.
func keptTuples(t *testing.T, e *Engine) map[string]int {
	t.Helper()
	e.beMu.Lock()
	cp, err := e.be.SnapshotState()
	e.beMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string]int{}
	for _, v := range e.prog.Views {
		if !v.Transient {
			kept[v.Name] = 0
		}
	}
	for _, frags := range append([]map[string]cluster.Frag{cp.Driver}, cp.Workers...) {
		for name, f := range frags {
			if _, ok := kept[name]; !ok || len(f.Payload) == 0 {
				continue
			}
			r, err := inet.RestoreRelationExact(f.Payload, f.Buckets, f.Schema)
			if err != nil {
				t.Fatal(err)
			}
			kept[name] += r.Len()
		}
	}
	return kept
}
