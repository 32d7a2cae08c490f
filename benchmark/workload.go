package main

import (
	"fmt"

	ivm "repro"
	"repro/internal/cluster"
	"repro/internal/mring"
	inet "repro/internal/net"
	"repro/internal/tpch"
)

// workload is one fixed set of inputs and one engine configuration. Every
// workload is a closed loop with one client: Apply is synchronous and
// delivers to subscribers on the caller's goroutine, so Apply latency is
// event-to-delta latency.
type workload struct {
	name    string
	why     string
	query   string
	tables  []string // parent before child
	live    []int    // live-window rows per table
	perTx   int      // changes per transaction, half inserts and half deletes
	backend string   // "local", "dist" (2 simulated workers) or "remote" (2 TCP workers)
	feed    bool     // one Subscribe callback
	durable bool
}

var (
	q3Tables = []string{tpch.Customer, tpch.Orders, tpch.Lineitem}
	q3Live   = []int{100, 1000, 4000}
	q1Tables = []string{tpch.Lineitem}
	q1Live   = []int{100000}
)

// workloads lists every workload by the name BENCHMARK.json gives it.
var workloads = []workload{
	{name: "q3_local", query: "Q3", tables: q3Tables, live: q3Live, perTx: 100, backend: "local",
		why: "3-way join on the local backend: delta evaluation and index maintenance do all the work, transport, WAL and feed none"},
	{name: "q3_dist2", query: "Q3", tables: q3Tables, live: q3Live, perTx: 100, backend: "dist",
		why: "same script on 2 simulated workers: adds dist programs, cluster driver and pool scatter/gather to q3_local"},
	{name: "q3_remote2", query: "Q3", tables: q3Tables, live: q3Live, perTx: 100, backend: "remote",
		why: "same script on 2 TCP workers: adds net framing, codec and real sockets to q3_dist2"},
	{name: "q1_small_feed", query: "Q1", tables: q1Tables, live: q1Live, perTx: 10, backend: "local", feed: true,
		why: "10 changes per transaction with a subscriber: per-transaction serving cost in ivm dominates, evaluation is near nothing"},
	{name: "q1_bulk", query: "Q1", tables: q1Tables, live: q1Live, perTx: 2000, backend: "local",
		why: "2000 changes per transaction, no subscriber: columnar kernels and group tables dominate, per-transaction cost vanishes"},
	{name: "q1_small_durable", query: "Q1", tables: q1Tables, live: q1Live, perTx: 10, backend: "local", feed: true, durable: true,
		why: "q1_small_feed plus a no-fsync write-ahead log: store record encode and WAL write are the only difference"},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

const remoteWorkers = 2

// deployment is a built engine with what must be torn down after it.
type deployment struct {
	eng       *ivm.Engine
	servers   []*cluster.WorkerServer
	abandoned bool
}

func (d *deployment) close() {
	if d.eng != nil && !d.abandoned {
		d.eng.Close() // a close error changes nothing the run reports
	}
	for _, s := range d.servers {
		s.Close()
	}
}

// abandon gives the engine up without Close, as a crash would: a durable
// engine writes no final checkpoint. Workers are still shut down, and the
// engine still answers reads.
func (d *deployment) abandon() {
	d.abandoned = true
	d.close()
}

// open builds the workload's engine over empty tables: compile, deploy,
// and for "remote" listen and connect. dir is the durable directory.
func (w workload) open(dir string) (*deployment, error) {
	q, err := tpch.QueryByName(w.query)
	if err != nil {
		return nil, err
	}
	d := &deployment{}
	var opts []ivm.Option
	switch w.backend {
	case "dist":
		opts = append(opts, ivm.Distributed(remoteWorkers), ivm.KeyRanks(tpch.PrimaryKeyRanks))
	case "remote":
		var addrs []string
		for i := 0; i < remoteWorkers; i++ {
			s, err := cluster.ListenAndServeWorker(inet.TCP{}, "127.0.0.1:0")
			if err != nil {
				d.close()
				return nil, err
			}
			d.servers = append(d.servers, s)
			addrs = append(addrs, s.Addr())
		}
		opts = append(opts, ivm.Remote(addrs...), ivm.KeyRanks(tpch.PrimaryKeyRanks))
	}
	if w.durable {
		opts = append(opts, ivm.Durable(dir, ivm.NoFsync(), ivm.CheckpointEvery(20000)))
	}
	d.eng, err = ivm.New(w.query, q.Def, q.BaseSchemas(), opts...)
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// warmBatches turns a live window into the argument of Engine.Warm.
func warmBatches(win map[string][]mring.Tuple) (map[string]*ivm.Batch, error) {
	out := make(map[string]*ivm.Batch, len(win))
	for table, rows := range win {
		b := ivm.NewBatch(tpch.Schemas[table])
		for _, t := range rows {
			if err := b.Insert(t); err != nil {
				return nil, err
			}
		}
		out[table] = b
	}
	return out, nil
}

// buildTx turns a script transaction into an ivm.Tx through the public
// builder, table by table in script order.
func buildTx(tx txn) (*ivm.Tx, error) {
	out := ivm.NewTx()
	for _, c := range tx {
		if err := out.Batch(c.table, tpch.Schemas[c.table]).Change(c.t, c.mult); err != nil {
			return nil, err
		}
	}
	return out, nil
}
