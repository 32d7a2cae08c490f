package ivm

import (
	"testing"

	"repro/internal/cluster"
	inet "repro/internal/net"
	"repro/internal/tpch"
)

// TestQ3ShuffledBytesPinned pins the exact shuffle traffic of Q3 over a
// fixed TPC-H stream: the in-process cluster's measured ShuffledBytes and
// the relation payload bytes two loopback worker processes exchange
// (which a process cluster reports as its ShuffledBytes). Small
// transactions leave many fragments empty, so the pin covers the
// empty-fragment encoding as well as the columnar one. Any change to a
// shipped payload's bytes moves these literals.
func TestQ3ShuffledBytesPinned(t *testing.T) {
	const (
		txs   = 40
		chunk = 20 // stream events per transaction
	)
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	drive := func(e *Engine) int64 {
		t.Helper()
		defer e.Close()
		stream := tpch.NewStream(tpch.NewGenerator(0.05, 17), q.Tables)
		for i := 0; i < txs; i++ {
			tx := e.NewTx()
			for _, b := range stream.NextBatches(chunk) {
				if err := tx.Put(b.Table, &Batch{rel: b.Rel}); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.Apply(tx); err != nil {
				t.Fatal(err)
			}
		}
		return e.Metrics().ShuffledBytes
	}

	sim, err := New(q.Name, q.Def, q.BaseSchemas(), Distributed(2), KeyRanks(tpch.PrimaryKeyRanks))
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 2)
	for i := range addrs {
		srv, err := cluster.ListenAndServeWorker(inet.TCP{}, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	remote, err := New(q.Name, q.Def, q.BaseSchemas(), Remote(addrs...), KeyRanks(tpch.PrimaryKeyRanks))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		e    *Engine
		want int64
	}{
		{"Distributed(2)", sim, 6105},
		{"Remote(2)", remote, 6174},
	} {
		if got := drive(c.e); got != c.want {
			t.Errorf("%s: %d bytes shuffled, want %d", c.name, got, c.want)
		}
	}
}
