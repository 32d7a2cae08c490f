package ivm

// Process-cluster smoke: real worker processes (cmd/ivmworker) spawned
// over os/exec, a driver engine connected through ivm.Remote, and a
// bitwise-parity check against the in-process simulated cluster, over
// single-table batches and over multi-table transactions in two
// first-touch orders. Gated on IVM_WORKER_BIN (set by `make proc-smoke`
// and the CI job) so plain `go test` stays hermetic.

import (
	"bufio"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/tpch"
)

func TestProcessClusterSmoke(t *testing.T) {
	bin := os.Getenv("IVM_WORKER_BIN")
	if bin == "" {
		t.Skip("IVM_WORKER_BIN not set; run via `make proc-smoke`")
	}
	const workers = 4
	addrs := make([]string, workers)
	for i := range addrs {
		cmd := exec.Command(bin, "-listen", "127.0.0.1:0")
		out, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start worker %d: %v", i, err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
		line := make(chan string, 1)
		go func() {
			sc := bufio.NewScanner(out)
			if sc.Scan() {
				line <- sc.Text()
			}
			close(line)
		}()
		select {
		case l, ok := <-line:
			if !ok || !strings.HasPrefix(l, "LISTEN ") {
				t.Fatalf("worker %d: unexpected startup line %q", i, l)
			}
			addrs[i] = strings.TrimPrefix(l, "LISTEN ")
		case <-time.After(10 * time.Second):
			t.Fatalf("worker %d: no LISTEN line within 10s", i)
		}
	}

	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	bases := q.BaseSchemas()
	oracle, err := New(q.Name, q.Def, bases, Distributed(workers), KeyRanks(tpch.PrimaryKeyRanks))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := New(q.Name, q.Def, bases, Remote(addrs...), KeyRanks(tpch.PrimaryKeyRanks))
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	goldenStream(t, q, func(table string, b *Batch) {
		if err := oracle.ApplyBatch(table, b); err != nil {
			t.Fatal(err)
		}
		if err := remote.ApplyBatch(table, b); err != nil {
			t.Fatal(err)
		}
	})
	requireBitwiseEqual(t, "cross-process result", remote.Result().rel, oracle.Result().rel)

	// Multi-table transactions in two first-touch orders: each runs as one
	// fused program, deployed to the worker processes like any other.
	feed := newTableFeed(t, q, 0.2, 13)
	for i := 0; i < 10; i++ {
		seq := []string{tpch.Lineitem, tpch.Orders, tpch.Customer}
		if i%2 == 1 {
			seq = []string{tpch.Customer, tpch.Orders, tpch.Lineitem}
		}
		tx := NewTx()
		for _, table := range seq {
			if err := tx.Put(table, &Batch{rel: feed.next(table, q3TxSize[table])}); err != nil {
				t.Fatal(err)
			}
		}
		if err := oracle.Apply(tx); err != nil {
			t.Fatal(err)
		}
		if err := remote.Apply(tx); err != nil {
			t.Fatal(err)
		}
		requireBitwiseEqual(t, "cross-process result after a transaction", remote.Result().rel, oracle.Result().rel)
	}
}
