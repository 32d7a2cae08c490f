package cluster

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/dist"
	"repro/internal/mring"
	inet "repro/internal/net"
	"repro/internal/tpch"
)

// scribbleTCP is the TCP transport with a Send that overwrites its
// payload as soon as it returns. Every message a driver or a worker
// sends is encoded into a buffer its connection reuses, so a Send that
// kept the payload, or anything that still read the buffer after it, sees
// the scribbles.
type scribbleTCP struct{}

func (scribbleTCP) Dial(addr string) (inet.Conn, error) {
	c, err := inet.TCP{}.Dial(addr)
	if err != nil {
		return nil, err
	}
	return scribbleConn{c}, nil
}

func (scribbleTCP) Listen(addr string) (inet.Listener, error) {
	l, err := inet.TCP{}.Listen(addr)
	if err != nil {
		return nil, err
	}
	return scribbleListener{l}, nil
}

type scribbleListener struct{ inet.Listener }

func (l scribbleListener) Accept() (inet.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return scribbleConn{c}, nil
}

type scribbleConn struct{ inet.Conn }

func (c scribbleConn) Send(typ byte, payload []byte) error {
	err := c.Conn.Send(typ, payload)
	for i := range payload {
		payload[i] = 0xa5
	}
	return err
}

// TestReusedSendBuffers pins the buffer-reuse contract of inet.Conn:
// Send does not retain its payload, so every connection end encodes all
// its messages into one reused buffer. Q3 runs on two worker servers
// whose connections, like the driver's, overwrite each payload after
// Send returns, and every view the workers hold is bitwise what the
// in-process cluster holds, which equals the local executor's.
func TestReusedSendBuffers(t *testing.T) {
	q, err := tpch.QueryByName("Q3")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compile.Compile(q.Name, q.Def, q.BaseSchemas(), compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	parts := dist.ChoosePartitioning(prog, tpch.PrimaryKeyRanks)
	dprogs := dist.CompileProgram(prog, parts, dist.O3)
	addrs := make([]string, 2)
	for i := range addrs {
		srv, err := ListenAndServeWorker(scribbleTCP{}, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	proc, err := Connect(scribbleTCP{}, addrs, dist.ViewSchemas(prog), parts)
	if err != nil {
		t.Fatal(err)
	}
	defer proc.Close()
	sim := New(DefaultConfig(2), dist.ViewSchemas(prog), parts)
	defer sim.Close()
	local := compile.NewExecutor(prog)
	stream := tpch.NewStream(tpch.NewGenerator(0.2, 3), q.Tables)
	batches := 0
	for chunk := 0; chunk < 10; chunk++ {
		for _, b := range stream.NextBatches(200) {
			batches++
			local.ApplyBatch(b.Table, b.Rel.Clone())
			for _, c := range []*Cluster{sim, proc} {
				if _, err := c.RunPartitionedBatch(dprogs[b.Table], b.Rel.Clone()); err != nil {
					t.Fatalf("%s: %v", b.Table, err)
				}
			}
		}
	}
	for _, v := range prog.Views {
		if v.Transient {
			continue
		}
		want := sim.ViewContents(v.Name)
		if !want.EqualApprox(local.View(v.Name), 1e-6) {
			t.Fatalf("simulated %s diverged from the local executor", v.Name)
		}
		got := proc.ViewContents(v.Name)
		if got.Len() != want.Len() {
			t.Fatalf("workers hold %d rows of %s, the in-process cluster %d", got.Len(), v.Name, want.Len())
		}
		want.Foreach(func(tp mring.Tuple, m float64) {
			if g := got.Get(tp); g != m {
				t.Fatalf("%s%v = %g on the workers, %g in process", v.Name, tp, g, m)
			}
		})
	}
	t.Logf("%d batches, %d result rows", batches, proc.ViewContents(q.Name).Len())
	if proc.ViewContents(q.Name).Len() == 0 {
		t.Fatal("the stream left the result empty")
	}
}
