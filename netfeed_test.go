package ivm

import (
	"strings"
	"testing"
	"time"

	"repro/internal/mring"
	inet "repro/internal/net"
)

// TestFeedRecvRefusesArityMismatch pins that a remote subscriber refuses a
// delta whose payload arity differs from the schema it arrived under,
// as the cluster protocol refuses such a fragment: a raw server accepts
// the subscription and sends a 2-column payload under a 1-column schema.
func TestFeedRecvRefusesArityMismatch(t *testing.T) {
	l, err := inet.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	served := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			served <- err
			return
		}
		defer conn.Close()
		if _, _, err := conn.Recv(); err != nil {
			served <- err
			return
		}
		wide := mring.NewRelation(mring.Schema{"a", "b"})
		wide.Add(mring.Tuple{mring.Int(1), mring.Int(2)}, 1)
		msg := feedDeltaMsg{Seq: 1, Schema: mring.Schema{"a"}, Payload: inet.EncodeRelationPlain(wide)}
		if err := conn.Send(feedOpOK, nil); err != nil {
			served <- err
			return
		}
		served <- conn.Send(feedOpDelta, msg.encode())
		conn.Recv() // hold the connection until the client closes it
	}()
	sub, err := DialFeed(l.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if d, err := sub.Recv(); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("Recv of a 2-column payload under a 1-column schema: got %v, %v; want an arity error", d, err)
	}
}

// TestFeedCloseSeversSilentClient pins that Close returns while a client
// is connected but has not subscribed yet: the server tracks every
// accepted connection, not only subscribed ones, and closes it.
func TestFeedCloseSeversSilentClient(t *testing.T) {
	eng, err := New("Q", Sum(nil, Table("R", "A")), map[string]Schema{"R": {"A"}})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	fs, err := eng.ServeFeed("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := inet.TCP{}.Dial(fs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(50 * time.Millisecond) // let the server accept the silent connection
	closed := make(chan error, 1)
	go func() { closed <- fs.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("FeedServer.Close did not return within 2s while a silent client was connected")
	}
	if _, _, err := conn.Recv(); err == nil {
		t.Fatal("the silent client's connection is still open after Close")
	}
}

// FuzzFeedMessages feeds arbitrary bodies to both feed message decoders:
// the server's subscribe-request decode and the client's delta decode
// (message, then payload). Neither may panic, and a message either one
// accepts must re-encode to the same bytes.
func FuzzFeedMessages(f *testing.F) {
	sub := feedSubReq{View: "Q", Key: []mring.Value{mring.Int(-3), mring.Float(0.5), mring.Str("k")}}
	f.Add(sub.encode())
	f.Add((&feedSubReq{}).encode())
	r := mring.NewRelation(mring.Schema{"a", "b"})
	r.Add(mring.Tuple{mring.Int(1), mring.Str("x")}, 2)
	r.Add(mring.Tuple{mring.Float(1.5), mring.Str("y")}, -1)
	f.Add((&feedDeltaMsg{Seq: 7, Schema: r.Schema(), Payload: inet.EncodeRelationPlain(r)}).encode())
	f.Add((&feedDeltaMsg{Seq: 8, Schema: mring.Schema{"a"}}).encode())
	f.Fuzz(func(t *testing.T, body []byte) {
		var req feedSubReq
		if err := req.decode(body); err == nil {
			if again := req.encode(); string(again) != string(body) {
				t.Fatalf("accepted subscribe request re-encodes differently:\n in:  %q\n out: %q", body, again)
			}
		}
		var msg feedDeltaMsg
		if err := msg.decode(body); err == nil {
			if again := msg.encode(); string(again) != string(body) {
				t.Fatalf("accepted delta message re-encodes differently:\n in:  %q\n out: %q", body, again)
			}
			if rel, err := msg.relation(); err == nil && len(rel.Schema()) != len(msg.Schema) {
				t.Fatalf("delta relation has arity %d under a schema of %d", len(rel.Schema()), len(msg.Schema))
			}
		}
	})
}
