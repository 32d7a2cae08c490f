package ivm

import (
	"fmt"
	"sync"

	"repro/internal/mring"
	inet "repro/internal/net"
	"repro/internal/pool"
	"repro/internal/wire"
)

// Feed wire protocol, carried over the same length-prefixed frames as
// the cluster protocol (internal/net). One subscribe request per
// connection, then a one-way delta stream until either side closes.
// Message bodies are in the internal/wire codec.
const (
	feedOpSub   byte = 0x10 // client → server: feedSubReq
	feedOpOK    byte = 0x11 // server → client: subscription accepted, empty body
	feedOpErr   byte = 0x12 // server → client: error text, then close
	feedOpDelta byte = 0x13 // server → client: feedDeltaMsg
)

// feedQueueCap bounds the per-connection delta queue. A subscriber that
// cannot keep up never blocks Apply: once the queue is full, new deltas
// coalesce into the newest queued entry (deltas are additive, so the
// merged delta replays to the same result; only per-transaction
// granularity is lost on that connection).
const feedQueueCap = 64

type feedSubReq struct {
	// View is the registered view name; empty selects an Engine's single
	// query.
	View string
	// Key restricts the stream like OnKey.
	Key []mring.Value
}

func (m *feedSubReq) encode() []byte {
	var e wire.Enc
	e.Str(m.View)
	e.Int(len(m.Key))
	for _, v := range m.Key {
		e.Value(v)
	}
	return e.B
}

func (m *feedSubReq) decode(body []byte) error {
	d := wire.NewDec(body)
	m.View = d.Str()
	// A key value is at least its kind byte and one more.
	if n := d.Count(2); n > 0 {
		m.Key = make([]mring.Value, n)
		d.Tuple(m.Key)
	}
	return d.Done()
}

type feedDeltaMsg struct {
	Seq    int64
	Schema mring.Schema
	// Payload is the delta relation in the lossless wire payload format;
	// empty for an empty delta.
	Payload []byte
}

func (m *feedDeltaMsg) encode() []byte {
	var e wire.Enc
	putDeltaHead(&e, m.Seq, m.Schema)
	e.Bytes(m.Payload)
	return e.B
}

// putDeltaHead writes a delta message up to its payload, which follows
// with its length prefix.
func putDeltaHead(e *wire.Enc, seq int64, schema mring.Schema) {
	e.Varint(seq)
	e.Strs(schema)
}

func (m *feedDeltaMsg) decode(body []byte) error {
	d := wire.NewDec(body)
	m.Seq = d.Varint()
	m.Schema = d.Schema()
	m.Payload = d.Bytes()
	return d.Done()
}

// relation rebuilds the delta. The payload must have the arity of the
// schema it arrived under, as on the cluster protocol.
func (m *feedDeltaMsg) relation() (*mring.Relation, error) {
	rel := mring.NewRelation(m.Schema)
	if len(m.Payload) == 0 {
		return rel, nil
	}
	p, err := inet.DecodePayload(m.Payload)
	if err != nil {
		return nil, err
	}
	if len(p.Schema) != len(m.Schema) {
		return nil, fmt.Errorf("payload arity %d, schema arity %d", len(p.Schema), len(m.Schema))
	}
	p.Foreach(rel.Add)
	return rel, nil
}

// FeedServer streams changefeed deltas to remote subscribers over the
// framed transport. Each accepted connection sends one subscribe
// request, is registered as an ordinary (possibly keyed) subscriber on
// the serving engine or registry, and then receives every matching
// delta as a frame. Delivery is decoupled from Apply by a bounded
// per-connection queue with coalescing overflow, so one slow or stalled
// subscriber cannot stall transactions or other subscribers.
type FeedServer struct {
	srv *inet.Server
	// resolve registers a subscription for one connection; it is the
	// engine's or registry's internal subscribe path (returns errors, as
	// the remote peer cannot be helped by a panic).
	resolve func(view string, fn func(Delta), opts ...SubOption) (func(), error)
}

// ServeFeed starts a changefeed server for this engine's query on addr
// (TCP; port 0 picks a free port, read it back with Addr). Remote
// subscribers connect with DialFeed. Close the server before closing
// the engine.
func (e *Engine) ServeFeed(addr string) (*FeedServer, error) {
	return newFeedServer(addr, func(view string, fn func(Delta), opts ...SubOption) (func(), error) {
		return e.subscribe(e.prog.QueryName, fn, opts...)
	})
}

// ServeFeed starts a changefeed server for this registry's views on
// addr. Remote subscribers name the registered view they want in
// DialFeed.
func (r *Registry) ServeFeed(addr string) (*FeedServer, error) {
	return newFeedServer(addr, func(view string, fn func(Delta), opts ...SubOption) (func(), error) {
		if err := r.ensure(); err != nil {
			return nil, err
		}
		top, err := r.top(view)
		if err != nil {
			return nil, err
		}
		return r.subscribe(top, fn, opts...)
	})
}

func newFeedServer(addr string, resolve func(string, func(Delta), ...SubOption) (func(), error)) (*FeedServer, error) {
	l, err := inet.TCP{}.Listen(addr)
	if err != nil {
		return nil, err
	}
	s := &FeedServer{resolve: resolve}
	s.srv = inet.Serve(l, s.serveConn)
	return s, nil
}

// Addr returns the server's listen address.
func (s *FeedServer) Addr() string { return s.srv.Addr() }

// Close stops accepting, severs every subscriber connection, and
// unregisters their subscriptions. Safe to call more than once.
func (s *FeedServer) Close() error { return s.srv.Close() }

// serveConn serves one subscriber until either side closes. The server
// closes conn on Close, which ends the drain below; the subscription is
// unregistered and the writer stopped before serveConn returns.
func (s *FeedServer) serveConn(conn inet.Conn) {
	op, body, err := conn.Recv()
	if err != nil || op != feedOpSub {
		return
	}
	var req feedSubReq
	if err := req.decode(body); err != nil {
		conn.Send(feedOpErr, []byte(fmt.Sprintf("ivm: bad subscribe request: %v", err)))
		return
	}
	fc := &feedConn{conn: conn}
	fc.wake = sync.NewCond(&fc.mu)
	var opts []SubOption
	if len(req.Key) > 0 {
		opts = append(opts, OnKey(req.Key...))
	}
	cancel, err := s.resolve(req.View, fc.push, opts...)
	if err != nil {
		conn.Send(feedOpErr, []byte(err.Error()))
		return
	}
	fc.cancel = cancel
	if err := conn.Send(feedOpOK, nil); err != nil {
		fc.teardown()
		return
	}
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		fc.writeLoop()
		fc.teardown()
	}()
	// Drain the connection until the client goes away; its only valid
	// traffic after the subscribe request is EOF.
	for {
		if _, _, err := conn.Recv(); err != nil {
			break
		}
	}
	fc.teardown()
	<-wrote
}

// feedConn is one subscriber connection: a bounded delta queue filled
// synchronously by the engine's delivery path and drained by a writer
// goroutine.
type feedConn struct {
	conn   inet.Conn
	cancel func()
	// enc and w encode every delta writeLoop sends, the payload written
	// in place after the message head; only writeLoop touches them.
	enc wire.Enc
	w   pool.Writer

	mu     sync.Mutex
	wake   *sync.Cond
	queue  []queuedDelta
	closed bool
}

type queuedDelta struct {
	seq int64
	rel *mring.Relation
}

// push enqueues one delta; it runs on the applying goroutine and never
// blocks. On overflow the newest queued entry absorbs the new delta:
// the replacement is a fresh relation (queued relations are shared with
// other subscribers and must never be mutated).
func (fc *feedConn) push(d Delta) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.closed {
		return
	}
	if len(fc.queue) >= feedQueueCap {
		last := &fc.queue[len(fc.queue)-1]
		merged := mring.NewRelation(last.rel.Schema())
		merged.Merge(last.rel)
		merged.Merge(d.rel)
		*last = queuedDelta{seq: d.Seq, rel: merged}
	} else {
		fc.queue = append(fc.queue, queuedDelta{seq: d.Seq, rel: d.rel})
	}
	fc.wake.Signal()
}

func (fc *feedConn) writeLoop() {
	for {
		fc.mu.Lock()
		for len(fc.queue) == 0 && !fc.closed {
			fc.wake.Wait()
		}
		if fc.closed {
			fc.mu.Unlock()
			return
		}
		q := fc.queue[0]
		fc.queue = fc.queue[1:]
		fc.mu.Unlock()
		fc.enc.Reset()
		putDeltaHead(&fc.enc, q.seq, q.rel.Schema())
		fc.enc.B = inet.AppendPayload(fc.enc.B, &fc.w, q.rel.Schema(), q.rel)
		if err := fc.conn.Send(feedOpDelta, fc.enc.B); err != nil {
			return
		}
	}
}

// teardown unregisters the subscription and severs the connection; safe
// to call more than once and from any goroutine.
func (fc *feedConn) teardown() {
	fc.mu.Lock()
	if fc.closed {
		fc.mu.Unlock()
		return
	}
	fc.closed = true
	fc.queue = nil
	fc.wake.Broadcast()
	fc.mu.Unlock()
	if fc.cancel != nil {
		fc.cancel()
	}
	fc.conn.Close()
}

// FeedSub is a remote changefeed subscription created by DialFeed:
// Recv returns each delta the server's engine delivered, in order.
type FeedSub struct {
	conn inet.Conn
}

// DialFeed connects to a FeedServer and subscribes to one view's
// changefeed. view names a registered view on a registry server and is
// ignored ("" is conventional) on an engine server. OnKey restricts the
// stream server-side, so only matching deltas cross the wire.
//
// The stream is ordered but, under backpressure, adjacent deltas may
// arrive merged into one (Delta.Seq is then the newest transaction the
// merge covers); replaying the stream still reconstructs the result
// exactly.
func DialFeed(addr, view string, opts ...SubOption) (*FeedSub, error) {
	var cfg subConfig
	for _, o := range opts {
		o(&cfg)
	}
	conn, err := inet.TCP{}.Dial(addr)
	if err != nil {
		return nil, err
	}
	req := feedSubReq{View: view, Key: cfg.key}
	if err := conn.Send(feedOpSub, req.encode()); err != nil {
		conn.Close()
		return nil, err
	}
	op, rbody, err := conn.Recv()
	if err != nil {
		conn.Close()
		return nil, err
	}
	switch op {
	case feedOpOK:
		return &FeedSub{conn: conn}, nil
	case feedOpErr:
		conn.Close()
		return nil, fmt.Errorf("ivm: feed subscribe rejected: %s", rbody)
	default:
		conn.Close()
		return nil, fmt.Errorf("ivm: feed subscribe: unexpected frame type 0x%02x", op)
	}
}

// Recv blocks for the next delta. It returns io.EOF when the server
// closed the stream. Received payloads go through the hardened wire
// decoders; a corrupt frame returns an error.
func (s *FeedSub) Recv() (Delta, error) {
	op, body, err := s.conn.Recv()
	if err != nil {
		return Delta{}, err
	}
	switch op {
	case feedOpDelta:
		var msg feedDeltaMsg
		if err := msg.decode(body); err != nil {
			return Delta{}, fmt.Errorf("ivm: feed: corrupt delta frame: %w", err)
		}
		rel, err := msg.relation()
		if err != nil {
			return Delta{}, fmt.Errorf("ivm: feed: corrupt delta payload: %w", err)
		}
		return Delta{Seq: msg.Seq, rel: rel}, nil
	case feedOpErr:
		return Delta{}, fmt.Errorf("ivm: feed error: %s", body)
	default:
		return Delta{}, fmt.Errorf("ivm: feed: unexpected frame type 0x%02x", op)
	}
}

// Close terminates the subscription; the server unregisters it when the
// close is observed.
func (s *FeedSub) Close() error { return s.conn.Close() }
