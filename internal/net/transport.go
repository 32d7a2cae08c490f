package net

import (
	"bufio"
	"net"
	"sync"
)

// Conn is one framed, ordered, reliable byte stream between two peers.
// Send and Recv move whole frames; both are safe for one concurrent
// sender plus one concurrent receiver (the request/response protocols
// above serialize harder than that). Close unblocks a pending Recv.
//
// Send does not retain payload after it returns, so a sender may encode
// every message into one reused buffer; a payload over MaxFrame is
// refused before any byte is sent. Recv returns each frame's payload in
// a buffer of its own, which the receiver may keep: a received relation
// payload is read in place from it.
type Conn interface {
	Send(typ byte, payload []byte) error
	Recv() (typ byte, payload []byte, err error)
	Close() error
}

// Listener accepts framed connections.
type Listener interface {
	Accept() (Conn, error)
	Addr() string
	Close() error
}

// Transport dials and listens for framed connections. TCP is the one
// real implementation; the interface is the QUIC seam — a QUIC transport
// (one stream per connection) satisfies it without touching any caller.
type Transport interface {
	Dial(addr string) (Conn, error)
	Listen(addr string) (Listener, error)
}

// TCP is the stream-socket transport: one framed protocol connection per
// TCP connection, with buffered writes flushed at frame boundaries.
type TCP struct{}

// Dial implements Transport.
func (TCP) Dial(addr string) (Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(nc), nil
}

// Listen implements Transport. Listening on port 0 picks a free port;
// read the chosen address back with Addr.
func (TCP) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l}, nil
}

type tcpListener struct{ l net.Listener }

func (t *tcpListener) Accept() (Conn, error) {
	nc, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(nc), nil
}

func (t *tcpListener) Addr() string { return t.l.Addr().String() }

func (t *tcpListener) Close() error { return t.l.Close() }

type tcpConn struct {
	nc net.Conn
	r  *bufio.Reader

	wmu sync.Mutex
	w   *bufio.Writer
}

func newTCPConn(nc net.Conn) *tcpConn {
	return &tcpConn{
		nc: nc,
		r:  bufio.NewReaderSize(nc, 1<<16),
		w:  bufio.NewWriterSize(nc, 1<<16),
	}
}

func (c *tcpConn) Send(typ byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := WriteFrame(c.w, typ, payload); err != nil {
		return err
	}
	return c.w.Flush()
}

func (c *tcpConn) Recv() (byte, []byte, error) {
	return ReadFrame(c.r)
}

func (c *tcpConn) Close() error { return c.nc.Close() }
