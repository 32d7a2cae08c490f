package net

import "sync"

// Server accepts connections on a listener and serves each with its
// handler on a goroutine of its own. It tracks every connection from the
// moment it is accepted, so Close severs a peer that has sent nothing
// yet as surely as one in mid-request.
type Server struct {
	l      Listener
	handle func(Conn)

	mu     sync.Mutex
	conns  map[Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts accepting on l. handle runs once per connection and must
// return once the connection is closed; the server closes it after.
func Serve(l Listener, handle func(Conn)) *Server {
	s := &Server{l: l, handle: handle, conns: make(map[Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener's address.
func (s *Server) Addr() string { return s.l.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
			conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every open connection, and waits for
// every handler to return. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.l.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}
