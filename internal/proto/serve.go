package proto

import (
	"net"
	"sync"
)

// Handler is what Serve runs for one connection. Frame takes each request
// frame in arrival order on the read goroutine; an error refuses the
// connection. Close, when set, runs when the read loop ends and before any
// refusal, so a handler that answers from a goroutine of its own drains it
// there: its queued replies precede the refusal, and nothing else writes.
type Handler struct {
	Frame func(Frame) error
	Close func()
}

// Service is a listener being served; Serve starts one.
type Service struct {
	ln   net.Listener
	open func(*Conn) Handler

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  bool
	wg    sync.WaitGroup
}

// Serve is the serving half of Conn.Call: it accepts connections on ln and
// reads each through one Conn, handing every frame to the Handler open made
// for it. A handler error is the one refusal path: Serve runs the Close hook,
// sends one TError carrying the error's text and hangs up. A tag a handler
// does not take is refused that way too, so a malformed request and a
// misdirected one end alike.
func Serve(ln net.Listener, open func(*Conn) Handler) *Service {
	s := &Service{ln: ln, open: open, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.accept()
	return s
}

// Addr returns the listen address.
func (s *Service) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener, severs every live connection and returns once
// every handler, Close hooks included, has. A connection accepted while
// Close runs is hung up unserved.
func (s *Service) Close() error {
	err := s.ln.Close()
	s.mu.Lock()
	s.done = true
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Service) accept() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			_ = c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(c) //lint:allow deadlinecheck request reads idle by design until the peer sends or hangs up; leases and client-side deadlines bound liveness
	}
}

// serve is one connection's read loop.
func (s *Service) serve(c net.Conn) {
	defer s.wg.Done()
	pc := NewConn(c)
	h := s.open(pc)
	r := pc.Reader()
	var refusal error
	for refusal == nil {
		f, err := r.Next()
		if err != nil {
			break
		}
		refusal = h.Frame(f)
	}
	if h.Close != nil {
		h.Close()
	}
	if refusal != nil {
		_ = pc.SendError(refusal.Error())
	}
	_ = c.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}
