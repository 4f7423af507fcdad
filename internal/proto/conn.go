package proto

import (
	"errors"
	"fmt"
	"net"
	"time"
)

// Conn is one peer conversation: a connection together with the single
// Writer and the single Reader its frames pass through (a stream must only
// ever be read through one Reader, see Reader). Every dial, every
// request/reply deadline and every refusal of a reply nobody asked for in
// the prototype goes through this type, so there is one place to bound a
// wait and — later — one place to inject a dialer or a clock.
type Conn struct {
	net.Conn
	*Writer
	r *Reader
}

// NewConn wraps an established connection. Nagle is turned off: every frame
// here is a request someone is blocked on or the reply to one, so latency
// matters more than segment count.
func NewConn(c net.Conn) *Conn {
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return &Conn{Conn: c, Writer: NewWriter(c)}
}

// Reader returns the connection's Reader, made by the first call and so by
// the goroutine that reads. A loop that reads a stream another goroutine
// writes (the client's data connections) takes it once and keeps it: with
// the reader made by the dialer and reached through the Conn on every frame,
// fault-churn measured op_p50_us 4-13 % and cpu_us_per_op 6-11 % above the
// parent over five eight-run sessions; made and held by the reading loop,
// both are level with it. Only one goroutine may read a Conn.
func (c *Conn) Reader() *Reader {
	if c.r == nil {
		c.r = NewReader(c.Conn)
	}
	return c.r
}

// Next returns the next frame (see Reader.Next).
func (c *Conn) Next() (Frame, error) { return c.Reader().Next() }

// Dial connects to addr. A nil dial means plain TCP under timeout; a
// caller-supplied dialer (chaos injection, tests) bounds itself.
func Dial(dial func(network, addr string) (net.Conn, error), addr string, timeout time.Duration) (*Conn, error) {
	var c net.Conn
	var err error
	if dial != nil {
		c, err = dial("tcp", addr)
	} else {
		c, err = net.DialTimeout("tcp", addr, timeout)
	}
	if err != nil {
		return nil, err
	}
	return NewConn(c), nil
}

// ErrUnreachable is matched by an Ask whose dial failed, so a caller can
// tell a peer it never reached from one that refused or timed out.
var ErrUnreachable = errors.New("proto: peer unreachable")

// Ask is one exchange on a connection of its own: dial addr, Call, hang up.
// timeout bounds the dial and the exchange each.
func Ask(addr string, timeout time.Duration, send func(*Writer) error, want ...Type) (Frame, error) {
	c, err := Dial(nil, addr, timeout)
	if err != nil {
		return Frame{}, fmt.Errorf("%w: %s: %w", ErrUnreachable, addr, err)
	}
	defer c.Close()
	return c.Call(timeout, send, want...)
}

// Call is one request/reply exchange under a deadline: send writes the
// request frame, and the next frame is returned if its type is one of want.
// A TError the caller did not ask for becomes an error carrying the peer's
// text; any other tag is refused — the peer is not speaking the protocol
// the caller is, and guessing would act on a misdirected frame. The
// deadline is cleared on return, so the connection may idle until the next
// Call. The frame's payload is valid until then.
func (c *Conn) Call(timeout time.Duration, send func(*Writer) error, want ...Type) (Frame, error) {
	if err := c.SetDeadline(time.Now().Add(timeout)); err != nil {
		return Frame{}, err
	}
	defer c.SetDeadline(time.Time{})
	if err := send(c.Writer); err != nil {
		return Frame{}, err
	}
	f, err := c.Next()
	if err != nil {
		return Frame{}, err
	}
	for _, t := range want {
		if f.Type == t {
			return f, nil
		}
	}
	if f.Type == TError {
		return Frame{}, errors.New(DecodeError(f.Payload).Text)
	}
	return Frame{}, fmt.Errorf("proto: unexpected %v reply", f.Type)
}
