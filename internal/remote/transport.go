package remote

import (
	"fmt"
	"sync"
	"time"

	"github.com/gms-sim/gmsubpage/internal/proto"
)

// The data plane: one connection per page server, requests written by
// whoever has one to send, replies read by a goroutine per connection that
// hands them to the fault engine (applyBatch, failPending).

// transport is the set of live server connections. srvMu guards the map and
// is held across a dial — concurrent faults on a new server share one
// connection instead of racing to make two — but never across a write, and
// never together with Client.mu.
type transport struct {
	srvMu   sync.Mutex
	servers map[string]*srvConn
}

func newTransport() transport { return transport{servers: make(map[string]*srvConn)} }

// srvConn is a connection to one page server, with a background reader.
type srvConn struct {
	pc  *proto.Conn
	wmu sync.Mutex
}

// send writes one frame under a write deadline, so a stalled connection
// cannot wedge the fault path. wmu only serializes writers on this
// connection: accessors, retry goroutines and timer callbacks all send.
func (sc *srvConn) send(timeout time.Duration, frame func(*proto.Writer) error) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	_ = sc.pc.SetWriteDeadline(time.Now().Add(timeout))
	defer sc.pc.SetWriteDeadline(time.Time{})
	return frame(sc.pc.Writer) //lint:allow lockio the write is bounded by the deadline above; wmu only serializes writers on this conn
}

// server returns (dialing if needed) the connection to a page server.
func (c *Client) server(addr string) (*srvConn, error) {
	t := &c.tr
	t.srvMu.Lock()
	defer t.srvMu.Unlock()
	if sc, ok := t.servers[addr]; ok {
		return sc, nil
	}
	if c.isClosed() { // under srvMu: Close's sweep either finds the new conn or ran before this check
		return nil, errClientClosed
	}
	pc, err := proto.Dial(c.cfg.Dial, addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("remote: dial server %s: %w", addr, err)
	}
	sc := &srvConn{pc: pc}
	t.servers[addr] = sc
	c.wg.Add(1)
	// The data stream deliberately reads without a deadline: batches
	// arrive whenever the server sends them. Liveness is enforced per
	// attempt (RequestTimeout timers + dropServer), not per read.
	go c.readLoop(addr, pc) //lint:allow deadlinecheck data-stream reads are unbounded by design; per-attempt RequestTimeout and dropServer bound liveness
	return sc, nil
}

// connected returns the live connection to addr, or nil.
func (t *transport) connected(addr string) *srvConn {
	t.srvMu.Lock()
	defer t.srvMu.Unlock()
	return t.servers[addr]
}

// close severs every server connection; their read loops exit. Called once
// closeCh is closed, so no later dial adds one.
func (t *transport) close() {
	t.srvMu.Lock()
	defer t.srvMu.Unlock()
	for _, sc := range t.servers {
		_ = sc.pc.Close()
	}
}

// sendGet writes one page request to addr. id and want are the request ID
// and missing-block bitmap.
func (c *Client) sendGet(addr string, page uint64, off int, id uint64, want uint32) error {
	sc, err := c.server(addr)
	if err != nil {
		return err
	}
	return sc.send(c.cfg.RequestTimeout, func(w *proto.Writer) error {
		return w.SendGetPageV2(proto.GetPageV2{
			ReqID:       id,
			Page:        page,
			FaultOff:    uint32(off),
			SubpageSize: uint32(c.cfg.SubpageSize),
			Want:        want,
			Policy:      c.cfg.Policy,
		})
	})
}

// sendCancels writes the queued TCancel frames. A server we no longer
// hold a connection to needs no cancel — its stream died with the
// connection.
func (c *Client) sendCancels(cancels []source) {
	for _, src := range cancels {
		if sc := c.tr.connected(src.addr); sc != nil {
			_ = sc.send(c.cfg.RequestTimeout, func(w *proto.Writer) error {
				return w.SendCancel(proto.Cancel{ReqID: src.id})
			})
		}
	}
}

// putPage writes a dirty page back (fire and forget), trying each replica
// until one send succeeds; it reports false when none did.
func (c *Client) putPage(addrs []string, page uint64, data []byte) bool {
	for _, addr := range addrs {
		sc, err := c.server(addr)
		if err != nil {
			continue
		}
		err = sc.send(c.cfg.RequestTimeout, func(w *proto.Writer) error {
			return w.SendPutPage(proto.PutPage{Page: page, Data: data})
		})
		if err == nil {
			return true
		}
	}
	return false
}

// readLoop applies incoming subpage batches to the cache: the prototype's
// interrupt handler. A connection failure is scoped to the pages this
// server was transferring — other servers' pages stay usable and a later
// fault redials.
func (c *Client) readLoop(addr string, pc *proto.Conn) {
	defer c.wg.Done()
	cause := fmt.Errorf("remote: server %s connection lost", addr)
	r := pc.Reader() // made here, held here: see proto.Conn.Reader
	for {
		f, err := r.Next()
		if err != nil {
			c.dropServer(addr, cause)
			return
		}
		switch f.Type {
		case proto.TSubpageBatch:
			b, err := proto.DecodeSubpageBatch(f.Payload)
			if err != nil {
				// A batch that contradicts itself is a protocol violation
				// like any below: the attempt it belonged to must fail over
				// now, not sit out its deadline on a suspect stream.
				c.dropServer(addr, fmt.Errorf("remote: server %s: %w", addr, err))
				return
			}
			c.applyBatch(addr, b)
		case proto.TError:
			// An application-level failure: the request cannot be
			// served but the connection stays usable. Fail the
			// pages in flight on this server now, and remember
			// the cause in case the server hangs up next.
			cause = fmt.Errorf("remote: server %s: %s",
				addr, proto.DecodeError(f.Payload).Text)
			c.failPending(addr, cause)
		case proto.TPutPage, proto.TAck, proto.TLookup, proto.TLookupReply,
			proto.TRegister, proto.THeartbeat, proto.TGetShardMap,
			proto.TShardMap, proto.TWrongShard, proto.TGetPageV2,
			proto.TCancel, proto.TDrain, proto.TDrainReply:
			// A data connection only ever carries subpage batches and
			// errors. Any other tag means the peer is not speaking the
			// page-server protocol (or the stream is desynchronized);
			// trusting further frames would corrupt cached pages, so
			// treat it exactly like a broken connection.
			c.dropServer(addr, fmt.Errorf("remote: server %s sent unexpected %v on the data stream", addr, f.Type))
			return
		}
	}
}

// dropServer severs one server: attempts sourcing from it fail with cause,
// the connection is forgotten so the next fault redials, and every other
// server's pages stay untouched.
func (c *Client) dropServer(addr string, cause error) {
	t := &c.tr
	t.srvMu.Lock()
	if sc, ok := t.servers[addr]; ok {
		_ = sc.pc.Close()
		delete(t.servers, addr)
	}
	t.srvMu.Unlock()
	c.failPending(addr, cause)
}
