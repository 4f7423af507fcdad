// Package chaos injects network faults into the remote-memory prototype.
//
// A Network wraps net.Conn, net.Listener and dial functions with
// configurable misbehaviour: added latency and jitter, bandwidth caps,
// probabilistic loss (a write is blackholed and the connection dies, the
// stream-level shadow of an unrecovered packet loss), probabilistic
// connection resets, one-way write stalls, and full partitions. The
// directory, page servers and clients can all be started behind the same
// Network, so failure-path behaviour — deadlines, retries, failover,
// hedging — is testable without leaving the process.
//
// The paper's prototype assumes a lossless, always-up AN2 interconnect;
// this package exists to take that assumption away on demand.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/gms-sim/gmsubpage/internal/obs"
)

// Errors surfaced by injected faults.
var (
	// ErrPartitioned reports an operation attempted across an active
	// partition.
	ErrPartitioned = errors.New("chaos: network partitioned")
	// ErrReset reports an injected connection reset.
	ErrReset = errors.New("chaos: connection reset")
	// ErrClosed reports use of a connection the injector has killed.
	ErrClosed = errors.New("chaos: connection closed")
)

// Config shapes the faults a Network injects. The zero value injects
// nothing: wrapped connections behave like the real ones underneath.
type Config struct {
	// Latency is added to every write (the serialization+propagation
	// side of the emulated link).
	Latency time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter) to
	// every write.
	Jitter time.Duration
	// BandwidthBps caps throughput: each write of n bytes is delayed by
	// n/BandwidthBps seconds. Zero means uncapped.
	BandwidthBps int64
	// DropRate is the per-write probability that the data is blackholed
	// and the connection then dies — the stream-level consequence of a
	// lost packet with nobody retransmitting. The write itself reports
	// success, as a kernel handing a frame to a dying NIC would.
	DropRate float64
	// ResetRate is the per-operation probability of an immediate
	// connection reset.
	ResetRate float64
	// Seed makes the fault sequence reproducible; 0 seeds from 1.
	Seed int64
}

// Network is a shared fault domain: every connection dialed, accepted or
// wrapped through it observes the same injected conditions, and the
// control methods (Partition, StallWrites, KillActive) act on all of them
// at once.
type Network struct {
	mu          sync.Mutex
	cfg         Config
	rng         *rand.Rand
	partitioned bool
	stalled     bool
	conns       map[*Conn]struct{}

	// Counters for assertions and reports, and what SetMetrics exposes.
	Drops  int64 `metric:"gms_chaos_drops_total" help:"writes blackholed by the injector"`
	Resets int64 `metric:"gms_chaos_resets_total" help:"connection resets injected"`
}

// New returns a Network injecting cfg.
func New(cfg Config) *Network {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Network{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(seed)),
		conns: make(map[*Conn]struct{}),
	}
}

// SetMetrics exposes the injector's Drops and Resets on r as the
// gms_chaos_* counters, read at scrape time (nil disables them).
func (n *Network) SetMetrics(r *obs.Registry) {
	r.NewSource().Fields(&n.mu, n)
}

// SetConfig replaces the fault configuration; existing connections pick it
// up on their next operation.
func (n *Network) SetConfig(cfg Config) {
	n.mu.Lock()
	n.cfg = cfg
	n.mu.Unlock()
}

// Partition opens (true) or heals (false) a full partition: new dials fail
// and operations on existing connections fail after killing them.
func (n *Network) Partition(on bool) {
	n.mu.Lock()
	n.partitioned = on
	n.mu.Unlock()
}

// StallWrites starts (true) or releases (false) a one-way stall: writes
// block while the stall holds, but reads keep flowing — the failure mode
// of a half-broken link, distinct from a clean disconnect.
func (n *Network) StallWrites(on bool) {
	n.mu.Lock()
	n.stalled = on
	n.mu.Unlock()
}

// KillActive closes every connection currently tracked by the Network (a
// crash of the emulated switch), returning how many it killed. New
// connections are unaffected unless a partition is also up.
func (n *Network) KillActive() int {
	n.mu.Lock()
	victims := make([]*Conn, 0, len(n.conns))
	for c := range n.conns {
		victims = append(victims, c)
	}
	n.mu.Unlock()
	for _, c := range victims {
		_ = c.Close()
	}
	return len(victims)
}

// Dial connects through the Network, observing any active partition. Its
// signature matches the client's dial hook.
func (n *Network) Dial(network, addr string) (net.Conn, error) {
	n.mu.Lock()
	parted := n.partitioned
	n.mu.Unlock()
	if parted {
		return nil, fmt.Errorf("chaos: dial %s: %w", addr, ErrPartitioned)
	}
	d := net.Dialer{Timeout: 5 * time.Second}
	c, err := d.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	return n.WrapConn(c), nil
}

// WrapConn places an existing connection under the Network's control.
func (n *Network) WrapConn(c net.Conn) net.Conn {
	cc := &Conn{inner: c, netw: n}
	n.mu.Lock()
	n.conns[cc] = struct{}{}
	n.mu.Unlock()
	return cc
}

// WrapListener returns a listener whose accepted connections are under the
// Network's control, so a server started on it serves through the
// injector.
func (n *Network) WrapListener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, netw: n}
}

type listener struct {
	net.Listener
	netw *Network
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.netw.WrapConn(c), nil
}

// Conn is one connection under fault injection. All misbehaviour happens
// on the write side (where the emulated link serializes data); reads pass
// through, seeing faults only as the peer's writes fail to arrive.
type Conn struct {
	inner net.Conn
	netw  *Network

	mu     sync.Mutex
	closed bool
}

// writePlan is the set of decisions the Network makes for one write.
type writePlan struct {
	delay time.Duration
	drop  bool
	reset bool
}

// plan rolls the dice for an n-byte write under the current config.
// Returns an error when the network is partitioned.
func (nw *Network) plan(n int) (writePlan, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.partitioned {
		return writePlan{}, ErrPartitioned
	}
	p := writePlan{delay: nw.cfg.Latency}
	if nw.cfg.Jitter > 0 {
		p.delay += time.Duration(nw.rng.Int63n(int64(nw.cfg.Jitter)))
	}
	if nw.cfg.BandwidthBps > 0 {
		p.delay += time.Duration(float64(n) / float64(nw.cfg.BandwidthBps) * float64(time.Second))
	}
	if nw.cfg.DropRate > 0 && nw.rng.Float64() < nw.cfg.DropRate {
		p.drop = true
		nw.Drops++
	}
	if nw.cfg.ResetRate > 0 && nw.rng.Float64() < nw.cfg.ResetRate {
		p.reset = true
		nw.Resets++
	}
	return p, nil
}

// waitStall blocks while a one-way stall holds, polling so a concurrent
// Close or partition can break the wait.
func (c *Conn) waitStall() error {
	for {
		c.netw.mu.Lock()
		stalled, parted := c.netw.stalled, c.netw.partitioned
		c.netw.mu.Unlock()
		if parted {
			return ErrPartitioned
		}
		if !stalled {
			return nil
		}
		if c.isClosed() {
			return ErrClosed
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (c *Conn) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Read passes through to the underlying connection; a partition kills the
// connection so blocked reads terminate rather than waiting for data that
// can never arrive.
func (c *Conn) Read(b []byte) (int, error) {
	c.netw.mu.Lock()
	parted := c.netw.partitioned
	c.netw.mu.Unlock()
	if parted {
		_ = c.Close()
		return 0, ErrPartitioned
	}
	return c.inner.Read(b)
}

// Write applies the Network's faults, then forwards to the underlying
// connection.
func (c *Conn) Write(b []byte) (int, error) {
	if c.isClosed() {
		return 0, ErrClosed
	}
	if err := c.waitStall(); err != nil {
		_ = c.Close()
		return 0, err
	}
	p, err := c.netw.plan(len(b))
	if err != nil {
		_ = c.Close()
		return 0, err
	}
	if p.reset {
		_ = c.Close()
		return 0, ErrReset
	}
	if p.delay > 0 {
		time.Sleep(p.delay)
	}
	if p.drop {
		// The bytes vanish and the link dies: the caller sees success
		// now and errors on the next use, the peer sees EOF.
		_ = c.Close()
		return len(b), nil
	}
	return c.inner.Write(b)
}

// Close closes the underlying connection and unregisters from the
// Network. Safe to call repeatedly and concurrently.
func (c *Conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.netw.mu.Lock()
	delete(c.netw.conns, c)
	c.netw.mu.Unlock()
	return c.inner.Close()
}

// The remaining net.Conn methods pass through.

func (c *Conn) LocalAddr() net.Addr                { return c.inner.LocalAddr() }
func (c *Conn) RemoteAddr() net.Addr               { return c.inner.RemoteAddr() }
func (c *Conn) SetDeadline(t time.Time) error      { return c.inner.SetDeadline(t) }
func (c *Conn) SetReadDeadline(t time.Time) error  { return c.inner.SetReadDeadline(t) }
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.inner.SetWriteDeadline(t) }
