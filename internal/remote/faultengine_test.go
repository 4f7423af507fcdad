package remote

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gms-sim/gmsubpage/internal/chaos"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// This file pins the event-driven fault engine (DESIGN.md §7): the accessor
// sends its own first attempt, an attempt ends as an event, and a goroutine
// exists only between a failure and the next send. Each test below is a way
// that arrangement can go wrong.

// within fails the test if f has not returned after d: these tests guard
// against hangs, which must fail here rather than at the package timeout.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<16)
		t.Fatalf("%s still running after %v\n%s", what, d, buf[:runtime.Stack(buf, true)])
	}
}

// inflightPage waits until page has an attempt registered and returns its
// cache entry.
func inflightPage(t *testing.T, c *Client, page uint64) *cpage {
	t.Helper()
	var p *cpage
	waitFor(t, 5*time.Second, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		p = c.pages.m[page]
		return p != nil && p.inflight
	}, "the attempt to be in flight")
	return p
}

// stalledServer serves npages pages through a chaos network whose writes
// can be stalled: requests arrive, replies do not.
func stalledServer(t *testing.T, dir *Directory, npages int) (*Server, *chaos.Network) {
	t.Helper()
	nw := chaos.New(chaos.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ListenServerOn(nw.WrapListener(ln))
	t.Cleanup(func() { srv.Close() })
	t.Cleanup(func() { nw.StallWrites(false) }) // let server writes unwind first
	for p := 0; p < npages; p++ {
		srv.Store(uint64(p), pagePattern(uint64(p)))
	}
	if err := srv.RegisterWith(dir.Addr()); err != nil {
		t.Fatal(err)
	}
	return srv, nw
}

// The accessor drops c.mu around its send, so on a loopback the reply
// routinely completes the attempt, and broadcasts, before the accessor is
// back: it must look at the page again instead of waiting for a wake-up that
// already happened. Without the re-check this loop hangs within a few
// thousand faults.
func TestReplyBeforeWaitNotLost(t *testing.T) {
	const pages, faults = 8, 20000
	dir, _ := testCluster(t, pages)
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyPipelined, CachePages: 2})
	within(t, 2*time.Minute, "the fault loop (a lost wake-up?)", func() {
		var buf [64]byte
		for i := 0; i < faults; i++ {
			// Stride 3 over 8 pages through a 2-page cache: every read faults.
			page := uint64(i * 3 % pages)
			if err := c.Read(buf[:], page*units.PageSize+uint64(i%100)*64); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if st := c.Stats(); st.Faults < faults || st.Retries != 0 {
		t.Fatalf("Faults %d Retries %d, want %d clean faults", st.Faults, st.Retries, faults)
	}
}

// A timer's callback runs on its own goroutine, so Stop can lose to a fire
// already under way, and the callback then finds the slot's next attempt in
// flight. It must not time that one out, or hedge it: its time has not
// come.
func TestStaleTimerFireIgnored(t *testing.T) {
	dir, err := ListenDirectory("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	_, nw := stalledServer(t, dir, 1)
	stalledServer(t, dir, 1) // a replica, so the attempt has a hedge armed as well
	cfg := ClientConfig{Policy: proto.PolicyEager, Hedge: time.Hour}
	cfg.RequestTimeout = time.Minute
	c := testClient(t, dir, cfg)
	nw.StallWrites(true)
	readDone := make(chan error, 1)
	go func() {
		var b [8]byte
		readDone <- c.Read(b[:], 0)
	}()
	p := inflightPage(t, c, 0)
	c.mu.Lock()
	hedgeTo := p.hedgeTo
	c.mu.Unlock()
	if hedgeTo == "" {
		t.Fatal("the attempt has no replica to hedge to: the test would not exercise the hedge timer")
	}

	// The fires a previous attempt's Stop lost to, arriving now.
	c.attemptTimedOut(p)
	c.hedgeDue(p)

	c.mu.Lock()
	inflight, gen := p.inflight, p.gen
	c.mu.Unlock()
	if !inflight || gen != 1 {
		t.Fatalf("after a stale fire: inflight %v, generation %d; the attempt must still be the first, in flight", inflight, gen)
	}
	nw.StallWrites(false)
	if err := <-readDone; err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Retries != 0 || st.Hedges != 0 || st.Cancels != 0 {
		t.Fatalf("Retries %d Hedges %d Cancels %d after stale fires, want none", st.Retries, st.Hedges, st.Cancels)
	}
}

// gatedDial is a Dial hook whose dials to one address can be failed or held.
type gatedDial struct {
	addr  string
	fail  atomic.Int32  // fail this many dials to addr
	hold  chan struct{} // non-nil: dials to addr wait for it to close
	dials atomic.Int32  // dials to addr so far
}

func (g *gatedDial) dial(network, addr string) (net.Conn, error) {
	if addr == g.addr {
		g.dials.Add(1)
		if g.hold != nil {
			<-g.hold
		}
		if g.fail.Add(-1) >= 0 {
			return nil, errors.New("gatedDial: refused")
		}
	}
	return net.DialTimeout(network, addr, time.Second)
}

// failPending can end an attempt that is registered but whose send has not
// returned — before any timer was armed. The sender, back from a send that
// failed as well, must see that the attempt is no longer its own and leave
// the fault to the retry already under way: one failure, one retry.
func TestFailPendingBeforeTimerArmed(t *testing.T) {
	dir, srv := testCluster(t, 1)
	g := &gatedDial{addr: srv.Addr(), hold: make(chan struct{})}
	g.fail.Store(1)
	cfg := fastRetry(ClientConfig{Policy: proto.PolicyEager, Dial: g.dial})
	cfg.RequestTimeout = 5 * time.Second
	c := testClient(t, dir, cfg)
	readDone := make(chan error, 1)
	buf := make([]byte, units.PageSize)
	go func() { readDone <- c.Read(buf, 0) }()
	p := inflightPage(t, c, 0)
	waitFor(t, 5*time.Second, func() bool { return g.dials.Load() == 1 }, "the first send to be stuck in its dial")

	// On a goroutine: failPending goes on to send a cancel, which needs the
	// connection table the held dial is holding.
	failed := make(chan struct{})
	go func() {
		defer close(failed)
		c.failPending(srv.Addr(), errors.New("test: connection lost before the send returned"))
	}()
	waitFor(t, 5*time.Second, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return !p.inflight
	}, "failPending to end the attempt")
	close(g.hold) // the first send fails now, for an attempt that is over
	within(t, 10*time.Second, "the read", func() {
		if err := <-readDone; err != nil {
			t.Error(err)
		}
		<-failed
	})
	if !bytes.Equal(buf, pagePattern(0)) {
		t.Fatal("page mismatch")
	}
	st := c.Stats()
	if st.Faults != 1 || st.Retries != 1 || st.FullLat.N() != 1 {
		t.Fatalf("Faults %d Retries %d completions %d, want one fault, one retry, one completion", st.Faults, st.Retries, st.FullLat.N())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.inflight || p.faulting || p.attempt != 1 || len(c.reqs) != 0 {
		t.Fatalf("settled page: inflight %v faulting %v, %d failed attempts, %d requests registered; want a clean page after one failure",
			p.inflight, p.faulting, p.attempt, len(c.reqs))
	}
}

// The accessor's own send fails (the primary refuses the dial): the fault
// moves to a retry goroutine, fails over to the replica and completes.
func TestFirstSendFailsThenFailover(t *testing.T) {
	dir, srvA, _ := replicatedCluster(t, 2)
	g := &gatedDial{addr: srvA.Addr()}
	g.fail.Store(1)
	c := testClient(t, dir, fastRetry(ClientConfig{Policy: proto.PolicyEager, Dial: g.dial}))
	buf := make([]byte, units.PageSize)
	if err := c.Read(buf, units.PageSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pagePattern(1)) {
		t.Fatal("page mismatch after failover")
	}
	st := c.Stats()
	if st.Faults != 1 || st.Retries != 1 || st.Failovers != 1 || st.Cancels != 1 {
		t.Fatalf("Faults %d Retries %d Failovers %d Cancels %d, want 1 each (the cancel withdraws the request whose send failed)",
			st.Faults, st.Retries, st.Failovers, st.Cancels)
	}
	// The failure forgot the placement; the retry's fresh answer is cached
	// again, and the next fault goes to the primary at its first attempt.
	if err := c.Read(buf, 0); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Faults != 2 || st.Retries != 1 || st.Failovers != 1 {
		t.Fatalf("second fault: Faults %d Retries %d Failovers %d, want 2, 1 and 1", st.Faults, st.Retries, st.Failovers)
	}
}

// The primary takes the request and never answers: the attempt's deadline
// fires, the suspect connection is dropped, and the retry completes on the
// replica.
func TestStalledServerTimesOutDropsAndRetries(t *testing.T) {
	dir, err := ListenDirectory("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	srvA, nw := stalledServer(t, dir, 1) // registers first: the primary
	srvB, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvB.Close() })
	srvB.Store(0, pagePattern(0))
	if err := srvB.RegisterWith(dir.Addr()); err != nil {
		t.Fatal(err)
	}
	nw.StallWrites(true)
	cfg := fastRetry(ClientConfig{Policy: proto.PolicyEager})
	cfg.RequestTimeout = 150 * time.Millisecond
	c := testClient(t, dir, cfg)
	buf := make([]byte, units.PageSize)
	start := time.Now()
	if err := c.Read(buf, 0); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < cfg.RequestTimeout || el > 3*time.Second {
		t.Fatalf("read took %v: want one %v timeout, then the replica", el, cfg.RequestTimeout)
	}
	if !bytes.Equal(buf, pagePattern(0)) {
		t.Fatal("page mismatch from the replica")
	}
	st := c.Stats()
	if st.Faults != 1 || st.Retries != 1 || st.Failovers != 1 || st.Cancels != 1 {
		t.Fatalf("Faults %d Retries %d Failovers %d Cancels %d, want 1 each", st.Faults, st.Retries, st.Failovers, st.Cancels)
	}
	c.tr.srvMu.Lock()
	_, kept := c.tr.servers[srvA.Addr()]
	c.tr.srvMu.Unlock()
	if kept {
		t.Fatal("the stalled server's connection survived the timeout")
	}
}

// Close with attempts in flight that no goroutine is parked on: every
// waiter gets errClientClosed, Close returns (its WaitGroup drains), and no
// timer is left armed to fire into the closed client.
func TestCloseWithEventDrivenAttemptsInFlight(t *testing.T) {
	const pages = 4
	dir, err := ListenDirectory("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	_, nw := stalledServer(t, dir, pages)
	_, nwB := stalledServer(t, dir, pages) // a replica, so every attempt has a hedge armed
	nwB.StallWrites(true)
	base := runtime.NumGoroutine()
	cfg := ClientConfig{Policy: proto.PolicyEager, Hedge: 150 * time.Millisecond}
	cfg.RequestTimeout = 300 * time.Millisecond // both timers would fire soon after Close if left armed
	cfg.Directory = dir.Addr()
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nw.StallWrites(true)
	var wg sync.WaitGroup
	errs := make([]error, 2*pages)
	for i := range errs {
		wg.Add(1)
		go func(i int) { // two accessors per page: one took the fault, one waits on it
			defer wg.Done()
			var b [8]byte
			errs[i] = c.Read(b[:], uint64(i%pages)*units.PageSize)
		}(i)
	}
	for page := uint64(0); page < pages; page++ {
		inflightPage(t, c, page)
	}
	within(t, 5*time.Second, "Close", func() {
		if err := c.Close(); err != nil {
			t.Error(err)
		}
	})
	within(t, 5*time.Second, "the accessors", wg.Wait)
	for i, err := range errs {
		if !errors.Is(err, errClientClosed) {
			t.Fatalf("accessor %d: err = %v, want errClientClosed", i, err)
		}
	}
	c.mu.Lock()
	for id, p := range c.pages.m {
		if p.inflight || p.nsrc != 0 {
			t.Errorf("page %d after Close: inflight %v, %d sources", id, p.inflight, p.nsrc)
		}
	}
	c.mu.Unlock()
	time.Sleep(2 * cfg.RequestTimeout) // past every deadline the attempts had
	if st := c.Stats(); st.Faults != pages || st.Hedges != 0 || st.Retries != 0 || st.Failovers != 0 {
		t.Fatalf("Faults %d Hedges %d Retries %d Failovers %d: a timer fired into the closed client (want %d faults and nothing else)",
			st.Faults, st.Hedges, st.Retries, st.Failovers, pages)
	}
	nw.StallWrites(false)
	nwB.StallWrites(false)
	waitForGoroutines(t, base+2)
}
