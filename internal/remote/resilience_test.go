package remote

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gms-sim/gmsubpage/internal/chaos"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// fastRetry is a retry budget tuned for tests: real failures resolve in
// tens of milliseconds instead of seconds.
func fastRetry(cfg ClientConfig) ClientConfig {
	cfg.RequestTimeout = 500 * time.Millisecond
	cfg.MaxRetries = 2
	cfg.RetryBackoff = 5 * time.Millisecond
	return cfg
}

// replicatedCluster stands up a directory and two servers both holding the
// same npages pages. srvA registers first and is the primary for every page.
func replicatedCluster(t *testing.T, npages int) (*Directory, *Server, *Server) {
	t.Helper()
	dir, err := ListenDirectory("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	srvA, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvA.Close() })
	srvB, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvB.Close() })
	for p := 0; p < npages; p++ {
		srvA.Store(uint64(p), pagePattern(uint64(p)))
		srvB.Store(uint64(p), pagePattern(uint64(p)))
	}
	if err := srvA.RegisterWith(dir.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := srvB.RegisterWith(dir.Addr()); err != nil {
		t.Fatal(err)
	}
	return dir, srvA, srvB
}

// waitForGoroutines fails the test if the goroutine count does not settle
// back to want (with slack) — the leak check for the fault path.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked: %d > %d\n%s", n, want, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFailoverToReplicaMidWorkload(t *testing.T) {
	const pages = 8
	dir, srvA, _ := replicatedCluster(t, pages)
	if got := dir.Replicas(0); len(got) != 2 {
		t.Fatalf("Replicas(0) = %v, want 2 entries", got)
	}

	base := runtime.NumGoroutine()
	c := testClient(t, dir, fastRetry(ClientConfig{Policy: proto.PolicyEager, CachePages: pages}))
	buf := make([]byte, 256)
	for p := 0; p < pages; p++ {
		if p == 3 {
			// Primary dies mid-workload; the uncached pages that
			// follow must come from the replica.
			srvA.Close()
		}
		if err := c.Read(buf, uint64(p)*units.PageSize); err != nil {
			t.Fatalf("page %d after primary death: %v", p, err)
		}
		if !bytes.Equal(buf, pagePattern(uint64(p))[:256]) {
			t.Fatalf("page %d data mismatch after failover", p)
		}
	}
	st := c.Stats()
	if st.Failovers == 0 {
		t.Fatalf("stats = %+v, expected failovers to the replica", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitForGoroutines(t, base+2)
}

func TestUnregisteredPageFailsFast(t *testing.T) {
	dir, _ := testCluster(t, 1)
	c := testClient(t, dir, fastRetry(ClientConfig{Policy: proto.PolicyEager}))
	var b [8]byte
	start := time.Now()
	err := c.Read(b[:], 100*units.PageSize)
	if !errors.Is(err, ErrPageUnavailable) {
		t.Fatalf("err = %v, want ErrPageUnavailable", err)
	}
	var pe *PageError
	if !errors.As(err, &pe) || pe.Page != 100 {
		t.Fatalf("err = %v, want *PageError for page 100", err)
	}
	// An authoritative directory miss must not burn the retry budget.
	if el := time.Since(start); el > 200*time.Millisecond {
		t.Fatalf("directory miss took %v, should fail fast", el)
	}
}

func TestRetriesExhaustedReturnTypedError(t *testing.T) {
	dir, srv := testCluster(t, 1)
	srv.Close() // registered but gone, and no replica exists
	c := testClient(t, dir, fastRetry(ClientConfig{Policy: proto.PolicyEager}))
	var b [8]byte
	err := c.Read(b[:], 0)
	if !errors.Is(err, ErrPageUnavailable) {
		t.Fatalf("err = %v, want ErrPageUnavailable", err)
	}
	var pe *PageError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *PageError", err)
	}
	if pe.Attempts != 3 { // MaxRetries(2) + 1
		t.Fatalf("Attempts = %d, want 3", pe.Attempts)
	}
	if st := c.Stats(); st.Retries == 0 {
		t.Fatalf("stats = %+v, expected retries", st)
	}
}

func TestStalledStreamHitsDeadlineNotHang(t *testing.T) {
	// The server accepts the request but its replies stall on the wire:
	// the per-attempt deadline must fire and the access must fail with a
	// typed error instead of wedging.
	dir, err := ListenDirectory("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	nw := chaos.New(chaos.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ListenServerOn(nw.WrapListener(ln))
	t.Cleanup(func() { srv.Close() })
	t.Cleanup(func() { nw.StallWrites(false) }) // let server writes unwind first
	srv.Store(0, pagePattern(0))
	if err := srv.RegisterWith(dir.Addr()); err != nil {
		t.Fatal(err)
	}
	nw.StallWrites(true)

	cfg := fastRetry(ClientConfig{Policy: proto.PolicyEager})
	cfg.RequestTimeout = 200 * time.Millisecond
	cfg.MaxRetries = 1
	c := testClient(t, dir, cfg)
	var b [8]byte
	start := time.Now()
	err = c.Read(b[:], 0)
	if !errors.Is(err, ErrPageUnavailable) {
		t.Fatalf("err = %v, want ErrPageUnavailable", err)
	}
	if el := time.Since(start); el > 3*time.Second {
		t.Fatalf("stalled stream took %v to fail, deadline did not fire", el)
	}
}

func TestHedgedFetchMasksSlowPrimary(t *testing.T) {
	// The primary's replies stall; a hedge to the replica must complete
	// the read well inside the request timeout.
	dir, err := ListenDirectory("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	nw := chaos.New(chaos.Config{})
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvA := ListenServerOn(nw.WrapListener(lnA))
	t.Cleanup(func() { srvA.Close() })
	t.Cleanup(func() { nw.StallWrites(false) })
	srvB, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvB.Close() })
	srvA.Store(0, pagePattern(0))
	srvB.Store(0, pagePattern(0))
	if err := srvA.RegisterWith(dir.Addr()); err != nil { // primary
		t.Fatal(err)
	}
	if err := srvB.RegisterWith(dir.Addr()); err != nil { // replica
		t.Fatal(err)
	}
	nw.StallWrites(true)

	cfg := ClientConfig{Policy: proto.PolicyEager, Hedge: 30 * time.Millisecond}
	cfg.RequestTimeout = 5 * time.Second // the hedge, not the deadline, must save us
	c := testClient(t, dir, cfg)
	buf := make([]byte, 256)
	start := time.Now()
	if err := c.Read(buf, 0); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("hedged read took %v, replica should have answered fast", el)
	}
	if !bytes.Equal(buf, pagePattern(0)[:256]) {
		t.Fatal("hedged read data mismatch")
	}
	if st := c.Stats(); st.Hedges == 0 {
		t.Fatalf("stats = %+v, expected a hedge", st)
	}
}

func TestDuplicateRegistrationBecomesReplica(t *testing.T) {
	dir, srvA, srvB := replicatedCluster(t, 1)
	got := dir.Replicas(0)
	if len(got) != 2 || got[0] != srvA.Addr() || got[1] != srvB.Addr() {
		t.Fatalf("Replicas(0) = %v, want [%s %s]", got, srvA.Addr(), srvB.Addr())
	}
	// Re-registration by the same server is idempotent; the primary
	// keeps its role.
	if err := srvB.RegisterWith(dir.Addr()); err != nil {
		t.Fatal(err)
	}
	if got := dir.Replicas(0); len(got) != 2 {
		t.Fatalf("re-registration grew the replica list: %v", got)
	}
	if addr, ok := dir.Lookup(0); !ok || addr != srvA.Addr() {
		t.Fatalf("Lookup(0) = %q, want primary %s", addr, srvA.Addr())
	}
	if got := dir.Replicas(99); len(got) != 0 {
		t.Fatalf("Replicas(99) = %v, want empty", got)
	}
}

func TestDirectoryReconnect(t *testing.T) {
	dir, srv := testCluster(t, 2)
	c := testClient(t, dir, fastRetry(ClientConfig{Policy: proto.PolicyEager}))
	var b [8]byte
	if err := c.Read(b[:], 0); err != nil {
		t.Fatal(err)
	}

	// The directory restarts on the same address; the client's cached
	// connection is dead and the next lookup must redial.
	addr := dir.Addr()
	dir.Close()
	dir2, err := ListenDirectory(addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	defer dir2.Close()
	if err := srv.RegisterWith(dir2.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := c.Read(b[:], units.PageSize); err != nil {
		t.Fatalf("lookup after directory restart: %v", err)
	}
}

func TestCloseUnblocksPendingFault(t *testing.T) {
	// A fault stuck on a stalled server must not keep Close (or the
	// reader) waiting: shutdown aborts in-flight attempts.
	dir, err := ListenDirectory("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	nw := chaos.New(chaos.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ListenServerOn(nw.WrapListener(ln))
	t.Cleanup(func() { srv.Close() })
	t.Cleanup(func() { nw.StallWrites(false) })
	srv.Store(0, pagePattern(0))
	if err := srv.RegisterWith(dir.Addr()); err != nil {
		t.Fatal(err)
	}
	nw.StallWrites(true)

	cfg := ClientConfig{Policy: proto.PolicyEager}
	cfg.RequestTimeout = 30 * time.Second // Close, not the deadline, must unblock
	cfg.Directory = dir.Addr()
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	readDone := make(chan error, 1)
	go func() {
		var b [8]byte
		readDone <- c.Read(b[:], 0)
	}()
	time.Sleep(50 * time.Millisecond) // let the fault get in flight
	closeDone := make(chan error, 1)
	go func() { closeDone <- c.Close() }()
	for _, ch := range []chan error{readDone, closeDone} {
		select {
		case err := <-ch:
			if ch == readDone && err == nil {
				t.Fatal("read during shutdown should fail")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("shutdown left the client wedged")
		}
	}
}

// refusingDirectory serves the (empty) shard map and refuses every lookup
// with a TError, counting them: a directory that is up but cannot answer.
func refusingDirectory(t *testing.T) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	lookups := new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				r, w := proto.NewReader(conn), proto.NewWriter(conn)
				for {
					f, err := r.Next()
					if err != nil {
						return
					}
					if f.Type == proto.TGetShardMap {
						err = w.SendShardMap(proto.ShardMap{})
					} else {
						lookups.Add(1)
						err = w.SendError("directory: out of order")
					}
					if err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), lookups
}

// TestDirectoryOutageSpendsOneRetryBudget: a fault whose lookups all fail
// gives up after MaxRetries+1 of them. (locate used to run a retry loop of
// its own inside every attempt of the fault engine's: 16 lookups and 15
// retries for MaxRetries 3, under an error that said "after 4 attempt(s)".)
func TestDirectoryOutageSpendsOneRetryBudget(t *testing.T) {
	addr, lookups := refusingDirectory(t)
	c, err := Dial(ClientConfig{Directory: addr, MaxRetries: 3, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	var b [8]byte
	err = c.Read(b[:], 0)
	var pe *PageError
	if !errors.As(err, &pe) || pe.Attempts != 4 {
		t.Fatalf("err = %v, want a *PageError after 4 attempts", err)
	}
	if n := lookups.Load(); n > 4 {
		t.Fatalf("%d lookups on the wire for MaxRetries 3, want at most 4", n)
	}
	if st := c.Stats(); st.Retries != 3 {
		t.Fatalf("Retries = %d, want 3", st.Retries)
	}
}
