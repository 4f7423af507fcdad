package remote

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// This file pins the batched fault wire: the want bitmap, cancellation
// (including the eager hedge-loser cancel), and the fault path's
// steady-state allocation budgets.

func serverCancels(s *Server) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Cancels
}

func serverGets(s *Server) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Gets
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// registerRaw takes out a directory registration on behalf of a fake
// server, the way a real one would on the wire.
func registerRaw(t *testing.T, dirAddr, srvAddr string, pages []uint64) {
	t.Helper()
	conn, err := net.Dial("tcp", dirAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	w := proto.NewWriter(conn)
	r := proto.NewReader(conn)
	if err := w.SendRegister(proto.Register{Addr: srvAddr, Epoch: 1, Pages: pages}); err != nil {
		t.Fatal(err)
	}
	f, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != proto.TAck {
		t.Fatalf("register answered %v, want TAck", f.Type)
	}
}

// dialRaw opens a raw framed connection to a server.
func dialRaw(t *testing.T, addr string) (net.Conn, *proto.Writer, *proto.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, proto.NewWriter(conn), proto.NewReader(conn)
}

// readBatches reads TSubpageBatch frames for reqID until FlagLast or a
// read timeout, returning the batches seen and whether FlagLast arrived.
func readBatches(t *testing.T, conn net.Conn, r *proto.Reader, reqID uint64, perRead time.Duration) (batches []proto.SubpageBatch, last bool) {
	t.Helper()
	for {
		_ = conn.SetReadDeadline(time.Now().Add(perRead))
		f, err := r.Next()
		if err != nil {
			return batches, false // timeout or close: the stream went quiet
		}
		if f.Type == proto.TError {
			t.Fatalf("server error: %s", proto.DecodeError(f.Payload).Text)
		}
		if f.Type != proto.TSubpageBatch {
			t.Fatalf("unexpected %v on the data stream", f.Type)
		}
		b, err := proto.DecodeSubpageBatch(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if b.ReqID != reqID {
			continue
		}
		// Copy: the reader reuses its payload buffer across frames.
		raw := make([]byte, len(f.Payload))
		copy(raw, f.Payload)
		b, _ = proto.DecodeSubpageBatch(raw)
		batches = append(batches, b)
		if b.Flags&proto.FlagLast != 0 {
			return batches, true
		}
	}
}

// The want bitmap trims a v2 reply to the blocks the client misses; the
// faulted block is always included.
func TestServerWantBitmapTrimsReply(t *testing.T) {
	_, srv := testCluster(t, 1)
	conn, w, r := dialRaw(t, srv.Addr())

	// Want exactly the faulted 1024-byte subpage (MinSubpage blocks 4-7):
	// the whole reply is one FlagFirst|FlagLast batch of 1024 bytes.
	if err := w.SendGetPageV2(proto.GetPageV2{
		ReqID: 1, Page: 0, FaultOff: 1024, SubpageSize: 1024,
		Want: 0xF0, Policy: proto.PolicyEager,
	}); err != nil {
		t.Fatal(err)
	}
	batches, last := readBatches(t, conn, r, 1, 2*time.Second)
	if !last {
		t.Fatal("stream never completed")
	}
	if len(batches) != 1 {
		t.Fatalf("got %d batches, want 1", len(batches))
	}
	b := batches[0]
	if b.Flags&proto.FlagFirst == 0 {
		t.Fatal("first batch lacks FlagFirst")
	}
	total := 0
	want := pagePattern(0)
	for i := 0; i < b.Runs(); i++ {
		off, data := b.Run(i)
		if !bytes.Equal(data, want[off:off+len(data)]) {
			t.Fatalf("run at %d carries wrong bytes", off)
		}
		total += len(data)
	}
	if total != 1024 {
		t.Fatalf("reply carried %d bytes, want exactly the 1024 asked for", total)
	}

	// Want two distant blocks (0 and 31), faulting block 0: the faulted
	// message ships block 0 under FlagFirst, the remainder only block 31.
	if err := w.SendGetPageV2(proto.GetPageV2{
		ReqID: 2, Page: 0, FaultOff: 0, SubpageSize: 1024,
		Want: 1 | 1<<31, Policy: proto.PolicyEager,
	}); err != nil {
		t.Fatal(err)
	}
	batches, last = readBatches(t, conn, r, 2, 2*time.Second)
	if !last {
		t.Fatal("stream never completed")
	}
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2", len(batches))
	}
	off0, data0 := batches[0].Run(0)
	if batches[0].Runs() != 1 || off0 != 0 || len(data0) != units.MinSubpage {
		t.Fatalf("first batch = %d runs, off %d, %dB; want one %dB run at 0",
			batches[0].Runs(), off0, len(data0), units.MinSubpage)
	}
	off1, data1 := batches[1].Run(0)
	if batches[1].Runs() != 1 || off1 != units.PageSize-units.MinSubpage || len(data1) != units.MinSubpage {
		t.Fatalf("last batch = %d runs, off %d, %dB; want one %dB run at %d",
			batches[1].Runs(), off1, len(data1), units.MinSubpage, units.PageSize-units.MinSubpage)
	}
}

// collectRuns flattens a batch stream into total bytes and a valid bitmap,
// verifying every run's data against the page's pattern.
func collectRuns(t *testing.T, batches []proto.SubpageBatch, page uint64) (total int, got uint32) {
	t.Helper()
	want := pagePattern(page)
	for _, b := range batches {
		for i := 0; i < b.Runs(); i++ {
			off, data := b.Run(i)
			if !bytes.Equal(data, want[off:off+len(data)]) {
				t.Fatalf("run at %d carries wrong bytes", off)
			}
			total += len(data)
			for blk := off / units.MinSubpage; blk < (off+len(data))/units.MinSubpage; blk++ {
				got |= 1 << blk
			}
		}
	}
	return total, got
}

// Regression: the want bitmap is a request, not a filter. A client may ask
// for blocks the policy's transfer plan never covers (a lazy fault carrying
// prefetch predictions is exactly that), and the server must ship every
// requested block it stores — previously `rest &= plan coverage` silently
// dropped want bits outside the plan and the client waited forever for
// blocks that never came.
func TestServerWantBeyondPlanIsHonored(t *testing.T) {
	_, srv := testCluster(t, 1)
	conn, w, r := dialRaw(t, srv.Addr())

	// Lazy plans only the faulted 1024B subpage (blocks 4-7). Want adds
	// blocks 12-15 and 31, which no lazy plan message covers.
	const wantBits = 0xF0 | 0xF000 | 1<<31
	if err := w.SendGetPageV2(proto.GetPageV2{
		ReqID: 11, Page: 0, FaultOff: 1024, SubpageSize: 1024,
		Want: wantBits, Policy: proto.PolicyLazy,
	}); err != nil {
		t.Fatal(err)
	}
	batches, last := readBatches(t, conn, r, 11, 2*time.Second)
	if !last {
		t.Fatal("stream never completed")
	}
	total, got := collectRuns(t, batches, 0)
	if got != wantBits {
		t.Fatalf("reply covered bitmap %#x, want %#x: requested blocks beyond the plan were dropped", got, wantBits)
	}
	if total != 9*units.MinSubpage {
		t.Fatalf("reply carried %d bytes, want %d", total, 9*units.MinSubpage)
	}

	// The emulated wire must honor the same contract: extra want bits ride
	// the final batch instead of vanishing.
	srv.SetWireMbps(1000)
	if err := w.SendGetPageV2(proto.GetPageV2{
		ReqID: 12, Page: 0, FaultOff: 1024, SubpageSize: 1024,
		Want: wantBits, Policy: proto.PolicyLazy,
	}); err != nil {
		t.Fatal(err)
	}
	batches, last = readBatches(t, conn, r, 12, 2*time.Second)
	if !last {
		t.Fatal("emulated stream never completed")
	}
	if _, got := collectRuns(t, batches, 0); got != wantBits {
		t.Fatalf("emulated reply covered bitmap %#x, want %#x", got, wantBits)
	}
}

// A TCancel between batches stops an emulated-wire stream mid-page: the
// server spends no more serialization time on a reply nobody wants.
func TestCancelStopsEmulatedStream(t *testing.T) {
	_, srv := testCluster(t, 1)
	srv.SetWireMbps(5) // 256B per batch costs ~410us: plenty of room to cancel
	conn, w, r := dialRaw(t, srv.Addr())
	if err := w.SendGetPageV2(proto.GetPageV2{
		ReqID: 7, Page: 0, FaultOff: 0, SubpageSize: 256,
		Policy: proto.PolicyPipelined,
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.SendCancel(proto.Cancel{ReqID: 7}); err != nil {
		t.Fatal(err)
	}
	batches, last := readBatches(t, conn, r, 7, 300*time.Millisecond)
	if last {
		t.Fatal("stream ran to completion despite the cancel")
	}
	if len(batches) == 0 {
		t.Fatal("no batch arrived; the request itself failed")
	}
	total := 0
	for _, b := range batches {
		for i := 0; i < b.Runs(); i++ {
			_, data := b.Run(i)
			total += len(data)
		}
	}
	if total >= units.PageSize {
		t.Fatalf("received %d bytes, want less than a full page", total)
	}
	waitFor(t, 2*time.Second, func() bool { return serverCancels(srv) >= 1 },
		"server to count the cancel")
}

// The lost-hedge fix: when the hedged replica wins, the primary's stream
// is withdrawn on the wire, and the loser can neither skew the latency
// statistics nor double-complete the attempt.
func TestHedgeLoserCanceledEagerly(t *testing.T) {
	dir, srvA, srvB := replicatedCluster(t, 1)
	srvA.SetWireMbps(1) // ~8.2ms per 1KB message: the 5ms hedge always fires
	cfg := fastRetry(ClientConfig{
		Policy:      proto.PolicyPipelined,
		SubpageSize: 1024,
		Hedge:       5 * time.Millisecond,
	})
	cfg.RequestTimeout = 5 * time.Second
	c := testClient(t, dir, cfg)

	buf := make([]byte, units.PageSize)
	if err := c.Read(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pagePattern(0)) {
		t.Fatal("page mismatch")
	}
	st := c.Stats()
	if st.Hedges != 1 {
		t.Fatalf("Hedges = %d, want 1", st.Hedges)
	}
	if st.Cancels < 1 {
		t.Fatal("the losing stream was never canceled")
	}
	// One fault, one first-subpage sample, one completion sample: the
	// loser's late batches must not have signaled anything.
	if st.Faults != 1 || st.SubpageLat.N() != 1 || st.FullLat.N() != 1 {
		t.Fatalf("Faults=%d SubpageLat.N=%d FullLat.N=%d, want 1/1/1 (loser skewed the stats)",
			st.Faults, st.SubpageLat.N(), st.FullLat.N())
	}
	waitFor(t, 2*time.Second, func() bool { return serverCancels(srvA) >= 1 },
		"the slow primary to observe the cancel")
	_ = srvB
}

// Server.Store must not allocate in steady state: buffers recycle through
// the page pool (the Store hot-path bugfix).
func TestServerStoreAllocs(t *testing.T) {
	srv, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	data := pagePattern(3)
	srv.Store(0, data)
	if n := testing.AllocsPerRun(200, func() { srv.Store(0, data) }); n > 0.5 {
		t.Fatalf("Store allocates %.1f objects per call in steady state, want 0", n)
	}
}

// nopConn is a sink net.Conn for exercising the reply path off the wire.
type nopConn struct{}

func (nopConn) Read(b []byte) (int, error)       { return 0, errors.New("nopConn: no reads") }
func (nopConn) Write(b []byte) (int, error)      { return len(b), nil }
func (nopConn) Close() error                     { return nil }
func (nopConn) LocalAddr() net.Addr              { return nil }
func (nopConn) RemoteAddr() net.Addr             { return nil }
func (nopConn) SetDeadline(time.Time) error      { return nil }
func (nopConn) SetReadDeadline(time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(time.Time) error { return nil }

// The v2 reply path reuses per-connection scratch: a whole-page reply,
// paced or not, allocates its transfer plan and nothing per batch or per
// run.
func TestServerReplyPathAllocs(t *testing.T) {
	srv, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Store(0, pagePattern(0))
	slp := newSleeper()
	defer slp.Close()
	st := &connState{
		conn:     nopConn{},
		link:     link{slp: slp},
		live:     make(map[uint64]bool),
		canceled: make(map[uint64]bool),
	}
	w := proto.NewWriter(nopConn{})
	req := proto.GetPageV2{ReqID: 1, Page: 0, FaultOff: 1024, SubpageSize: 1024, Policy: proto.PolicyEager}
	// Budget: the transfer plan's one slice. The batch list, the framing,
	// the run tables, the scatter-gather list and the link's clock and
	// sleeper are connection scratch.
	const budget = 1.0
	for _, mbps := range []float64{0, 8000} { // 8000: a nanosecond per byte, a microsecond-scale sleep per reply
		srv.SetWireMbps(mbps)
		if err := srv.sendPageV2(st, w, req); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if err := srv.sendPageV2(st, w, req); err != nil {
				t.Fatal(err)
			}
		}); n > budget {
			t.Fatalf("v2 reply path at %v Mb/s allocates %.1f objects per page, budget %v", mbps, n, budget)
		}
	}
}

// A paced reply sleeps on its connection's timer once per batch; the
// sleep allocates nothing.
func TestSleeperAllocs(t *testing.T) {
	slp := newSleeper()
	if slp == nil {
		t.Skip("no timerfd: the nanosleep fallback has no state to reuse")
	}
	defer slp.Close()
	if n := testing.AllocsPerRun(100, func() { slp.Sleep(time.Microsecond) }); n != 0 {
		t.Fatalf("Sleep allocates %.1f objects per call, want 0", n)
	}
}

// A stale batch (canceled hedge, timed-out attempt) applies bytes without
// allocating and without touching the attempt state machine.
func TestStaleBatchAppliesWithoutSignaling(t *testing.T) {
	dir, _ := testCluster(t, 1)
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyEager})
	buf := make([]byte, units.PageSize)
	if err := c.Read(buf, 0); err != nil {
		t.Fatal(err)
	}

	var fb bytes.Buffer
	w := proto.NewWriter(&fb)
	if err := w.SendSubpageBatch(999, 0, proto.FlagFirst|proto.FlagLast,
		[]proto.SubpageRun{{Off: 0, Data: pagePattern(0)[:512]}}); err != nil {
		t.Fatal(err)
	}
	f, err := proto.NewReader(&fb).Next()
	if err != nil {
		t.Fatal(err)
	}
	b, err := proto.DecodeSubpageBatch(f.Payload)
	if err != nil {
		t.Fatal(err)
	}

	before := c.Stats()
	if n := testing.AllocsPerRun(200, func() { c.applyBatch("203.0.113.1:1", b) }); n > 0.5 {
		t.Fatalf("stale applyBatch allocates %.1f objects per frame, want 0", n)
	}
	after := c.Stats()
	if after.SubpageLat.N() != before.SubpageLat.N() || after.FullLat.N() != before.FullLat.N() {
		t.Fatal("a stale batch moved the latency statistics")
	}
	if after.Cancels != before.Cancels {
		t.Fatal("a stale batch sent cancels")
	}
	if err := c.Read(buf, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pagePattern(0)) {
		t.Fatal("stale batches corrupted the cached page")
	}
}

// TestBatchedWireSmoke is the bounded batched-path smoke run under -race
// by make ci: three clients hammer the same replicated servers
// concurrently, with hedging on and a cache small enough to churn the
// page-buffer pool.
func TestBatchedWireSmoke(t *testing.T) {
	dir, _, _ := replicatedCluster(t, 16)
	mk := func() *Client {
		cfg := fastRetry(ClientConfig{
			Policy:      proto.PolicyPipelined,
			SubpageSize: 512,
			CachePages:  8,
			Hedge:       2 * time.Millisecond,
		})
		cfg.RequestTimeout = 5 * time.Second
		return testClient(t, dir, cfg)
	}
	clients := []*Client{mk(), mk(), mk()}
	var wg sync.WaitGroup
	errs := make(chan error, len(clients))
	for gi, c := range clients {
		wg.Add(1)
		go func(gi int, c *Client) {
			defer wg.Done()
			buf := make([]byte, units.PageSize)
			for i := 0; i < 40; i++ {
				page := uint64((gi*7 + i*3) % 16)
				if err := c.Read(buf, page*units.PageSize); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, pagePattern(page)) {
					errs <- errors.New("page mismatch under concurrency")
					return
				}
			}
		}(gi, c)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}
