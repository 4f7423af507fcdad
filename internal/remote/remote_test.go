package remote

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// testCluster stands up a directory and one server holding npages pages
// whose contents are a per-page byte pattern.
func testCluster(t testing.TB, npages int) (*Directory, *Server) {
	t.Helper()
	dir, err := ListenDirectory("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	srv, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	for p := 0; p < npages; p++ {
		srv.Store(uint64(p), pagePattern(uint64(p)))
	}
	if err := srv.RegisterWith(dir.Addr()); err != nil {
		t.Fatal(err)
	}
	return dir, srv
}

func pagePattern(page uint64) []byte {
	data := make([]byte, units.PageSize)
	for i := range data {
		data[i] = byte(page*131 + uint64(i)*7)
	}
	return data
}

func testClient(t testing.TB, dir *Directory, cfg ClientConfig) *Client {
	t.Helper()
	cfg.Directory = dir.Addr()
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		checkLRU(t, c) // every client test ends with the cache's list intact
		c.Close()
	})
	return c
}

func TestDirectoryRegisterLookup(t *testing.T) {
	dir, srv := testCluster(t, 10)
	if dir.Len() != 10 {
		t.Fatalf("directory has %d pages, want 10", dir.Len())
	}
	addr, ok := dir.Lookup(3)
	if !ok || addr != srv.Addr() {
		t.Fatalf("Lookup(3) = %q, %v", addr, ok)
	}
	if _, ok := dir.Lookup(99); ok {
		t.Fatal("unknown page should not resolve")
	}
}

func TestReadWholePage(t *testing.T) {
	dir, _ := testCluster(t, 4)
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyEager})
	buf := make([]byte, units.PageSize)
	if err := c.Read(buf, 2*units.PageSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pagePattern(2)) {
		t.Fatal("page contents mismatch")
	}
	st := c.Stats()
	if st.Faults != 1 {
		t.Fatalf("Faults = %d, want 1", st.Faults)
	}
}

func TestReadAcrossPages(t *testing.T) {
	dir, _ := testCluster(t, 4)
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyEager})
	// Read spanning pages 0 and 1.
	buf := make([]byte, 4096)
	addr := uint64(units.PageSize - 2048)
	if err := c.Read(buf, addr); err != nil {
		t.Fatal(err)
	}
	want := append(pagePattern(0)[units.PageSize-2048:], pagePattern(1)[:2048]...)
	if !bytes.Equal(buf, want) {
		t.Fatal("cross-page read mismatch")
	}
	if st := c.Stats(); st.Faults != 2 {
		t.Fatalf("Faults = %d, want 2", st.Faults)
	}
}

func TestPoliciesDeliverIdenticalData(t *testing.T) {
	dir, _ := testCluster(t, 6)
	for _, pol := range []uint8{proto.PolicyFullPage, proto.PolicyEager, proto.PolicyPipelined} {
		c := testClient(t, dir, ClientConfig{Policy: pol, SubpageSize: 1024})
		buf := make([]byte, units.PageSize)
		for p := 0; p < 6; p++ {
			// Fault at an interior offset to exercise the
			// fragment ordering.
			if err := c.Read(buf[:128], uint64(p)*units.PageSize+3000); err != nil {
				t.Fatalf("policy %d: %v", pol, err)
			}
			if err := c.Read(buf, uint64(p)*units.PageSize); err != nil {
				t.Fatalf("policy %d: %v", pol, err)
			}
			if !bytes.Equal(buf, pagePattern(uint64(p))) {
				t.Fatalf("policy %d: page %d mismatch", pol, p)
			}
		}
	}
}

func TestLazyRefetchesOnDemand(t *testing.T) {
	dir, _ := testCluster(t, 2)
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyLazy, SubpageSize: 1024})
	var b [16]byte
	if err := c.Read(b[:], 0); err != nil {
		t.Fatal(err)
	}
	// A second subpage of the same page needs another fault.
	if err := c.Read(b[:], 4096); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Faults != 2 {
		t.Fatalf("lazy Faults = %d, want 2", st.Faults)
	}
	if st.BytesIn >= units.PageSize {
		t.Fatalf("lazy moved %d bytes, should be two subpages", st.BytesIn)
	}
}

func TestEagerCompletesPageInBackground(t *testing.T) {
	dir, _ := testCluster(t, 2)
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyEager, SubpageSize: 1024})
	var b [16]byte
	if err := c.Read(b[:], 0); err != nil {
		t.Fatal(err)
	}
	// Reading the rest of the page must not issue a second fault (the
	// remainder streams in behind the first subpage; ensureValid waits
	// on the same in-flight transfer).
	buf := make([]byte, units.PageSize)
	if err := c.Read(buf, 0); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Faults != 1 {
		t.Fatalf("eager Faults = %d, want 1", st.Faults)
	}
}

// TestWriteBackOnEviction: an evicted dirty page is either written back,
// so a fresh client reads the write, or counted lost in PutDrops. An eager
// fault leaves the written page fully valid, and it is written back. A
// lazy fault, and Prefetch (lazy on the wire), leave it partial, with no
// whole page to put: its write is lost, and must at least be counted.
func TestWriteBackOnEviction(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ClientConfig
		lost bool
	}{
		{"eager", ClientConfig{Policy: proto.PolicyEager}, false},
		{"lazy", ClientConfig{Policy: proto.PolicyLazy}, true},
		{"prefetch", ClientConfig{Prefetch: true}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, _ := testCluster(t, 8)
			cfg := tc.cfg
			cfg.CachePages = 2
			c := testClient(t, dir, cfg)
			msg := []byte("written through remote memory")
			if err := c.Write(msg, 5*units.PageSize+100); err != nil {
				t.Fatal(err)
			}
			// Touch other pages to force eviction of page 5.
			var b [8]byte
			for p := 0; p < 4; p++ {
				if err := c.Read(b[:], uint64(p)*units.PageSize); err != nil {
					t.Fatal(err)
				}
			}
			st := c.Stats()
			if st.Evictions == 0 {
				t.Fatal("expected evictions with a 2-page cache")
			}
			if tc.lost {
				if st.PutPages != 0 || st.PutDrops != 1 {
					t.Fatalf("PutPages %d PutDrops %d, want the partial dirty page counted lost: 0 and 1", st.PutPages, st.PutDrops)
				}
				return
			}
			if st.PutPages != 1 || st.PutDrops != 0 {
				t.Fatalf("PutPages %d PutDrops %d, want the dirty page written back: 1 and 0", st.PutPages, st.PutDrops)
			}
			// Re-read page 5 through a fresh client and check the write
			// survived on the server.
			c2 := testClient(t, dir, ClientConfig{Policy: proto.PolicyEager})
			got := make([]byte, len(msg))
			if err := c2.Read(got, 5*units.PageSize+100); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("write-back lost: %q", got)
			}
		})
	}
}

func TestUnknownPageFails(t *testing.T) {
	dir, _ := testCluster(t, 1)
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyEager})
	var b [8]byte
	if err := c.Read(b[:], 100*units.PageSize); err == nil {
		t.Fatal("reading an unregistered page should fail")
	}
	// The client remains usable for valid pages.
	if err := c.Read(b[:], 0); err != nil {
		t.Fatalf("client should survive a failed lookup: %v", err)
	}
}

func TestConcurrentReaders(t *testing.T) {
	const pages = 16
	dir, _ := testCluster(t, pages)
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyEager, CachePages: pages})
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 256)
			for i := 0; i < 50; i++ {
				p := uint64((g + i) % pages)
				off := uint64((i * 997) % (units.PageSize - 256))
				if err := c.Read(buf, p*units.PageSize+off); err != nil {
					errs <- err
					return
				}
				want := pagePattern(p)[off : off+256]
				if !bytes.Equal(buf, want) {
					errs <- fmt.Errorf("goroutine %d: page %d data mismatch", g, p)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSubpageLatencyBelowFullLatency(t *testing.T) {
	dir, _ := testCluster(t, 32)
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyEager, SubpageSize: 1024, CachePages: 64})
	var b [8]byte
	for p := 0; p < 32; p++ {
		if err := c.Read(b[:], uint64(p)*units.PageSize+2048); err != nil {
			t.Fatal(err)
		}
	}
	// Let the trailing fragments land.
	buf := make([]byte, units.PageSize)
	for p := 0; p < 32; p++ {
		if err := c.Read(buf, uint64(p)*units.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.SubpageLat.N() == 0 || st.FullLat.N() == 0 {
		t.Fatalf("latency stats missing: %d/%d", st.SubpageLat.N(), st.FullLat.N())
	}
	// The faulted subpage is usable no later than the full page: medians
	// must be ordered (this is the prototype's core claim).
	if st.SubpageLat.Median() > st.FullLat.Median() {
		t.Fatalf("subpage median %.0fus > full median %.0fus",
			st.SubpageLat.Median(), st.FullLat.Median())
	}
}

func TestWireEmulationRestoresSizeEffect(t *testing.T) {
	// On an emulated 10 Mb/s link (coarse enough to dominate scheduler
	// noise even on one CPU), an eager 1K-subpage fault must make the
	// faulted data usable well before a full-page fault would, and before
	// its own page completes — the prototype's headline result.
	dir, srv := testCluster(t, 48)
	srv.SetWireMbps(10)

	cEager := testClient(t, dir, ClientConfig{
		Policy: proto.PolicyEager, SubpageSize: 1024, CachePages: 64,
	})
	var b [8]byte
	buf := make([]byte, units.PageSize)
	// Pace the probes: complete each page before faulting the next, so
	// the medians measure isolated fault latency rather than queueing.
	for p := 0; p < 24; p++ {
		if err := cEager.Read(b[:], uint64(p)*units.PageSize+4000); err != nil {
			t.Fatal(err)
		}
		if err := cEager.Read(buf, uint64(p)*units.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	cFull := testClient(t, dir, ClientConfig{
		Policy: proto.PolicyFullPage, SubpageSize: 1024, CachePages: 64,
	})
	for p := 24; p < 48; p++ {
		if err := cFull.Read(b[:], uint64(p)*units.PageSize+4000); err != nil {
			t.Fatal(err)
		}
	}
	eager, full := cEager.Stats(), cFull.Stats()
	// 1K at 10 Mb/s serializes in ~0.8 ms, 8K in ~6.5 ms. Allow generous
	// scheduling noise but require a clear gap.
	if eager.SubpageLat.Median() >= full.SubpageLat.Median()*0.6 {
		t.Errorf("eager subpage median %.0fus should be well below fullpage %.0fus",
			eager.SubpageLat.Median(), full.SubpageLat.Median())
	}
	if eager.SubpageLat.Median() >= eager.FullLat.Median() {
		t.Errorf("eager subpage %.0fus should beat its own page completion %.0fus",
			eager.SubpageLat.Median(), eager.FullLat.Median())
	}
}

func TestInvalidSubpageSizeRejected(t *testing.T) {
	if _, err := Dial(ClientConfig{Directory: "127.0.0.1:1", SubpageSize: 100}); err == nil {
		t.Fatal("bad subpage size should fail")
	}
}

// The reply-stream oracle in replywire_test.go is kept byte for byte; these
// are the two names it calls that the server no longer needs for itself.
func bitmapRuns(b memmodel.Bitmap) []byteRun { return appendBitmapRuns(nil, b) }
func policyFor(b uint8) (core.Policy, error) { return core.WirePolicy(b) }

func TestBitmapRuns(t *testing.T) {
	runs := bitmapRuns(0)
	if len(runs) != 0 {
		t.Fatalf("empty bitmap: %v", runs)
	}
	runs = bitmapRuns(0xFFFFFFFF)
	if len(runs) != 1 || runs[0] != (byteRun{0, units.PageSize}) {
		t.Fatalf("full bitmap: %v", runs)
	}
	// Bits 0-3 and 8-11: two 1K runs with a gap.
	runs = bitmapRuns(0x00000F0F)
	want := []byteRun{{0, 1024}, {2048, 3072}}
	if len(runs) != 2 || runs[0] != want[0] || runs[1] != want[1] {
		t.Fatalf("split bitmap: %v, want %v", runs, want)
	}
}

// The server refuses a malformed get with a TError and keeps the connection:
// Dial validates what this build's client sends, but the bytes on the wire
// come from any build.
func TestServerRejectsBadRequests(t *testing.T) {
	_, srv := testCluster(t, 1)
	conn, w, r := dialRaw(t, srv.Addr())
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	for _, req := range []proto.GetPageV2{
		{ReqID: 1, SubpageSize: 1024, Policy: 200}, // a byte no policy owns
		{ReqID: 2, SubpageSize: 100, Policy: proto.PolicyEager},
		{ReqID: 3, FaultOff: units.PageSize, SubpageSize: 1024, Policy: proto.PolicyEager},
		{ReqID: 4, Page: 99, SubpageSize: 1024, Policy: proto.PolicyEager}, // not stored
	} {
		if err := w.SendGetPageV2(req); err != nil {
			t.Fatal(err)
		}
		if f, err := r.Next(); err != nil || f.Type != proto.TError {
			t.Fatalf("request %d answered %v, %v; want a TError", req.ReqID, f.Type, err)
		}
	}
}

// Dial refuses a policy byte the wire does not carry, typed and before it
// touches the network: discovered server-side it would cost every access its
// whole retry budget.
func TestDialRejectsUnknownPolicy(t *testing.T) {
	for _, b := range []uint8{4, 200} {
		_, err := Dial(ClientConfig{Directory: "127.0.0.1:1", Policy: b})
		var ue *core.UnknownPolicyError
		if !errors.As(err, &ue) {
			t.Fatalf("Dial with policy byte %d: err = %v, want *core.UnknownPolicyError", b, err)
		}
	}
}

func TestServerFailureIsScoped(t *testing.T) {
	// Two servers: killing one fails only its pages; the other keeps
	// serving and the client survives.
	dir, err := ListenDirectory("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	srvA, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	srvA.Store(0, pagePattern(0))
	srvB.Store(1, pagePattern(1))
	if err := srvA.RegisterWith(dir.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := srvB.RegisterWith(dir.Addr()); err != nil {
		t.Fatal(err)
	}

	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyEager})
	buf := make([]byte, 64)
	if err := c.Read(buf, 0); err != nil {
		t.Fatal(err)
	}

	// Kill server A, drop its page from the cache by... the page is
	// cached; use a fresh client so the fault must go to the network.
	srvA.Close()
	c2 := testClient(t, dir, ClientConfig{Policy: proto.PolicyEager})
	if err := c2.Read(buf, 0); err == nil {
		t.Fatal("page on the dead server should fail")
	}
	// Server B's page still works on the same client.
	if err := c2.Read(buf, units.PageSize); err != nil {
		t.Fatalf("page on the live server should still work: %v", err)
	}
	if !bytes.Equal(buf, pagePattern(1)[:64]) {
		t.Fatal("live server data mismatch")
	}
}

func TestInFlightFaultsFailWhenServerDies(t *testing.T) {
	// A fault stalled on a throttled server gets an error (not a hang)
	// when the server dies mid-transfer.
	dir, err := ListenDirectory("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	srv, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Store(0, pagePattern(0))
	if err := srv.RegisterWith(dir.Addr()); err != nil {
		t.Fatal(err)
	}
	srv.SetWireMbps(0.5) // ~130 ms for a full page: plenty of time to kill it

	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyFullPage})
	errCh := make(chan error, 1)
	go func() {
		var b [8]byte
		errCh <- c.Read(b[:], 0)
	}()
	time.Sleep(20 * time.Millisecond) // let the fault get in flight
	srv.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("read should fail when the server dies mid-transfer")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read hung after server death")
	}
}
