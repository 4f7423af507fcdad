package remote

import (
	"bytes"
	"testing"
	"time"

	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// settled waits until page's fault is over, so that it is evictable.
func settled(t *testing.T, c *Client, page uint64) {
	t.Helper()
	waitFor(t, 2*time.Second, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		p := c.pages.m[page]
		return p != nil && !p.faulting && !p.inflight
	}, "the page's fault to settle")
}

// TestWriteBackWindowHoldsRefault is the stale-read regression: while an
// evictor sends a dirty page's put, an accessor of that page must wait for
// the put to be on the wire. Were the page gone from the cache in that
// window, the accessor's GetPage could reach the server ahead of the put
// and read back the bytes the put replaces. The server connection's write
// lock holds the evictor in its window for as long as the test likes.
func TestWriteBackWindowHoldsRefault(t *testing.T) {
	dir, srv := testCluster(t, 4)
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyEager, CachePages: 1})
	msg := []byte("the newest bytes of page 0")
	if err := c.Write(msg, 0); err != nil {
		t.Fatal(err)
	}
	settled(t, c, 0)
	sc := c.tr.connected(srv.Addr())
	sc.wmu.Lock() // every frame to the server waits here
	held := true
	defer func() {
		if held {
			sc.wmu.Unlock()
		}
	}()

	errs := make(chan error, 2)
	go func() { // evicts page 0, whose put parks on the write lock
		var b [8]byte
		errs <- c.Read(b[:], units.PageSize)
	}()
	waitFor(t, 2*time.Second, func() bool { return c.Stats().Evictions == 1 }, "page 0's eviction to reach its write-back")
	got := make([]byte, len(msg))
	go func() { errs <- c.Read(got, 0) }()
	for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if f := c.Stats().Faults; f != 1 {
			t.Fatalf("%d faults: page 0 was fetched again while its write-back was still unsent", f)
		}
	}
	sc.wmu.Unlock()
	held = false
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("page 0 read back %q, want the bytes just written", got)
	}
	if st := c.Stats(); st.PutPages != 1 || st.Faults != 3 {
		t.Fatalf("PutPages %d Faults %d, want 1 and 3", st.PutPages, st.Faults)
	}
}

// TestWriteBackReachesEveryReplica: a write-back goes to every replica of
// the page, so losing the primary afterwards fails reads over to a copy
// that has the write, not to the bytes it replaced.
func TestWriteBackReachesEveryReplica(t *testing.T) {
	dir, srvA, srvB := replicatedCluster(t, 8)
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyEager, CachePages: 1})
	msg := []byte("written before the primary died")
	if err := c.Write(msg, 5*units.PageSize+100); err != nil {
		t.Fatal(err)
	}
	settled(t, c, 5)
	if err := c.Read(make([]byte, units.PageSize), 0); err != nil { // evicts page 5
		t.Fatal(err)
	}
	puts := func(s *Server) int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.Puts
	}
	waitFor(t, 2*time.Second, func() bool { return puts(srvA) == 1 && puts(srvB) == 1 },
		"the write-back to land on both replicas")
	if st := c.Stats(); st.PutPages != 1 || st.PutBytes != 2*units.MinSubpage {
		t.Fatalf("PutPages %d PutBytes %d, want one page, its one dirty block to each replica", st.PutPages, st.PutBytes)
	}
	srvA.Close() // the primary for every page

	c2 := testClient(t, dir, fastRetry(ClientConfig{Policy: proto.PolicyEager}))
	got := make([]byte, len(msg))
	if err := c2.Read(got, 5*units.PageSize+100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("after failover page 5 reads %q: the surviving replica missed the write-back", got)
	}
}

// TestRefaultKeepsDirtyBlocks: a reply never overwrites a block the client
// has written. A lazy fault on [250, 270) misses only block 1, but its
// faulted block 0 rides the reply anyway, and block 0 holds a store the
// server has not seen.
func TestRefaultKeepsDirtyBlocks(t *testing.T) {
	dir, _ := testCluster(t, 2)
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyLazy})
	msg := []byte("stored in block 0")
	if err := c.Write(msg, 0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 20)
	if err := c.Read(buf, 250); err != nil {
		t.Fatal(err)
	}
	if want := pagePattern(0)[250:270]; !bytes.Equal(buf[6:], want[6:]) {
		t.Fatalf("block 1 read %x, want the server's %x", buf[6:], want[6:])
	}
	got := make([]byte, len(msg))
	if err := c.Read(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("block 0 reads %q after the second fault, want the stored %q", got, msg)
	}
	if st := c.Stats(); st.Faults != 2 {
		t.Fatalf("%d faults, want 2", st.Faults)
	}
}

// TestDirtyEvictionAllocs pins a dirty eviction at zero allocations, client
// and server: the dirty blocks are gathered from the page image straight
// into the connection's frame buffer, and the server merges them into the
// page's buffer.
func TestDirtyEvictionAllocs(t *testing.T) {
	const pages, cache = 8, 4
	dir, srv := testCluster(t, pages)
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyPipelined, CachePages: cache})
	buf := make([]byte, units.PageSize)
	for p := uint64(0); p < pages; p++ { // caches every route and the connection
		if err := c.Read(buf, p*units.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// One miss's cache work with a dirty victim: the page stored into
	// cache-many misses ago is written back, and the next page takes its
	// slot and is stored into in turn.
	next := uint64(0)
	evict := func() {
		c.evictIfFull()
		p := c.pages.install(next % pages)
		p.valid, p.dirty = memmodel.FullBitmap, memmodel.BlockMask(int(next*300%units.PageSize))
		next++
	}
	for i := 0; i < 2*cache; i++ {
		evict()
	}
	before := c.stats
	const runs = 200
	allocs := testing.AllocsPerRun(runs, evict)
	st := c.stats
	if puts := st.PutPages - before.PutPages; puts != runs+1 || st.PutDrops != 0 {
		t.Fatalf("%d write-backs and %d drops in %d dirty evictions", puts, st.PutDrops, runs+1)
	}
	if got := st.PutBytes - before.PutBytes; got != (runs+1)*units.MinSubpage {
		t.Fatalf("%d bytes written back, want one block per eviction", got)
	}
	c.mu.Unlock()
	waitFor(t, 2*time.Second, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.Puts == st.PutPages
	}, "every put to land")
	c.mu.Lock()
	if allocs > 0 {
		t.Fatalf("a dirty eviction allocates %v objects, client and server, budget 0", allocs)
	}
}

// TestBlockPutMergesCopyOnWrite: a block put replaces exactly its blocks,
// and a reply stream still holding the page's buffer reads bytes that do
// not change under it. A buffer nothing else holds is merged in place, and
// a block put for a page the server does not hold stores nothing.
func TestBlockPutMergesCopyOnWrite(t *testing.T) {
	srv, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Store(3, pagePattern(3))
	stream, _, _, _, errMsg := srv.openGet(3, proto.PolicyEager, units.KiB, 0) // a reply's reference
	if errMsg != "" {
		t.Fatal(errMsg)
	}
	blocks := bytes.Repeat([]byte{0xee}, 2*units.MinSubpage)
	srv.put(proto.PutPage{Page: 3, Blocks: 1<<1 | 1<<5, Data: blocks})
	if !bytes.Equal(stream.data, pagePattern(3)) {
		t.Fatal("the merge wrote into the buffer a reply stream was reading")
	}
	stream.release()
	want := pagePattern(3)
	copy(want[1*units.MinSubpage:2*units.MinSubpage], blocks)
	copy(want[5*units.MinSubpage:6*units.MinSubpage], blocks)
	stored := func() *pageBuf {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.pages[3]
	}
	merged := stored()
	if !bytes.Equal(merged.data, want) {
		t.Fatal("the stored page is not the old page with the two blocks merged in")
	}
	srv.put(proto.PutPage{Page: 3, Blocks: 1 << 31, Data: blocks[:units.MinSubpage]})
	copy(want[31*units.MinSubpage:], blocks)
	if stored() != merged || !bytes.Equal(merged.data, want) {
		t.Fatal("an unshared page was not merged in place")
	}
	srv.put(proto.PutPage{Page: 9, Blocks: 1, Data: blocks[:units.MinSubpage]})
	if srv.Pages() != 1 || srv.Puts != 2 {
		t.Fatalf("%d pages and %d puts after a block put for an unknown page, want 1 and 2", srv.Pages(), srv.Puts)
	}
}
