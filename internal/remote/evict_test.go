package remote

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"testing"
	"time"

	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/obs"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// scanVictim is the victim choice the LRU list replaced, kept as the oracle:
// a scan of the whole cache for the unpinned page with the smallest lastUse.
// Called with c.mu held.
func scanVictim(c *Client) *cpage {
	var victim *cpage
	for _, p := range c.pages.m {
		if p.inflight || p.faulting || p.waiters > 0 {
			continue
		}
		if victim == nil || p.lastUse < victim.lastUse {
			victim = p
		}
	}
	return victim
}

// checkLRULocked verifies that the LRU list and the cache map describe the
// same pages, that the links are consistent, that lastUse strictly decreases
// from head to tail, and that the list's victim is the scan's. Called with
// c.mu held.
func checkLRULocked(t testing.TB, c *Client) {
	t.Helper()
	n := 0
	var prev *cpage
	for p := c.pages.lruHead; p != nil; prev, p = p, p.next {
		if n++; n > len(c.pages.m) {
			t.Fatalf("LRU list runs past the cache's %d pages (cycle or stray entry at page %d)", len(c.pages.m), p.id)
		}
		if p.prev != prev {
			t.Fatalf("page %d: prev link does not point at its predecessor", p.id)
		}
		if c.pages.m[p.id] != p {
			t.Fatalf("page %d is on the LRU list but not the cache entry for its id", p.id)
		}
		if prev != nil && p.lastUse >= prev.lastUse {
			t.Fatalf("lastUse not strictly decreasing head to tail: page %d (%d) follows page %d (%d)",
				p.id, p.lastUse, prev.id, prev.lastUse)
		}
	}
	if c.pages.lruTail != prev {
		t.Fatal("lruTail is not the last page of the list")
	}
	if n != len(c.pages.m) {
		t.Fatalf("LRU list has %d pages, cache has %d", n, len(c.pages.m))
	}
	if got, want := c.pages.victim(), scanVictim(c); got != want {
		t.Fatalf("list victim %v, scan victim %v", pageID(got), pageID(want))
	}
}

// checkLRU is checkLRULocked for callers that do not hold c.mu: any client
// test can call it at any time, other goroutines' faults in flight or not.
func checkLRU(t testing.TB, c *Client) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	checkLRULocked(t, c)
}

func pageID(p *cpage) string {
	if p == nil {
		return "none"
	}
	return fmt.Sprint("page ", p.id)
}

// scanModel is the cache as the scanning evictIfFull ran it, reduced to what
// decides the victim. It takes the same operations as the client under test;
// the two must hold the same pages after every one.
type scanModel struct {
	capacity int
	tick     int64
	pages    map[uint64]*modelPage
	drops    int64 // dirty victims lost: every write-back fails, and a partial page has none
	partial  int64 // of which never fully valid
	// window is called where evictIfFull drops the lock around a dirty
	// victim's write-back.
	window func(victim uint64)
}

type modelPage struct {
	lastUse            int64
	inflight, faulting bool
	waiters            int
	dirty, full        bool
}

func (m *scanModel) evictIfFull() {
	for len(m.pages) >= m.capacity {
		var victimID uint64
		var victim *modelPage
		for id, p := range m.pages {
			if p.inflight || p.faulting || p.waiters > 0 {
				continue
			}
			if victim == nil || p.lastUse < victim.lastUse {
				victim, victimID = p, id
			}
		}
		if victim == nil {
			return
		}
		delete(m.pages, victimID)
		switch {
		case victim.dirty && !victim.full: // no whole page to write back, no unlock window
			m.drops++
			m.partial++
		case victim.dirty:
			m.drops++
			m.window(victimID)
		}
	}
}

func (m *scanModel) access(page uint64) {
	p := m.pages[page]
	if p == nil {
		m.evictIfFull()
		if p = m.pages[page]; p == nil {
			p = &modelPage{}
			m.pages[page] = p
		}
	}
	m.tick++
	p.lastUse = m.tick
}

// evictHarness drives a real client's cache and the scan model in lockstep.
type evictHarness struct {
	t testing.TB
	c *Client
	m *scanModel
	// reinstall decides, per dirty victim, whether "another goroutine"
	// faults the page back in during the write-back's unlock window. The
	// client and the model each consume their own copy of the sequence.
	reinstallC, reinstallM *rand.Rand
	reinstalled            int
}

// newEvictHarness dials a client whose only reachable peer is the directory:
// every write-back dial fails (so dirty victims count as PutDrops) after
// running the harness's unlock-window hook.
func newEvictHarness(t testing.TB, capacity int, seed int64) *evictHarness {
	dir, _ := testCluster(t, 0)
	h := &evictHarness{
		t:          t,
		m:          &scanModel{capacity: capacity, pages: make(map[uint64]*modelPage)},
		reinstallC: rand.New(rand.NewSource(seed)),
		reinstallM: rand.New(rand.NewSource(seed)),
	}
	// A reinstall that would itself evict is skipped (on both sides): the
	// hook runs inside the outer write-back's dial, under the client's
	// srvMu, where a nested write-back would wait for this goroutine.
	h.m.window = func(victim uint64) {
		if h.reinstallM.Intn(2) == 0 && len(h.m.pages) < capacity {
			h.m.access(victim)
		}
	}
	h.c = testClient(t, dir, ClientConfig{CachePages: capacity, Dial: func(network, addr string) (net.Conn, error) {
		var victim uint64
		if _, err := fmt.Sscanf(addr, "victim-%d", &victim); err != nil {
			return net.Dial(network, addr) // the directory
		}
		// evictIfFull has let go of c.mu for the write-back: this is the
		// window in which another accessor can fault the victim back in.
		h.c.mu.Lock()
		if h.reinstallC.Intn(2) == 0 && len(h.c.pages.m) < capacity {
			h.access(victim)
			h.reinstalled++
		}
		h.c.mu.Unlock()
		return nil, errors.New("no such server")
	}})
	return h
}

// access is the cache half of ensureValid. Called with c.mu held.
func (h *evictHarness) access(page uint64) {
	c := h.c
	p := c.pages.m[page]
	if p == nil {
		c.evictIfFull()
		p = c.pages.m[page]
	}
	if p == nil {
		c.pages.install(page)
	} else {
		c.pages.touch(p)
	}
}

// compare requires the client and the model to cache the same pages, and
// the client's list to be intact and to agree with the scan.
func (h *evictHarness) compare(step int, op string) {
	h.t.Helper()
	checkLRULocked(h.t, h.c)
	var got, want []uint64
	for id := range h.c.pages.m {
		got = append(got, id)
	}
	for id := range h.m.pages {
		want = append(want, id)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		h.t.Fatalf("step %d (%s): list-evicting client caches %v, scan-evicting model %v", step, op, got, want)
	}
	if st := h.c.stats; st.PutDrops != h.m.drops || st.PutPages != 0 {
		h.t.Fatalf("step %d (%s): PutDrops %d PutPages %d, want %d and 0", step, op, st.PutDrops, st.PutPages, h.m.drops)
	}
}

// cached returns the ids the client caches, sorted, so a seeded stream picks
// the same page whatever the map's iteration order.
func (h *evictHarness) cached() []uint64 {
	ids := make([]uint64, 0, len(h.c.pages.m))
	for id := range h.c.pages.m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TestEvictionMatchesScanOracle is the eviction differential: over seeded
// random streams of accesses, pins of each kind, unpins, dirtyings (of
// whole and of partial pages) and evictions, the client with the LRU list
// must evict exactly the pages the scanning evictIfFull evicted, and count
// exactly its lost writes — in
// particular when every page is pinned (overcommit, no victim) and when a
// dirty victim's unlock window lets another accessor reinstall the page.
func TestEvictionMatchesScanOracle(t *testing.T) {
	var evictions, overcommits, reinstalls, partialDrops int64
	for seed := int64(1); seed <= 6; seed++ {
		capacity := []int{1, 2, 8, 32}[seed%4]
		t.Run(fmt.Sprintf("seed%d-cap%d", seed, capacity), func(t *testing.T) {
			h := newEvictHarness(t, capacity, seed)
			c, m := h.c, h.m
			r := rand.New(rand.NewSource(seed * 7919))
			universe := uint64(3*capacity + 2)
			c.mu.Lock()
			defer c.mu.Unlock()
			for step := 0; step < 4000; step++ {
				ids := h.cached()
				var id uint64
				var p *cpage
				var mp *modelPage
				if len(ids) > 0 {
					id = ids[r.Intn(len(ids))]
					p, mp = c.pages.m[id], m.pages[id]
				}
				op := "access"
				switch k := r.Intn(100); {
				case k < 50 || p == nil:
					id = r.Uint64() % universe
					if c.pages.m[id] == nil && len(c.pages.m) >= capacity && scanVictim(c) == nil {
						overcommits++ // every page pinned: the install must go through regardless
					}
					h.access(id)
					m.access(id)
				case k < 62:
					op = "pin"
					switch r.Intn(3) {
					case 0:
						p.inflight, mp.inflight = true, true
					case 1:
						p.faulting, mp.faulting = true, true
					case 2:
						p.waiters++
						mp.waiters++
					}
				case k < 76:
					op = "unpin"
					p.inflight, mp.inflight = false, false
					p.faulting, mp.faulting = false, false
					p.waiters, mp.waiters = 0, 0
				case k < 92:
					op = "dirty"
					p.valid, p.dirty, mp.dirty, mp.full = ^memmodel.Bitmap(0), true, true, true
					if r.Intn(3) == 0 { // a lazy or Prefetch fault's page
						op = "dirty partial"
						p.valid, mp.full = memmodel.Bitmap(0xF0), false
					}
					c.route.remember(id, []string{fmt.Sprintf("victim-%d", id)})
				default:
					op = "evict"
					m.evictIfFull()
					c.evictIfFull()
				}
				h.compare(step, op)
			}
			evictions += c.stats.Evictions
			reinstalls += int64(h.reinstalled)
			partialDrops += m.partial
		})
	}
	t.Logf("%d evictions, %d installs with every page pinned, %d victims reinstalled in the unlock window, %d partial dirty pages dropped",
		evictions, overcommits, reinstalls, partialDrops)
	if evictions == 0 || overcommits == 0 || reinstalls == 0 || partialDrops == 0 {
		t.Fatal("the streams never reached an eviction, an all-pinned overcommit, a reinstall in a dirty victim's unlock window or a partial dirty victim")
	}
}

// TestEvictionAllPinnedOvercommits pins every page and keeps installing:
// no victim, no eviction, and the cache grows past its size until a pin
// lifts — then the overcommit drains, oldest first.
func TestEvictionAllPinnedOvercommits(t *testing.T) {
	const capacity = 4
	h := newEvictHarness(t, capacity, 1)
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for id := uint64(0); id < capacity; id++ {
		h.access(id)
		switch p := c.pages.m[id]; id % 3 {
		case 0:
			p.inflight = true
		case 1:
			p.faulting = true
		case 2:
			p.waiters = 2
		}
	}
	for id := uint64(capacity); id < capacity+3; id++ {
		if v := c.pages.victim(); v != nil {
			t.Fatalf("victim %s with every page pinned", pageID(v))
		}
		h.access(id)
		c.pages.m[id].waiters = 1
		checkLRULocked(t, c)
	}
	if len(c.pages.m) != capacity+3 || c.stats.Evictions != 0 {
		t.Fatalf("all pinned: %d pages cached, %d evictions; want %d and 0", len(c.pages.m), c.stats.Evictions, capacity+3)
	}
	for _, p := range c.pages.m {
		p.inflight, p.faulting, p.waiters = false, false, 0
	}
	c.evictIfFull()
	checkLRULocked(t, c)
	if len(c.pages.m) != capacity-1 {
		t.Fatalf("after unpinning, evictIfFull left %d pages, want %d", len(c.pages.m), capacity-1)
	}
	for id := uint64(0); id < 4; id++ {
		if c.pages.m[id] != nil {
			t.Fatalf("page %d survived; the overcommit must drain oldest first (cache %v)", id, h.cached())
		}
	}
}

// TestDirtyEvictionAfterForgottenPlacement is the lost-page regression: a
// failed attempt makes the client forget a page's directory answer, and the
// dirty page must still be written back when it is evicted — its bytes
// re-read from the server — not dropped while PutPages counts a success.
func TestDirtyEvictionAfterForgottenPlacement(t *testing.T) {
	dir, _ := testCluster(t, 8)
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyEager, CachePages: 2})
	want := bytes.Repeat([]byte("only copy "), units.PageSize/10+1)[:units.PageSize]
	if err := c.Write(want, 5*units.PageSize); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 2*time.Second, func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return !c.pages.m[5].faulting
	}, "page 5's fault to settle, so that it is evictable")
	c.route.forget(5) // what retry does after any failed attempt on the page
	var b [8]byte
	for p := 0; p < 4; p++ {
		if err := c.Read(b[:], uint64(p)*units.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	checkLRU(t, c)
	if st := c.Stats(); st.PutPages != 1 || st.PutDrops != 0 {
		t.Fatalf("PutPages %d PutDrops %d, want the one dirty page written back and none dropped", st.PutPages, st.PutDrops)
	}
	got := make([]byte, units.PageSize)
	if err := c.Read(got, 5*units.PageSize); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("the evicted dirty page came back with the server's old bytes: its write-back was dropped")
	}
}

// TestDirtyEvictionWithNoReplicaCountsDrop: when no replica takes the
// write-back the page is lost, and the client must say so in PutDrops —
// not report a PutPage that never happened.
func TestDirtyEvictionWithNoReplicaCountsDrop(t *testing.T) {
	dir, srv := testCluster(t, 8)
	reg := obs.NewRegistry()
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyEager, CachePages: 1, Metrics: reg})
	if err := c.Write(make([]byte, units.PageSize), 0); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	waitFor(t, 2*time.Second, func() bool {
		c.tr.srvMu.Lock()
		defer c.tr.srvMu.Unlock()
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.tr.servers) == 0 && !c.pages.m[0].faulting
	}, "the fault to settle and the client to notice its server connection died")
	c.mu.Lock()
	c.evictIfFull()
	c.mu.Unlock()
	st := c.Stats()
	if st.Evictions != 1 || st.PutPages != 0 || st.PutDrops != 1 {
		t.Fatalf("Evictions %d PutPages %d PutDrops %d, want 1, 0 and 1", st.Evictions, st.PutPages, st.PutDrops)
	}
	if got := reg.Counter("gms_client_put_drops_total", "").Value(); got != 1 {
		t.Fatalf("gms_client_put_drops_total = %d, want 1", got)
	}
}
