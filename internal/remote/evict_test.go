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
		if p.inflight || p.faulting || p.waiters > 0 || p.putting {
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
// the two must hold the same pages, with the same dirty blocks, after every
// one.
type scanModel struct {
	capacity int
	tick     int64
	pages    map[uint64]*modelPage
	drops    int64 // dirty victims lost: every write-back fails
	partial  int64 // of which never fully valid, which are written back all the same
	// window is called where evictIfFull drops the lock around a dirty
	// victim's write-back; the victim is still cached, pinned as putting.
	window func(victim uint64)
}

type modelPage struct {
	lastUse            int64
	inflight, faulting bool
	waiters            int
	putting            bool
	dirty              memmodel.Bitmap
	full               bool
}

// victim is the scan: the unpinned page with the smallest lastUse.
func (m *scanModel) victim() (uint64, *modelPage) {
	var victimID uint64
	var victim *modelPage
	for id, p := range m.pages {
		if p.inflight || p.faulting || p.waiters > 0 || p.putting {
			continue
		}
		if victim == nil || p.lastUse < victim.lastUse {
			victim, victimID = p, id
		}
	}
	return victimID, victim
}

func (m *scanModel) evictIfFull() {
	for len(m.pages) >= m.capacity {
		victimID, victim := m.victim()
		if victim == nil {
			return
		}
		if victim.dirty != 0 { // every dirty victim, whole or partial, opens the window
			m.drops++
			if !victim.full {
				m.partial++
			}
			victim.putting = true
			m.window(victimID)
		}
		delete(m.pages, victimID)
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
	// windowC and windowM decide, per dirty victim, what "another
	// goroutine" does during the write-back's unlock window: try the
	// victim, access some page, or nothing. The client and the model each
	// consume their own copy of the sequence.
	windowC, windowM *rand.Rand
	universe         uint64
	victimWaits      int // window accesses to the victim, which find it putting
	windowAccesses   int // window accesses to other pages, which go through
}

// windowOp draws what the window does: 0 tries the victim, 1 accesses page
// id, 2 does nothing. A page other than the victim is accessed only if that
// needs no dirty eviction of its own: the hook runs inside the outer
// write-back's dial, under the client's srvMu, where a nested write-back
// would wait for this goroutine. order lists the unpinned pages' dirty
// masks, least recently used first; an install evicts from its front.
func windowOp(r *rand.Rand, universe, victim uint64, cached func(uint64) bool, n, capacity int, order []memmodel.Bitmap) (op int, id uint64) {
	switch r.Intn(3) {
	case 0:
		return 0, victim
	case 1:
		if id = r.Uint64() % universe; id == victim {
			return 0, victim
		}
		if cached(id) {
			return 1, id
		}
		for i := 0; i <= n-capacity && i < len(order); i++ {
			if order[i] != 0 {
				return 2, 0
			}
		}
		return 1, id
	}
	return 2, 0
}

// lruOrder lists the dirty masks of the client's unpinned pages, least
// recently used first: the order its evictions take them in.
func lruOrder(c *Client) []memmodel.Bitmap {
	var order []memmodel.Bitmap
	for p := c.pages.lruTail; p != nil; p = p.prev {
		if !(p.inflight || p.faulting || p.waiters > 0 || p.putting) {
			order = append(order, p.dirty)
		}
	}
	return order
}

// lruOrder is the scan's lruOrder.
func (m *scanModel) lruOrder() []memmodel.Bitmap {
	var ps []*modelPage
	for _, p := range m.pages {
		if !(p.inflight || p.faulting || p.waiters > 0 || p.putting) {
			ps = append(ps, p)
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].lastUse < ps[j].lastUse })
	order := make([]memmodel.Bitmap, len(ps))
	for i, p := range ps {
		order[i] = p.dirty
	}
	return order
}

// newEvictHarness dials a client whose only reachable peer is the directory:
// every write-back dial fails (so dirty victims count as PutDrops) after
// running the harness's unlock-window hook.
func newEvictHarness(t testing.TB, capacity int, seed int64) *evictHarness {
	dir, _ := testCluster(t, 0)
	h := &evictHarness{
		t:        t,
		m:        &scanModel{capacity: capacity, pages: make(map[uint64]*modelPage)},
		windowC:  rand.New(rand.NewSource(seed)),
		windowM:  rand.New(rand.NewSource(seed)),
		universe: uint64(3*capacity + 2),
	}
	h.m.window = func(victim uint64) {
		m := h.m
		op, id := windowOp(h.windowM, h.universe, victim,
			func(id uint64) bool { return m.pages[id] != nil }, len(m.pages), capacity, m.lruOrder())
		if op == 1 {
			m.access(id)
		}
	}
	h.c = testClient(t, dir, ClientConfig{CachePages: capacity, Dial: func(network, addr string) (net.Conn, error) {
		var victim uint64
		if _, err := fmt.Sscanf(addr, "victim-%d", &victim); err != nil {
			return net.Dial(network, addr) // the directory
		}
		// evictIfFull has let go of c.mu for the write-back: this is the
		// window in which another accessor can reach the cache.
		c := h.c
		c.mu.Lock()
		defer c.mu.Unlock()
		op, id := windowOp(h.windowC, h.universe, victim,
			func(id uint64) bool { return c.pages.m[id] != nil }, len(c.pages.m), capacity, lruOrder(c))
		switch op {
		case 0:
			// ensureValid would wait on the condition variable: the victim
			// must still be cached and pinned, so nothing fetches it again
			// before its put is on the wire.
			if p := c.pages.m[victim]; p == nil || !p.putting || c.pages.victim() == p {
				h.t.Errorf("page %d in its write-back window: cached %v, a victim again %v; want cached, putting and pinned",
					victim, p != nil, p != nil && c.pages.victim() == p)
			}
			h.victimWaits++
		case 1:
			h.access(id)
			h.windowAccesses++
		}
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

// compare requires the client and the model to cache the same pages with
// the same dirty blocks, none left putting, and the client's list to be
// intact and to agree with the scan.
func (h *evictHarness) compare(step int, op string) {
	h.t.Helper()
	checkLRULocked(h.t, h.c)
	var got, want []uint64
	for id, p := range h.c.pages.m {
		got = append(got, id)
		if mp := h.m.pages[id]; mp != nil && (p.dirty != mp.dirty || p.putting) {
			h.t.Fatalf("step %d (%s): page %d dirty %v putting %v, model dirty %v", step, op, id, p.dirty, p.putting, mp.dirty)
		}
	}
	for id := range h.m.pages {
		want = append(want, id)
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		h.t.Fatalf("step %d (%s): list-evicting client caches %v, scan-evicting model %v", step, op, got, want)
	}
	if st := h.c.stats; st.PutDrops != h.m.drops || st.PutPages != 0 || st.PutBytes != 0 {
		h.t.Fatalf("step %d (%s): PutDrops %d PutPages %d PutBytes %d, want %d, 0 and 0", step, op, st.PutDrops, st.PutPages, st.PutBytes, h.m.drops)
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
// random streams of accesses, pins of each kind, unpins, stores (into
// whole and into partial pages, each dirtying some blocks) and evictions,
// the client with the LRU list must evict exactly the pages the scanning
// evictIfFull evicted, keep the same dirty blocks, and count exactly its
// lost writes — in particular when every page is pinned (overcommit, no
// victim), and in every dirty victim's unlock window, where the victim
// must stay cached and pinned while other accessors use the cache.
func TestEvictionMatchesScanOracle(t *testing.T) {
	var evictions, overcommits, waits, windowAccesses, partial int64
	for seed := int64(1); seed <= 6; seed++ {
		capacity := []int{1, 2, 8, 32}[seed%4]
		t.Run(fmt.Sprintf("seed%d-cap%d", seed, capacity), func(t *testing.T) {
			h := newEvictHarness(t, capacity, seed)
			c, m := h.c, h.m
			r := rand.New(rand.NewSource(seed * 7919))
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
					id = r.Uint64() % h.universe
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
					op = "store"
					p.valid, mp.full = ^memmodel.Bitmap(0), true
					if r.Intn(3) == 0 { // a lazy or Prefetch fault's page
						op = "store partial"
						p.valid = 0xF0 | p.dirty
						mp.full = p.valid.Full()
					}
					// A store dirties valid blocks only: ensureValid runs first.
					blocks := memmodel.Bitmap(r.Uint32()) & p.valid
					if blocks == 0 {
						blocks = p.valid & -p.valid
					}
					p.dirty |= blocks
					mp.dirty |= blocks
					c.route.install([]proto.Placement{{Page: id, Addrs: []string{fmt.Sprintf("victim-%d", id)}}})
				default:
					op = "evict"
					m.evictIfFull()
					c.evictIfFull()
				}
				h.compare(step, op)
			}
			evictions += c.stats.Evictions
			waits += int64(h.victimWaits)
			windowAccesses += int64(h.windowAccesses)
			partial += m.partial
		})
	}
	t.Logf("%d evictions, %d installs with every page pinned, %d accessors finding the victim putting and %d using other pages in the unlock window, %d partial dirty victims written back",
		evictions, overcommits, waits, windowAccesses, partial)
	if evictions == 0 || overcommits == 0 || waits == 0 || windowAccesses == 0 || partial == 0 {
		t.Fatal("the streams never reached an eviction, an all-pinned overcommit, both kinds of access in a dirty victim's unlock window, or a partial dirty victim")
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
