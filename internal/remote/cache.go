package remote

import (
	"time"

	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// The page cache: the client's local memory, with subpage valid bits and an
// exact LRU. fault.go fills its pages; this file decides which stay.

// cpage is one locally cached page. An entry belongs to the client that
// made it for good: the client's free list recycles it, never another
// client, so its timers' callbacks always find it under the lock they take.
type cpage struct {
	id       uint64 // global page number, the cache key
	data     []byte
	valid    memmodel.Bitmap
	touched  memmodel.Bitmap // blocks some access has covered (prefetch history feed)
	dirty    bool
	faulting bool // a fault owns fetching this page, from its first attempt to success or typed failure
	inflight bool // an attempt's GetPage reply is streaming in
	firstOK  bool // the faulted subpage of the current attempt arrived
	waiters  int  // accessors parked in ensureValid on this page
	// sources[:nsrc] are the servers currently streaming this page: the
	// primary, and a second when a hedge is in flight. The attempt fails
	// only when all of them do.
	sources [2]source
	nsrc    int

	// The fault in progress (DESIGN.md §7): the range that faulted, attempts
	// failed so far, the servers they failed on (allocated by the first
	// failure) and the first server tried.
	off, n    int
	attempt   int
	tried     map[string]bool
	firstAddr string
	// The attempt in flight: when it was registered, its primary, the
	// replica a late faulted subpage is hedged to ("" for none, or once
	// hedged), and its generation — a count of attempts ever registered on
	// this entry, by which a sender back from dropping c.mu knows its own.
	start   time.Time
	addr    string
	hedgeTo string
	gen     uint64
	// timeout and hedge run their callbacks on goroutines of their own, so
	// a Stop can lose to a fire under way; a callback acts only if the
	// attempt it finds in flight has itself run that long. Made on first
	// use, recycled with the entry.
	timeout *time.Timer
	hedge   *time.Timer
	// prev and next thread the page onto the cache's LRU list (prev is
	// toward the most recently used end); next also threads the free list.
	// lastUse is the tick of the last touch; ticks are unique, so list
	// order is lastUse order.
	prev    *cpage
	next    *cpage
	lastUse int64
	err     error
}

// pageCache maps page numbers to entries and threads them in lastUse order,
// most recent at lruHead, so eviction never scans. It has no lock of its
// own: it is guarded by Client.mu, together with the fault state the entries
// carry, because the two operations that matter are each one critical
// section across both — a hit is lookup, validity check and copy under one
// lock (60 ns; a second lock would be most of it), and applyBatch is apply
// bytes, advance the attempt and wake the waiters under one.
type pageCache struct {
	m       map[uint64]*cpage
	lruHead *cpage
	lruTail *cpage
	free    *cpage // evicted entries awaiting reuse, threaded through next
	tick    int64
}

func newPageCache() pageCache { return pageCache{m: make(map[uint64]*cpage)} }

func (pc *pageCache) get(page uint64) *cpage { return pc.m[page] }

// install caches a fresh, zeroed entry for page as the most recently used,
// recycling an evicted one when there is one: a client churning through a
// working set larger than its cache allocates page storage and timers once
// per cache slot, not per fault.
func (pc *pageCache) install(page uint64) *cpage {
	p := pc.free
	if p == nil {
		p = &cpage{data: make([]byte, units.PageSize)}
	} else {
		pc.free = p.next
		clear(p.data)
	}
	*p = cpage{id: page, data: p.data, timeout: p.timeout, hedge: p.hedge, gen: p.gen}
	pc.m[page] = p
	pc.touch(p)
	return p
}

// touch stamps p as the most recently used page and moves (or, for a fresh
// entry, adds) it to the head of the LRU list.
func (pc *pageCache) touch(p *cpage) {
	pc.tick++
	p.lastUse = pc.tick
	if pc.lruHead == p {
		return
	}
	if p.prev != nil { // on the list: only the head has no prev
		pc.unlink(p)
	}
	p.next = pc.lruHead
	if pc.lruHead != nil {
		pc.lruHead.prev = p
	} else {
		pc.lruTail = p
	}
	pc.lruHead = p
}

// unlink takes p off the LRU list.
func (pc *pageCache) unlink(p *cpage) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		pc.lruHead = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		pc.lruTail = p.prev
	}
	p.prev, p.next = nil, nil
}

// victim returns the least recently used page that nothing pins — no
// stream, no fault owner, no parked accessor — or nil when every page is
// pinned.
func (pc *pageCache) victim() *cpage {
	p := pc.lruTail
	for p != nil && (p.inflight || p.faulting || p.waiters > 0) {
		p = p.prev
	}
	return p
}

// evictIfFull makes room for one more page. Called with c.mu held; drops
// and retakes it around a dirty victim's write-back.
func (c *Client) evictIfFull() {
	pc := &c.pages
	for len(pc.m) >= c.cfg.CachePages {
		victim := pc.victim()
		if victim == nil {
			return // everything is in flight; allow a brief overcommit
		}
		delete(pc.m, victim.id)
		pc.unlink(victim)
		c.stats.Evictions++
		c.met.evictions.Inc()
		switch {
		case victim.dirty && !victim.valid.Full():
			// A written page that never became fully valid (lazy, Prefetch)
			// has no whole image to put back: its write is lost, counted.
			c.stats.PutDrops++
			c.met.putDrops.Inc()
		case victim.dirty:
			c.mu.Unlock()
			// The cached placement, or a fresh one if a failed attempt forgot it.
			sent := c.putPage(c.locate(victim.id), victim.id, victim.data)
			c.mu.Lock()
			if sent {
				c.stats.PutPages++
				c.met.putPages.Inc()
			} else {
				c.stats.PutDrops++
				c.met.putDrops.Inc()
			}
		}
		// Out of the cache, off the list, unpinned: nothing reaches it again
		// but a timer fire that lost to its Stop, which finds no attempt.
		victim.next, pc.free = pc.free, victim
	}
}
