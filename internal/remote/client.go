package remote

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/obs"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/stats"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// ClientConfig shapes a faulting client.
type ClientConfig struct {
	// Directory is the address of the global cache directory.
	Directory string
	// CachePages is the local memory size in pages (default 64).
	CachePages int
	// SubpageSize is the transfer granularity (default 1024).
	SubpageSize int
	// Policy is one of the proto.Policy* constants (the zero value is
	// fullpage); Dial rejects a byte core's wire-policy table does not hold.
	Policy uint8
	// Readahead prefetches page p+1 when a fault on p follows a fault
	// on p-1 — client-driven sequential prefetch, an extension beyond
	// the paper's sender-side pipelining.
	Readahead bool
	// Prefetch enables the learned prefetcher (core.Prefetcher): the
	// client feeds its access stream into a Leap-style stride detector,
	// and each fault's want bitmap carries the predicted window alongside
	// the accessed range. The wire policy is forced to lazy so the server
	// ships exactly the requested blocks — predictions ride the existing
	// want bitmap, no new wire tags.
	Prefetch bool

	// Resilience knobs (see DESIGN.md §7). The paper's prototype assumed
	// a lossless, always-up AN2 network; these are what replace that
	// assumption on real networks.

	// DialTimeout bounds each directory or server dial (default 1s).
	DialTimeout time.Duration
	// RequestTimeout bounds each directory lookup RPC and each GetPage
	// stream attempt (default 2s). A stream that has not completed when
	// it expires counts as a failed attempt and is retried.
	RequestTimeout time.Duration
	// MaxRetries is how many times a failed fault or lookup is retried
	// beyond the first attempt (default 3; negative disables retries).
	// When retries are exhausted the access fails with a *PageError
	// matching ErrPageUnavailable instead of hanging.
	MaxRetries int
	// RetryBackoff is the base delay between retries, doubled per
	// attempt with ±50% jitter and capped at 500ms (default 10ms).
	RetryBackoff time.Duration
	// Hedge, when positive, sends a duplicate GetPage to a replica if
	// the faulted subpage has not arrived after this delay — trading
	// bandwidth for tail latency, as disaggregated-memory systems do.
	Hedge time.Duration
	// BreakerThreshold opens a per-server circuit breaker after this many
	// consecutive failed attempts on that server (default 3; negative
	// disables the breaker). An open server is skipped by replica picking
	// and hedging until a half-open probe succeeds, so a dead node costs
	// one timeout, not one per fault. When every replica is open, one is
	// force-picked anyway — the breaker sheds load, it never strands a
	// page.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker shuns its server before
	// letting a single half-open probe through (default 1s).
	BreakerCooldown time.Duration
	// Dial overrides the network dialer (chaos injection, tests).
	Dial func(network, addr string) (net.Conn, error)

	// Metrics, when non-nil, registers the client's gms_client_* metrics
	// there. Nil (the default) disables metrics at zero hot-path cost.
	Metrics *obs.Registry
}

const maxBackoff = 500 * time.Millisecond

func (c ClientConfig) withDefaults() ClientConfig {
	if c.CachePages == 0 {
		c.CachePages = 64
	}
	if c.SubpageSize == 0 {
		c.SubpageSize = 1024
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = time.Second
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	} else if c.BreakerThreshold < 0 {
		c.BreakerThreshold = 0 // disabled
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = time.Second
	}
	return c
}

// Stats is a snapshot of a client's counters.
type Stats struct {
	Faults     int64
	Prefetches int64
	Evictions  int64
	PutPages   int64
	PutDrops   int64 // dirty evictions that found no replica to write back to: the page is lost
	BytesIn    int64
	Retries    int64         // fault or lookup attempts beyond the first
	Failovers  int64         // retries redirected to a different replica
	Hedges     int64         // duplicate GetPages sent to mask a slow primary
	Cancels    int64         // cancel frames sent to withdraw superseded requests
	Predicted  int64         // fault attempts whose want bitmap carried prefetch predictions
	SubpageLat stats.Summary // fault -> faulted-subpage arrival
	FullLat    stats.Summary // fault -> complete page arrival

	// Sharded-directory observability: lookups bounced by a shard that
	// did not own the page (each bounce also delivers the current map),
	// and shard maps installed (the bootstrap fetch plus every refresh a
	// bounce carried). See DESIGN.md §9.
	WrongShard   int64
	MapRefreshes int64

	// Circuit-breaker observability (see ClientConfig.BreakerThreshold).
	// These are maintained under the same lock as every other field, so a
	// Stats() snapshot is one coherent cut: BreakerOpens can never run
	// ahead of the Retries/Failovers that implied it.
	BreakerOpens  int64 // breakers tripped (closed -> open transitions)
	BreakerProbes int64 // half-open probes granted after a cooldown
	OpenBreakers  int   // servers currently shunned (open or half-open)
}

// source is one server streaming a page's current attempt, with its
// request ID. A withdrawn source is also the TCancel owed to that server,
// sent once c.mu is released (sending under the lock would hold every
// accessor behind one peer's socket).
type source struct {
	addr string
	id   uint64
}

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
	prefetch bool // the fault is a read-ahead, not an accessor's
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
	// prev and next thread the page onto the client's LRU list (prev is
	// toward the most recently used end); next also threads the free list.
	// lastUse is the tick of the last touch; ticks are unique, so list
	// order is lastUse order.
	prev    *cpage
	next    *cpage
	lastUse int64
	err     error
}

// dropSource forgets addr as a source of p, reporting the request ID it
// held and whether it was a source at all.
func (p *cpage) dropSource(addr string) (id uint64, ok bool) {
	for i, src := range p.sources[:p.nsrc] {
		if src.addr == addr {
			p.nsrc--
			p.sources[i] = p.sources[p.nsrc]
			return src.id, true
		}
	}
	return 0, false
}

// install caches a fresh, zeroed entry for page as the most recently used,
// recycling an evicted one when there is one: a client churning through a
// working set larger than its cache allocates page storage and timers once
// per cache slot, not per fault. Called with c.mu held.
func (c *Client) install(page uint64) *cpage {
	p := c.free
	if p == nil {
		p = &cpage{data: make([]byte, units.PageSize)}
	} else {
		c.free = p.next
		clear(p.data)
	}
	*p = cpage{id: page, data: p.data, timeout: p.timeout, hedge: p.hedge, gen: p.gen}
	c.cache[page] = p
	c.touch(p)
	return p
}

// touch stamps p as the most recently used page and moves (or, for a fresh
// entry, adds) it to the head of the LRU list. Called with c.mu held.
func (c *Client) touch(p *cpage) {
	c.tick++
	p.lastUse = c.tick
	if c.lruHead == p {
		return
	}
	if p.prev != nil { // on the list: only the head has no prev
		c.unlink(p)
	}
	p.next = c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = p
	} else {
		c.lruTail = p
	}
	c.lruHead = p
}

// unlink takes p off the LRU list. Called with c.mu held.
func (c *Client) unlink(p *cpage) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		c.lruHead = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		c.lruTail = p.prev
	}
	p.prev, p.next = nil, nil
}

// reqEntry ties a live request ID to the page attempt it serves.
type reqEntry struct {
	p    *cpage
	addr string
}

// regRequest mints and registers a request ID for an attempt on p served
// by addr. Called with c.mu held.
func (c *Client) regRequest(p *cpage, addr string) uint64 {
	c.nextReq++
	id := c.nextReq
	c.reqs[id] = reqEntry{p: p, addr: addr}
	return id
}

// wantFor computes the want bitmap for an attempt of p's fault.
// Full-coverage policies ask for everything still missing. Lazy asks only
// for the accessed range — the want bitmap is now a request the server
// honors beyond its plan, so over-asking would silently turn lazy into
// eager. With the learned prefetcher on, the predicted stride window rides
// alongside the accessed range. Called with c.mu held.
func (c *Client) wantFor(p *cpage) uint32 {
	off, n := p.off, p.n
	miss := ^p.valid
	if c.pf != nil {
		want := neededMask(off, n)
		if m, ok := c.pf.Predict(p.id, c.cfg.SubpageSize, off); ok {
			want |= m
			c.stats.Predicted++
		}
		if want &= miss; want == 0 {
			want = memmodel.BlockMask(off)
		}
		return uint32(want)
	}
	if c.cfg.Policy == proto.PolicyLazy {
		if want := neededMask(off, n) & miss; want != 0 {
			return uint32(want)
		}
		return uint32(memmodel.BlockMask(off))
	}
	return uint32(miss)
}

// sendCancels writes the queued TCancel frames. A server we no longer
// hold a connection to needs no cancel — its stream died with the
// connection.
func (c *Client) sendCancels(cancels []source) {
	for _, pc := range cancels {
		c.srvMu.Lock()
		sc := c.servers[pc.addr]
		c.srvMu.Unlock()
		if sc == nil {
			continue
		}
		sc.wmu.Lock()
		_ = sc.conn.SetWriteDeadline(time.Now().Add(c.cfg.RequestTimeout))
		_ = sc.w.SendCancel(proto.Cancel{ReqID: pc.id}) //lint:allow lockio write is bounded by the deadline above; wmu only serializes writers on this conn
		_ = sc.conn.SetWriteDeadline(time.Time{})
		sc.wmu.Unlock()
	}
}

// srvConn is a connection to one page server, with a background reader.
type srvConn struct {
	conn net.Conn
	wmu  sync.Mutex
	w    *proto.Writer
}

// Client is the faulting node: a fixed-size page cache with subpage valid
// bits, backed by remote page servers found through the directory. Faults
// run under per-attempt deadlines with retry, replica failover and
// optional hedging; a page no server can deliver fails with a *PageError
// instead of wedging the client.
type Client struct {
	cfg ClientConfig

	mu    sync.Mutex
	cond  *sync.Cond
	cache map[uint64]*cpage
	// lruHead and lruTail thread every cached page in lastUse order, most
	// recent at the head, so eviction never scans the cache.
	lruHead *cpage
	lruTail *cpage
	free    *cpage              // evicted entries awaiting reuse, threaded through next
	located map[uint64][]string // directory answers: replica lists, primary first
	tick    int64
	stats   Stats
	closed  bool
	netErr  error
	// pf is the learned prefetcher (nil unless ClientConfig.Prefetch).
	// All access — Record on first touches, Predict when building want
	// bitmaps — happens under c.mu; the Prefetcher itself is not
	// thread-safe.
	pf *core.Prefetcher

	// Request-ID pipelining (under c.mu): nextReq mints IDs, reqs maps
	// a live ID to the page it is fetching. A TSubpageBatch whose ID is
	// not here is stale — a canceled hedge or a timed-out attempt still
	// draining — and applies its (correct) bytes without touching the
	// attempt signaling, so superseded streams can never skew SubpageLat
	// or complete a newer attempt.
	nextReq uint64
	reqs    map[uint64]reqEntry

	closeCh chan struct{} // closed once on Close; unblocks sleeps and waits

	// Control-plane connections, one per directory shard (a single entry,
	// the bootstrap address, when the deployment is unsharded). Lookups to
	// different shards proceed concurrently; each shard's stream
	// serializes its own RPCs.
	dconnMu sync.Mutex
	dconns  map[string]*dirConn

	// Shard-map cache. ring is nil while the deployment looks unsharded
	// (every lookup goes to the bootstrap address); once a sharded map is
	// installed — by the bootstrap fetch or by a TWrongShard bounce —
	// lookups route by ring ownership, and any newer map in a bounce
	// replaces the ring (stale maps converge in one extra round trip).
	shardMu  sync.Mutex
	ring     *proto.Ring
	mapTried bool // the bootstrap shard-map fetch already ran

	srvMu   sync.Mutex
	servers map[string]*srvConn

	// br is the per-server circuit breaker consulted by replica picking
	// and hedging; it has its own lock and is never touched under c.mu.
	// Its transitions are reported back through return values and counted
	// into c.stats under c.mu (see breaker).
	br *breaker

	// met holds the gms_client_* metric handles (all nil-safe no-ops when
	// ClientConfig.Metrics is nil).
	met clientMetrics

	// jmu guards jrand, the client's own seeded jitter source: backoff
	// jitter must not contend on (or correlate through) the process-wide
	// math/rand state shared with every other client in the process.
	jmu   sync.Mutex
	jrand *rand.Rand

	wg sync.WaitGroup
}

// Dial connects a client to the directory.
func Dial(cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	if !units.ValidSubpageSize(cfg.SubpageSize) {
		return nil, fmt.Errorf("remote: invalid subpage size %d", cfg.SubpageSize)
	}
	if cfg.Prefetch {
		// Predictions select content through the want bitmap; the lazy
		// wire policy hands the server no plan of its own to fight them.
		cfg.Policy = proto.PolicyLazy
	}
	// A byte the wire does not carry would otherwise surface only as the
	// server's TError, after every access had burnt its retry budget.
	if _, err := core.WirePolicy(cfg.Policy); err != nil {
		return nil, fmt.Errorf("remote: %w", err)
	}
	c := &Client{
		cfg:     cfg,
		cache:   make(map[uint64]*cpage),
		located: make(map[uint64][]string),
		reqs:    make(map[uint64]reqEntry),
		servers: make(map[string]*srvConn),
		closeCh: make(chan struct{}),
		// Seeded from the wall clock so a fleet of clients restarting
		// together still jitters apart; backoff jitter needs spread, not
		// reproducibility.
		jrand: rand.New(rand.NewSource(time.Now().UnixNano())), //lint:allow simpurity jitter seed wants real-time entropy, not determinism
		br:    newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
		met:   newClientMetrics(cfg.Metrics),
	}
	if cfg.Prefetch {
		c.pf = core.NewPrefetcher()
	}
	conn, err := c.dial(cfg.Directory)
	if err != nil {
		return nil, fmt.Errorf("remote: dial directory: %w", err)
	}
	c.dconns = map[string]*dirConn{cfg.Directory: newDirConn(cfg.Directory, conn)}
	c.cond = sync.NewCond(&c.mu)
	return c, nil
}

// dial opens one connection under the configured dialer and timeout.
func (c *Client) dial(addr string) (net.Conn, error) {
	if c.cfg.Dial != nil {
		return c.cfg.Dial("tcp", addr)
	}
	return net.DialTimeout("tcp", addr, c.cfg.DialTimeout)
}

// Close tears the client down. Dirty pages are not written back.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.netErr = errClientClosed
	close(c.closeCh)
	// Attempts in flight have nobody parked on them to unwind: settle them
	// here, so no timer is left to fire into a closed client. (No cancels
	// go out: the connections close below.)
	for _, p := range c.cache {
		if p.inflight {
			c.stopAttempt(p)
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()

	var err error
	c.dconnMu.Lock()
	for _, dc := range c.dconns {
		if e := dc.drop(); e != nil && err == nil {
			err = e
		}
	}
	c.dconnMu.Unlock()
	c.srvMu.Lock()
	for _, sc := range c.servers {
		_ = sc.conn.Close()
	}
	c.srvMu.Unlock()
	c.wg.Wait()
	return err
}

// Stats returns a snapshot of the client's counters. The snapshot is one
// critical section on c.mu, so it is internally consistent: every counter
// in it reflects the same prefix of the client's history.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Read copies len(buf) bytes at the global address addr into buf, faulting
// in any missing subpages.
func (c *Client) Read(buf []byte, addr uint64) error {
	return c.access(buf, addr, false)
}

// Write stores buf at the global address addr (write-allocate: missing
// subpages are fetched first). Dirty pages are written back on eviction.
func (c *Client) Write(buf []byte, addr uint64) error {
	return c.access(buf, addr, true)
}

func (c *Client) access(buf []byte, addr uint64, store bool) error {
	for len(buf) > 0 {
		page := addr / units.PageSize
		off := int(addr % units.PageSize)
		n := units.PageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		if err := c.accessPage(buf[:n], page, off, store); err != nil {
			return err
		}
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

func (c *Client) accessPage(buf []byte, page uint64, off int, store bool) error {
	c.mu.Lock()
	p, err := c.ensureValid(page, off, len(buf))
	if err == nil {
		// Still the critical section ensureValid validated p in.
		if store {
			copy(p.data[off:], buf)
			p.dirty = true
		} else {
			copy(buf, p.data[off:off+len(buf)])
		}
	}
	c.mu.Unlock()
	return err
}

// neededMask returns the valid bits covering [off, off+n).
func neededMask(off, n int) memmodel.Bitmap {
	var m memmodel.Bitmap
	for b := off / units.MinSubpage; b <= (off+n-1)/units.MinSubpage; b++ {
		m |= 1 << b
	}
	return m
}

// ensureValid blocks until the byte range is locally valid, issuing a
// remote fault if necessary. Called with c.mu held.
func (c *Client) ensureValid(page uint64, off, n int) (*cpage, error) {
	if n <= 0 || off+n > units.PageSize {
		return nil, fmt.Errorf("remote: bad range off=%d n=%d", off, n)
	}
	p := c.cache[page]
	if p == nil {
		// evictIfFull may drop the lock for write-back; another
		// goroutine can install the page meanwhile.
		c.evictIfFull()
		p = c.cache[page]
	}
	if p == nil {
		p = c.install(page)
	} else {
		c.touch(p)
	}
	need := neededMask(off, n)
	if c.pf != nil {
		// Feed the detector the access stream, not the fault stream: a
		// correct prediction suppresses the fault it covered, and a
		// history fed only by faults would starve itself of the very
		// pattern it learned. First touch of any block keeps repeated
		// accesses from flooding the delta ring.
		if need&^p.touched != 0 {
			p.touched |= need
			c.pf.Record(page, off)
		}
	}
	for {
		if c.netErr != nil {
			return nil, c.netErr
		}
		if p.err != nil {
			err := p.err
			p.err = nil
			return nil, err
		}
		if p.valid.HasAll(need) {
			// A hit pins nothing: c.mu stays held from the lookup (or the
			// wait's return) through the caller's copy, so nothing evicts.
			return p, nil
		}
		// About to let go of c.mu (in cond.Wait, around the send, or in the
		// read-ahead's eviction window): park as a waiter, which evictIfFull
		// never evicts.
		p.waiters++
		if !p.inflight && !p.faulting {
			// This accessor takes the fault and sends its first attempt
			// itself. The lock is dropped around the send, so the reply can
			// land — and broadcast — before it is retaken: go round and
			// look at the page again, never straight into Wait.
			c.stats.Faults++
			c.met.faults.Inc()
			c.beginFault(p, off, n, false)
			c.runAttempt(p)
			if c.cfg.Readahead {
				c.maybePrefetch(page)
			}
		} else {
			c.cond.Wait()
		}
		p.waiters--
	}
}

// maybePrefetch issues a read-ahead fault for page+1 when the fault on
// page continued a forward run. The read-ahead's attempt is sent from a
// goroutine of its own, off the accessor's path. Called with c.mu held.
func (c *Client) maybePrefetch(page uint64) {
	if _, ok := c.cache[page-1]; !ok {
		return
	}
	next := page + 1
	if c.cache[next] != nil {
		return
	}
	c.evictIfFull()
	if c.cache[next] != nil || c.closed {
		return // both can change while evictIfFull (or the demand send before it) has c.mu dropped
	}
	p := c.install(next)
	c.stats.Prefetches++
	c.met.prefetches.Inc()
	c.beginFault(p, 0, units.PageSize, true)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.mu.Lock()
		c.runAttempt(p)
		c.mu.Unlock()
	}()
}

// The fault engine (DESIGN.md §7). A fault is a run of attempts on one page,
// and nothing is parked on it. Whoever takes the fault — the accessor, or a
// goroutine for a read-ahead — sends the first attempt itself (runAttempt);
// an attempt ends as an event: the reply's last batch, the loss of its last
// source, its deadline. Success ends the fault on the spot; failure hands it
// to a goroutine that lives for the bookkeeping, the backoff and the next
// send (retry). Accessors only ever wait on the condition variable.

// beginFault makes p the subject of a new fault on [off, off+n). Called
// with c.mu held, on a page with no fault in progress.
func (c *Client) beginFault(p *cpage, off, n int, prefetch bool) {
	p.faulting, p.prefetch = true, prefetch
	p.off, p.n = off, n
	p.attempt, p.tried, p.firstAddr = 0, nil, ""
}

// endFault is the fault's epilogue: p is released, a failure is left for
// the next accessor to collect, and everyone parked on the page looks
// again. Called with c.mu held.
func (c *Client) endFault(p *cpage, err error) {
	p.faulting = false
	if err != nil && !c.closed {
		p.err = err
		if p.prefetch && c.cache[p.id] == p && p.valid == 0 && !p.dirty {
			// Best effort: forget the untouched placeholder so a later
			// demand access retries cleanly.
			delete(c.cache, p.id)
			c.unlink(p)
		}
	}
	c.cond.Broadcast()
}

// runAttempt sends the current attempt of p's fault: locate (the cached
// answer at first, a fresh one after a failure), pick a replica, register
// the request, send it, arm the deadline and the hedge. Called with c.mu
// held and returns with it held, but drops it around the directory, the
// breaker and the socket: by the time it returns, the attempt — or the whole
// fault — may be over.
func (c *Client) runAttempt(p *cpage) {
	attempt, tried := p.attempt, p.tried
	addrs := c.located[p.id] // retry forgot it after a failure
	c.mu.Unlock()
	var err error
	if addrs == nil {
		addrs, err = c.locate(p.id, true)
	}
	var addr, hedgeTo string
	if err == nil {
		addr = c.pickAddr(addrs, tried, attempt)
		if c.cfg.Hedge > 0 {
			hedgeTo = c.hedgeAddr(addrs, addr)
		}
	}
	c.mu.Lock()
	if err == nil && c.closed {
		err = errClientClosed
	}
	if err != nil {
		var pe *PageError
		if errors.As(err, &pe) || errors.Is(err, errClientClosed) {
			c.endFault(p, err) // authoritative miss or shutdown: retrying cannot help
		} else {
			c.attemptFailed(p, "", err)
		}
		return
	}
	if p.firstAddr == "" {
		p.firstAddr = addr
	} else if addr != p.firstAddr {
		c.stats.Failovers++
		c.met.failovers.Inc()
	}
	p.inflight, p.firstOK = true, false
	p.addr, p.hedgeTo = addr, hedgeTo
	p.gen++
	gen := p.gen
	id := c.regRequest(p, addr)
	want := c.wantFor(p)
	p.sources[0], p.nsrc = source{addr, id}, 1
	p.start = time.Now()
	page, off := p.id, p.off
	c.mu.Unlock()

	err = c.sendGet(addr, page, off, id, want)

	c.mu.Lock()
	if !p.inflight || p.gen != gen {
		return // the reply, or the connection's loss, beat the send's return
	}
	if err != nil {
		c.attemptFailed(p, addr, err)
		return
	}
	if p.timeout == nil {
		p.timeout = time.AfterFunc(c.cfg.RequestTimeout, func() { c.attemptTimedOut(p) })
	} else {
		p.timeout.Reset(c.cfg.RequestTimeout)
	}
	if hedgeTo == "" || p.firstOK {
		return
	}
	if p.hedge == nil {
		p.hedge = time.AfterFunc(c.cfg.Hedge, func() { c.hedgeDue(p) })
	} else {
		p.hedge.Reset(c.cfg.Hedge)
	}
}

// stopAttempt settles the attempt in flight on p: its timers are stopped
// and every source still registered is retired, returning the cancel
// frames to send (after unlocking) for streams that may still be live
// server-side. Called with c.mu held.
func (c *Client) stopAttempt(p *cpage) (cancels []source) {
	p.inflight = false
	if p.timeout != nil {
		p.timeout.Stop()
	}
	if p.hedge != nil {
		p.hedge.Stop()
	}
	for _, src := range p.sources[:p.nsrc] {
		delete(c.reqs, src.id)
		cancels = append(cancels, src)
		c.stats.Cancels++
		c.met.cancels.Inc()
	}
	p.nsrc = 0
	return cancels
}

// attemptFailed ends the attempt in flight on p, if any (addr is its
// primary; "" means the directory, not a server, failed it), and hands the
// fault to a goroutine for the retry. Called with c.mu held.
func (c *Client) attemptFailed(p *cpage, addr string, cause error) {
	cancels := c.stopAttempt(p)
	if c.closed {
		c.endFault(p, errClientClosed)
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.sendCancels(cancels)
		c.retry(p, addr, cause)
	}()
}

// retry owns p's fault from one attempt's failure to the next one's send:
// it books the failure against the server and the breaker, gives up with a
// typed error once the budget is spent, and otherwise backs off and sends
// again — without waiting for that attempt, whose end is an event too.
func (c *Client) retry(p *cpage, addr string, cause error) {
	opened := addr != "" && c.br.failure(addr, time.Now())
	c.mu.Lock()
	if addr != "" {
		if p.tried == nil {
			p.tried = make(map[string]bool)
		}
		p.tried[addr] = true
		delete(c.located, p.id) // the failure may mean the cached placement is stale
	}
	if opened {
		c.stats.BreakerOpens++
		c.stats.OpenBreakers++
		c.met.breakerOpens.Inc()
		c.met.openBreakers.Add(1)
	}
	p.attempt++
	attempt := p.attempt
	if attempt > c.cfg.MaxRetries {
		c.endFault(p, &PageError{Page: p.id, Attempts: attempt, Err: cause})
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	slept := c.sleep(c.backoffDelay(attempt))
	c.mu.Lock()
	if !slept {
		c.endFault(p, errClientClosed)
	} else {
		c.stats.Retries++
		c.met.retries.Inc()
		c.runAttempt(p)
	}
	c.mu.Unlock()
}

// attemptTimedOut is the deadline timer's callback, on the timer's own
// goroutine. The server accepted the request but never finished the stream:
// its connection is suspect (stalled or wedged), so drop it and let the
// retry redial or fail over.
func (c *Client) attemptTimedOut(p *cpage) {
	c.mu.Lock()
	if c.closed || !p.inflight || time.Since(p.start) < c.cfg.RequestTimeout {
		c.mu.Unlock()
		return // a fire its Stop lost to: that attempt is over, and the one in flight (if any) is younger
	}
	addr := p.addr
	cause := fmt.Errorf("remote: GetPage %d from %s timed out after %v",
		p.id, addr, c.cfg.RequestTimeout)
	cancels := c.stopAttempt(p)
	c.wg.Add(1)
	c.mu.Unlock()
	defer c.wg.Done()
	c.sendCancels(cancels)
	c.dropServer(addr, cause)
	c.retry(p, addr, cause)
}

// hedgeDue is the hedge timer's callback: the faulted subpage is late, so
// a duplicate request goes to the replica picked with the primary. The
// attempt succeeds when either stream completes.
func (c *Client) hedgeDue(p *cpage) {
	c.mu.Lock()
	if c.closed || !p.inflight || p.firstOK || p.hedgeTo == "" || time.Since(p.start) < c.cfg.Hedge {
		c.mu.Unlock()
		return
	}
	gen, hedge := p.gen, p.hedgeTo
	p.hedgeTo = ""
	id := c.regRequest(p, hedge)
	want := c.wantFor(p)
	p.sources[p.nsrc] = source{hedge, id}
	p.nsrc++
	c.stats.Hedges++
	c.met.hedges.Inc()
	page, off := p.id, p.off
	c.wg.Add(1)
	c.mu.Unlock()
	defer c.wg.Done()
	if err := c.sendGet(hedge, page, off, id, want); err != nil {
		// The hedge could not even be sent; the primary stream (or the
		// timeout) still decides the attempt.
		c.mu.Lock()
		if p.inflight && p.gen == gen {
			p.dropSource(hedge)
		}
		delete(c.reqs, id)
		c.mu.Unlock()
	}
}

// breakerSuccess books a completed attempt on addr with the breaker, after
// c.mu is released (c.br is never touched under it).
func (c *Client) breakerSuccess(addr string) {
	if c.br.success(addr) {
		c.mu.Lock()
		c.stats.OpenBreakers--
		c.mu.Unlock()
		c.met.openBreakers.Add(-1)
	}
}

// pickAddr chooses the next replica to try: the first address not yet
// tried, or round-robin over the list once all have failed at least once —
// skipping servers whose circuit breaker denies traffic. When every
// candidate is denied the preferred one is force-picked anyway: the
// breaker sheds load but never strands a fault.
func (c *Client) pickAddr(addrs []string, tried map[string]bool, attempt int) string {
	now := time.Now()
	preferred := ""
	// Candidates: each untried address, then the round-robin one, tried or not.
	for i := 0; i <= len(addrs); i++ {
		a := addrs[attempt%len(addrs)]
		if i < len(addrs) {
			if a = addrs[i]; tried[a] {
				continue
			}
		}
		if preferred == "" {
			preferred = a
		}
		ok, probe := c.br.allow(a, now)
		if !ok {
			continue
		}
		if probe {
			c.mu.Lock()
			c.stats.BreakerProbes++
			c.mu.Unlock()
			c.met.breakerProbes.Inc()
		}
		return a
	}
	return preferred
}

// hedgeAddr returns a replica distinct from the primary pick whose breaker
// is closed, or "": hedging to a server already known bad would waste the
// bandwidth the hedge is spending.
func (c *Client) hedgeAddr(addrs []string, primary string) string {
	for _, a := range addrs {
		if a != primary && c.br.wouldAllow(a) {
			return a
		}
	}
	return ""
}

// sendGet writes one page request to addr under a write deadline, so a
// stalled connection cannot wedge the fault path. id and want are the
// request ID and missing-block bitmap.
func (c *Client) sendGet(addr string, page uint64, off int, id uint64, want uint32) error {
	sc, err := c.server(addr)
	if err != nil {
		return err
	}
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	_ = sc.conn.SetWriteDeadline(time.Now().Add(c.cfg.RequestTimeout))
	defer sc.conn.SetWriteDeadline(time.Time{})
	return sc.w.SendGetPageV2(proto.GetPageV2{ //lint:allow lockio write is bounded by the deadline above; wmu only serializes writers on this conn
		ReqID:       id,
		Page:        page,
		FaultOff:    uint32(off),
		SubpageSize: uint32(c.cfg.SubpageSize),
		Want:        want,
		Policy:      c.cfg.Policy,
	})
}

// backoffDelay returns the jittered exponential backoff before retry n
// (1-based): base×2^(n-1), capped, with ±50% jitter so a fleet of clients
// retrying after a shared failure does not stampede in lockstep.
func (c *Client) backoffDelay(n int) time.Duration {
	d := c.cfg.RetryBackoff
	for i := 1; i < n && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	half := int64(d) / 2
	if half <= 0 {
		return d
	}
	c.jmu.Lock()
	j := c.jrand.Int63n(half + 1)
	c.jmu.Unlock()
	return time.Duration(half + j)
}

// sleep waits for d or until the client closes, reporting true if the full
// delay elapsed.
func (c *Client) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.closeCh:
		return false
	}
}

// victim returns the least recently used page that nothing pins — no
// stream, no fault owner, no parked accessor — or nil when every page is
// pinned. Called with c.mu held.
func (c *Client) victim() *cpage {
	p := c.lruTail
	for p != nil && (p.inflight || p.faulting || p.waiters > 0) {
		p = p.prev
	}
	return p
}

// evictIfFull makes room for one more page. Called with c.mu held; drops
// and retakes it around a dirty victim's write-back.
func (c *Client) evictIfFull() {
	for len(c.cache) >= c.cfg.CachePages {
		victim := c.victim()
		if victim == nil {
			return // everything is in flight; allow a brief overcommit
		}
		delete(c.cache, victim.id)
		c.unlink(victim)
		c.stats.Evictions++
		c.met.evictions.Inc()
		if victim.dirty && victim.valid.Full() {
			c.mu.Unlock()
			// The cached placement, or a fresh one if a failed attempt forgot it.
			addrs, _ := c.locate(victim.id, false)
			sent := c.putPage(addrs, victim.id, victim.data)
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
		victim.next, c.free = c.free, victim
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
		sc.wmu.Lock()
		_ = sc.conn.SetWriteDeadline(time.Now().Add(c.cfg.RequestTimeout))
		err = sc.w.SendPutPage(proto.PutPage{Page: page, Data: data}) //lint:allow lockio write is bounded by the deadline above; wmu only serializes writers on this conn
		_ = sc.conn.SetWriteDeadline(time.Time{})
		sc.wmu.Unlock()
		if err == nil {
			return true
		}
	}
	return false
}

// locate resolves the replica list for page via the directory, with a
// local cache of past answers. refresh forces a fresh directory query.
// Lookup RPCs run under the request deadline; a dead shard connection is
// redialed with backoff up to the retry budget. A TWrongShard bounce
// (stale shard map) installs the bounced map and re-routes within the
// same attempt, so a stale client converges in one extra round trip
// without burning its retry budget.
func (c *Client) locate(page uint64, refresh bool) ([]string, error) {
	if !refresh {
		c.mu.Lock()
		if addrs, ok := c.located[page]; ok {
			c.mu.Unlock()
			return addrs, nil
		}
		c.mu.Unlock()
	}

	var lastErr error
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			if !c.sleep(c.backoffDelay(attempt)) {
				return nil, errClientClosed
			}
			c.mu.Lock()
			c.stats.Retries++
			c.mu.Unlock()
			c.met.retries.Inc()
		}
		select {
		case <-c.closeCh:
			return nil, errClientClosed
		default:
		}
		rep, err := c.lookupRouted(page)
		if err != nil {
			lastErr = err
			continue
		}
		if len(rep.Addrs) == 0 {
			return nil, &PageError{Page: page, Attempts: attempt + 1, Err: errNotRegistered}
		}
		c.mu.Lock()
		c.located[page] = rep.Addrs
		c.mu.Unlock()
		return rep.Addrs, nil
	}
	return nil, fmt.Errorf("remote: directory lookup for page %d: %w", page, lastErr)
}

// lookupRouted sends one lookup to the shard the current map names,
// following at most one TWrongShard forward: the bounce carries the
// authoritative map, so the second hop must land (a second bounce means
// the shards themselves disagree, which the caller treats as a failed
// attempt).
func (c *Client) lookupRouted(page uint64) (proto.LookupReply, error) {
	addr := c.shardFor(page)
	rep, err := c.lookupAt(addr, page)
	var ws *WrongShardError
	if !errors.As(err, &ws) {
		return rep, err
	}
	c.bounced(ws)
	next := c.shardFor(page)
	if next == addr {
		// The bounced map still routes here: map and shard disagree.
		return proto.LookupReply{}, err
	}
	rep, err = c.lookupAt(next, page)
	if errors.As(err, &ws) {
		c.bounced(ws)
	}
	return rep, err
}

// bounced accounts a TWrongShard reply and installs the map it carried.
func (c *Client) bounced(ws *WrongShardError) {
	c.mu.Lock()
	c.stats.WrongShard++
	c.mu.Unlock()
	c.met.wrongShard.Inc()
	c.installMap(ws.Map)
}

// shardFor names the directory shard owning page: the ring owner once a
// sharded map is installed, the bootstrap address before then. The first
// call fetches the map from the bootstrap directory; an unsharded
// deployment answers with the empty map and the client stays in
// single-directory mode at zero per-lookup cost.
func (c *Client) shardFor(page uint64) string {
	c.shardMu.Lock()
	ring, tried := c.ring, c.mapTried
	c.shardMu.Unlock()
	if ring == nil && !tried {
		c.fetchShardMap()
		c.shardMu.Lock()
		ring = c.ring
		c.shardMu.Unlock()
	}
	if ring == nil {
		return c.cfg.Directory
	}
	return ring.OwnerAddr(page)
}

// fetchShardMap asks the bootstrap directory for the shard map, once.
// Failure is not fatal: lookups proceed against the bootstrap address and
// the fetch re-arms, so a directory that was briefly unreachable still
// gets to announce its sharding.
func (c *Client) fetchShardMap() {
	dc := c.dirConnFor(c.cfg.Directory)
	m, err := dc.shardMapRPC(c)
	if err != nil {
		return
	}
	c.shardMu.Lock()
	c.mapTried = true
	c.shardMu.Unlock()
	c.installMap(m)
}

// installMap adopts m if it is sharded and newer than the map in use.
func (c *Client) installMap(m proto.ShardMap) {
	if !m.Sharded() {
		return
	}
	c.shardMu.Lock()
	if c.ring != nil && m.Version <= c.ring.Map().Version {
		c.shardMu.Unlock()
		return
	}
	c.ring = proto.NewRing(m)
	c.shardMu.Unlock()
	c.mu.Lock()
	c.stats.MapRefreshes++
	c.mu.Unlock()
	c.met.mapRefreshes.Inc()
}

// dirConnFor returns (creating if needed) the control-plane connection
// slot for the directory shard at addr. The slot dials lazily.
func (c *Client) dirConnFor(addr string) *dirConn {
	c.dconnMu.Lock()
	defer c.dconnMu.Unlock()
	dc := c.dconns[addr]
	if dc == nil {
		dc = newDirConn(addr, nil)
		c.dconns[addr] = dc
	}
	return dc
}

// lookupAt performs one lookup RPC against the shard at addr. A transport
// failure drops the shard connection so the next attempt redials.
func (c *Client) lookupAt(addr string, page uint64) (proto.LookupReply, error) {
	dc := c.dirConnFor(addr)
	rep, err := dc.lookupRPC(c, page)
	var ws *WrongShardError
	if err != nil && !errors.As(err, &ws) {
		_ = dc.drop()
	}
	return rep, err
}

// dirConn is the client's control-plane stream to one directory shard.
// rpc serializes request/reply exchanges; ptr guards the connection
// pointers so drop can race an in-flight dial safely.
type dirConn struct {
	addr string
	rpc  sync.Mutex
	ptr  sync.Mutex
	conn net.Conn
	w    *proto.Writer
	r    *proto.Reader
}

func newDirConn(addr string, conn net.Conn) *dirConn {
	dc := &dirConn{addr: addr}
	if conn != nil {
		dc.conn = conn
		dc.w = proto.NewWriter(conn)
		dc.r = proto.NewReader(conn)
	}
	return dc
}

// ensure (re)dials the shard if there is no live connection. Called with
// dc.rpc held.
func (dc *dirConn) ensure(c *Client) error {
	dc.ptr.Lock()
	have := dc.conn != nil
	dc.ptr.Unlock()
	if have {
		return nil
	}
	conn, err := c.dial(dc.addr)
	if err != nil {
		return fmt.Errorf("remote: dial directory shard %s: %w", dc.addr, err)
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		_ = conn.Close()
		return errClientClosed
	}
	dc.ptr.Lock()
	dc.conn = conn
	dc.w = proto.NewWriter(conn)
	dc.r = proto.NewReader(conn)
	dc.ptr.Unlock()
	return nil
}

// drop severs the connection so the next RPC redials, returning the
// close error (nil when there was nothing to close).
func (dc *dirConn) drop() error {
	dc.ptr.Lock()
	defer dc.ptr.Unlock()
	if dc.conn == nil {
		return nil
	}
	err := dc.conn.Close()
	dc.conn = nil
	dc.w, dc.r = nil, nil
	return err
}

// exchange sends one frame and reads one reply under the request
// deadline. Called with dc.rpc held.
func (dc *dirConn) exchange(c *Client, send func(*proto.Writer) error) (proto.Frame, error) {
	dc.ptr.Lock()
	conn, w, r := dc.conn, dc.w, dc.r
	dc.ptr.Unlock()
	if conn == nil {
		return proto.Frame{}, errors.New("remote: no directory connection")
	}
	_ = conn.SetDeadline(time.Now().Add(c.cfg.RequestTimeout))
	defer conn.SetDeadline(time.Time{})
	if err := send(w); err != nil {
		return proto.Frame{}, fmt.Errorf("remote: directory %s: %w", dc.addr, err)
	}
	f, err := r.Next()
	if err != nil {
		return proto.Frame{}, fmt.Errorf("remote: directory %s: %w", dc.addr, err)
	}
	return f, nil
}

// lookupRPC performs one lookup exchange. A TWrongShard answer decodes
// into *WrongShardError so callers can re-route.
func (dc *dirConn) lookupRPC(c *Client, page uint64) (proto.LookupReply, error) {
	dc.rpc.Lock()
	defer dc.rpc.Unlock()
	if err := dc.ensure(c); err != nil {
		return proto.LookupReply{}, err
	}
	f, err := dc.exchange(c, func(w *proto.Writer) error {
		return w.SendLookup(proto.Lookup{Page: page})
	})
	if err != nil {
		return proto.LookupReply{}, err
	}
	switch f.Type {
	case proto.TLookupReply:
		return proto.DecodeLookupReply(f.Payload)
	case proto.TWrongShard:
		ws, err := proto.DecodeWrongShard(f.Payload)
		if err != nil {
			return proto.LookupReply{}, err
		}
		return proto.LookupReply{}, &WrongShardError{Page: ws.Page, Map: ws.Map}
	case proto.TError:
		return proto.LookupReply{}, fmt.Errorf("remote: directory %s: %s", dc.addr, proto.DecodeError(f.Payload).Text)
	case proto.TPutPage, proto.TAck, proto.TLookup, proto.TRegister,
		proto.THeartbeat, proto.TGetShardMap, proto.TShardMap,
		proto.TGetPageV2, proto.TSubpageBatch, proto.TCancel, proto.TDrain,
		proto.TDrainReply:
		// Valid tags that never answer a lookup; fall through to the
		// protocol error below.
	}
	return proto.LookupReply{}, fmt.Errorf("remote: directory sent %v to a lookup", f.Type)
}

// shardMapRPC fetches the shard map this directory serves.
func (dc *dirConn) shardMapRPC(c *Client) (proto.ShardMap, error) {
	dc.rpc.Lock()
	defer dc.rpc.Unlock()
	if err := dc.ensure(c); err != nil {
		return proto.ShardMap{}, err
	}
	f, err := dc.exchange(c, (*proto.Writer).SendGetShardMap)
	if err != nil {
		_ = dc.drop()
		return proto.ShardMap{}, err
	}
	if f.Type != proto.TShardMap {
		return proto.ShardMap{}, fmt.Errorf("remote: directory sent %v", f.Type)
	}
	return proto.DecodeShardMap(f.Payload)
}

// server returns (dialing if needed) the connection to a page server.
func (c *Client) server(addr string) (*srvConn, error) {
	c.srvMu.Lock()
	defer c.srvMu.Unlock()
	if sc, ok := c.servers[addr]; ok {
		return sc, nil
	}
	conn, err := c.dial(addr)
	if err != nil {
		return nil, fmt.Errorf("remote: dial server %s: %w", addr, err)
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		_ = conn.Close()
		return nil, errClientClosed
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	sc := &srvConn{conn: conn, w: proto.NewWriter(conn)}
	c.servers[addr] = sc
	c.wg.Add(1)
	// The data stream deliberately reads without a deadline: batches
	// arrive whenever the server sends them. Liveness is enforced per
	// attempt (RequestTimeout timers + dropServer), not per read.
	go c.readLoop(addr, conn) //lint:allow deadlinecheck data-stream reads are unbounded by design; per-attempt RequestTimeout and dropServer bound liveness
	return sc, nil
}

// readLoop applies incoming subpage batches to the cache: the prototype's
// interrupt handler. A connection failure is scoped to the pages this
// server was transferring — other servers' pages stay usable and a later
// fault redials.
func (c *Client) readLoop(addr string, conn net.Conn) {
	defer c.wg.Done()
	r := proto.NewReader(conn)
	cause := fmt.Errorf("remote: server %s connection lost", addr)
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
				continue
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
	c.srvMu.Lock()
	if sc, ok := c.servers[addr]; ok {
		_ = sc.conn.Close()
		delete(c.servers, addr)
	}
	c.srvMu.Unlock()
	c.failPending(addr, cause)
}

// failPending removes addr as a source for every in-flight attempt. An
// attempt whose last source just vanished fails with cause, and its fault
// goes on to retry, fail over or give up. An attempt with a live hedge
// outstanding keeps going untouched.
func (c *Client) failPending(addr string, cause error) {
	var cancels []source
	c.mu.Lock()
	for _, p := range c.cache {
		id, ok := p.dropSource(addr)
		if !ok {
			continue
		}
		delete(c.reqs, id)
		// Withdraw the stream if the connection survives (an
		// application-level TError): the server may still be streaming
		// requests this failure did not concern.
		cancels = append(cancels, source{addr, id})
		c.stats.Cancels++
		c.met.cancels.Inc()
		if p.nsrc == 0 && p.inflight {
			c.attemptFailed(p, p.addr, cause)
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.sendCancels(cancels)
}

// firstArrived notes the faulted subpage of the attempt in flight, once.
// Called with c.mu held.
func (c *Client) firstArrived(p *cpage) {
	if p.firstOK || !p.inflight {
		return
	}
	p.firstOK = true
	lat := float64(time.Since(p.start).Microseconds())
	c.stats.SubpageLat.Add(lat)
	c.met.subpageLat.Observe(lat)
}

// attemptDone ends the attempt in flight on p, and its fault, in success:
// every other source (the losing half of a hedge) is withdrawn eagerly
// instead of streaming a page we already have. Called with c.mu held; after
// unlocking, send the cancels and book the success with the breaker.
func (c *Client) attemptDone(p *cpage) []source {
	cancels := c.stopAttempt(p)
	lat := float64(time.Since(p.start).Microseconds())
	c.stats.FullLat.Add(lat)
	c.met.fullLat.Observe(lat)
	c.endFault(p, nil)
	return cancels
}

// applyBatch is the interrupt handler proper: one frame, many subpage runs.
// The request ID decides what the batch may do — a live ID applies data
// AND drives the attempt state machine (first-subpage latency, stream
// completion, hedge settlement); a stale ID (canceled, timed out,
// superseded) still applies its correct bytes to a cached page but cannot
// touch signaling, which is what keeps a lost hedge from skewing
// SubpageLat or completing a newer attempt (the lost-hedge bugfix).
func (c *Client) applyBatch(addr string, b proto.SubpageBatch) {
	var cancels []source
	c.mu.Lock()
	ent, live := c.reqs[b.ReqID]
	p := c.cache[b.Page]
	if live && ent.p != p {
		// The registry outlives a cache entry only through bugs; refuse
		// to apply rather than corrupt whatever now sits at this page.
		live = false
	}
	if p == nil {
		c.mu.Unlock()
		return // page evicted mid-transfer; drop the data
	}
	for i := 0; i < b.Runs(); i++ {
		off, data := b.Run(i)
		if off+len(data) > units.PageSize {
			c.mu.Unlock()
			return // DecodeSubpageBatch bounds this; belt and braces
		}
		copy(p.data[off:], data)
		p.valid = p.valid.Set(neededMask(off, len(data)))
		c.stats.BytesIn += int64(len(data))
		c.met.bytesIn.Add(int64(len(data)))
	}
	done := ""
	if live && p.inflight {
		if b.Flags&proto.FlagFirst != 0 {
			c.firstArrived(p)
		}
		if b.Flags&proto.FlagLast != 0 {
			// This stream won: deregister it; attemptDone cancels the rest.
			p.dropSource(addr)
			delete(c.reqs, b.ReqID)
			cancels, done = c.attemptDone(p), p.addr
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	c.sendCancels(cancels)
	if done != "" {
		c.breakerSuccess(done)
	}
}
