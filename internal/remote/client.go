package remote

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/obs"
	"github.com/gms-sim/gmsubpage/internal/proto"
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

	// Metrics, when non-nil, exposes the client's Stats there as the
	// gms_client_* metrics, read at scrape time. The fault path costs the
	// same either way.
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

// Stats is a snapshot of a client's counters: the one record of each
// event. A field's metric tag names the series ClientConfig.Metrics
// exposes it as, read at scrape time (see obs.Source.Fields). Stats holds
// no slice, map or pointer, so its size is fixed however many faults it
// has counted.
type Stats struct {
	Faults     int64         `metric:"gms_client_faults_total" help:"page faults issued to remote memory"`
	Evictions  int64         `metric:"gms_client_evictions_total" help:"pages evicted from the local cache"`
	PutPages   int64         `metric:"gms_client_putpages_total" help:"dirty pages written back on eviction"`
	PutDrops   int64         `metric:"gms_client_put_drops_total" help:"dirty evictions no replica took: the write is lost"`
	PutBytes   int64         `metric:"gms_client_put_bytes_total" help:"write-back payload bytes sent: the dirty blocks, once per replica that took them"`
	BytesIn    int64         `metric:"gms_client_bytes_in_total" help:"page data bytes received"`
	Retries    int64         `metric:"gms_client_retries_total" help:"fault or lookup attempts beyond the first"`
	Failovers  int64         `metric:"gms_client_failovers_total" help:"retries redirected to a different replica"`
	Hedges     int64         `metric:"gms_client_hedges_total" help:"duplicate GetPages sent to mask a slow primary"`
	Cancels    int64         `metric:"gms_client_cancels_total" help:"cancel frames sent to withdraw superseded v2 requests"`
	Predicted  int64         // fault attempts whose want bitmap carried prefetch predictions
	SubpageLat obs.Histogram `metric:"gms_client_subpage_latency_us" help:"fault to faulted-subpage arrival, microseconds"`
	FullLat    obs.Histogram `metric:"gms_client_full_latency_us" help:"fault to complete page arrival, microseconds"`

	// Sharded-directory observability: lookups bounced by a shard that
	// did not own the page (each bounce also delivers the current map),
	// and shard maps installed (the bootstrap fetch plus every refresh a
	// bounce carried). See DESIGN.md §9.
	WrongShard   int64 `metric:"gms_client_wrong_shard_total" help:"lookups bounced by a shard that did not own the page"`
	MapRefreshes int64 `metric:"gms_client_shardmap_refreshes_total" help:"shard-map installs (bootstrap fetches and TWrongShard refreshes)"`

	// Circuit-breaker observability (see ClientConfig.BreakerThreshold).
	// These are maintained under the same lock as every other field, so a
	// Stats() snapshot is one coherent cut: BreakerOpens can never run
	// ahead of the Retries/Failovers that implied it.
	BreakerOpens  int64 `metric:"gms_client_breaker_opens_total" help:"circuit breakers tripped (closed to open)"`
	BreakerProbes int64 `metric:"gms_client_breaker_probes_total" help:"half-open probes granted after a cooldown"`
	OpenBreakers  int   `metric:"gms_client_open_breakers,gauge" help:"servers currently shunned by their breaker"`
}

// Client is the faulting node: a fixed-size page cache with subpage valid
// bits, backed by remote page servers found through the directory. Faults
// run under per-attempt deadlines with retry, replica failover and
// optional hedging; a page no server can deliver fails with a *PageError
// instead of wedging the client.
type Client struct {
	cfg ClientConfig

	// mu guards the page cache and every entry in it, the fault state those
	// entries carry, the request registry, stats and closed — and nothing of
	// routing or transport, which have locks of their own and are only ever
	// called with mu released (pageCache says why the cache shares it).
	mu     sync.Mutex
	cond   *sync.Cond
	pages  pageCache
	stats  Stats
	closed bool
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

	route router    // route.go
	tr    transport // transport.go

	// br is the per-server circuit breaker consulted by replica picking
	// and hedging; it has its own lock and is never touched under c.mu.
	// Its transitions are reported back through return values and counted
	// into c.stats under c.mu (see breaker).
	br *breaker

	// src is the gms_client_* metrics' view of stats (nil without
	// ClientConfig.Metrics); Close detaches it.
	src *obs.Source

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
		pages:   newPageCache(),
		reqs:    make(map[uint64]reqEntry),
		closeCh: make(chan struct{}),
		route:   newRouter(),
		tr:      newTransport(),
		// Seeded from the wall clock so a fleet of clients restarting
		// together still jitters apart; backoff jitter needs spread, not
		// reproducibility.
		jrand: rand.New(rand.NewSource(time.Now().UnixNano())), //lint:allow simpurity jitter seed wants real-time entropy, not determinism
		br:    newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown),
	}
	if cfg.Prefetch {
		c.pf = core.NewPrefetcher()
	}
	c.cond = sync.NewCond(&c.mu)
	// Dial now, so that an unreachable directory fails here and not on the
	// first access.
	if _, err := c.route.conn(cfg.Directory).live(c); err != nil {
		return nil, err
	}
	c.src = cfg.Metrics.NewSource()
	c.src.Fields(&c.mu, &c.stats)
	return c, nil
}

// Close tears the client down. Dirty pages are not written back.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.closeCh)
	// Attempts in flight have nobody parked on them to unwind: settle them
	// here, so no timer is left to fire into a closed client. (No cancels
	// go out: the connections close below.)
	for _, ent := range c.reqs {
		if ent.p.inflight { // it has a request registered for as long as it is
			c.stopAttempt(ent.p)
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()

	err := c.route.close()
	c.tr.close()
	c.wg.Wait()
	c.src.Close()
	return err
}

// isClosed reports whether Close has begun, without c.mu: routing and
// transport ask it under their own locks.
func (c *Client) isClosed() bool {
	select {
	case <-c.closeCh:
		return true
	default:
		return false
	}
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
			p.dirty |= neededMask(off, len(buf))
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
	var p *cpage
	for {
		if p = c.pages.get(page); p == nil {
			// evictIfFull may drop the lock for write-back; another
			// goroutine can install the page meanwhile.
			c.evictIfFull()
			if p = c.pages.get(page); p == nil {
				p = c.pages.install(page)
				break
			}
		}
		if !p.putting {
			c.pages.touch(p)
			break
		}
		// Being written back: once its put is on the wire the entry is
		// gone, and a fault that follows reads what the put wrote.
		c.cond.Wait()
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
		if c.closed {
			return nil, errClientClosed
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
		// About to let go of c.mu (in cond.Wait or around the send): park as
		// a waiter, which evictIfFull never evicts.
		p.waiters++
		if !p.inflight && !p.faulting {
			// This accessor takes the fault and sends its first attempt
			// itself. The lock is dropped around the send, so the reply can
			// land — and broadcast — before it is retaken: go round and
			// look at the page again, never straight into Wait.
			c.stats.Faults++
			c.beginFault(p, off, n)
			c.runAttempt(p)
		} else {
			c.cond.Wait()
		}
		p.waiters--
	}
}
