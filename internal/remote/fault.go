package remote

import (
	"errors"
	"fmt"
	"time"

	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// The fault engine (DESIGN.md §7). A fault is a run of attempts on one page,
// and nothing is parked on it. The accessor that takes the fault sends the
// first attempt itself (runAttempt); an attempt ends as an event: the reply's
// last batch, the loss of its last source, its deadline. Success ends the
// fault on the spot; failure hands it to a goroutine that lives for the
// bookkeeping, the backoff and the next send (retry). Accessors only ever
// wait on the condition variable.
//
// The engine's state is the fault fields of the cpage and the request
// registry, all under Client.mu; it calls routing, the breaker and the
// transport only with mu released.

// source is one server streaming a page's current attempt, with its
// request ID. A withdrawn source is also the TCancel owed to that server,
// sent once c.mu is released (sending under the lock would hold every
// accessor behind one peer's socket).
type source struct {
	addr string
	id   uint64
}

// dropSource forgets addr as a source of p, if it is one.
func (p *cpage) dropSource(addr string) {
	for i, src := range p.sources[:p.nsrc] {
		if src.addr == addr {
			p.nsrc--
			p.sources[i] = p.sources[p.nsrc]
			return
		}
	}
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

// beginFault makes p the subject of a new fault on [off, off+n). Called
// with c.mu held, on a page with no fault in progress.
func (c *Client) beginFault(p *cpage, off, n int) {
	p.faulting = true
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
	}
	c.cond.Broadcast()
}

// runAttempt sends the current attempt of p's fault: one lookup (the cached
// answer at first, a fresh one after a failure made retry forget it), pick
// a replica, register the request, send it, arm the deadline and the hedge.
// Called with c.mu held and returns with it held, but drops it around the
// directory, the breaker and the socket: by the time it returns, the attempt
// — or the whole fault — may be over.
func (c *Client) runAttempt(p *cpage) {
	page, attempt, tried := p.id, p.attempt, p.tried
	c.mu.Unlock()
	addrs, err := c.lookup(page)
	var addr, hedgeTo string
	if err == nil {
		addr = c.pickAddr(addrs, tried, attempt)
		if c.cfg.Hedge > 0 {
			hedgeTo = c.hedgeAddr(addrs, addr)
		}
	}
	c.mu.Lock()
	if errors.Is(err, errNotRegistered) { // authoritative: retrying cannot help
		c.endFault(p, &PageError{Page: page, Attempts: attempt + 1, Err: err})
		return
	}
	if err != nil || c.closed {
		c.attemptFailed(p, "", err) // on a closed client this ends the fault
		return
	}
	if p.firstAddr == "" {
		p.firstAddr = addr
	} else if addr != p.firstAddr {
		c.stats.Failovers++
	}
	p.inflight, p.firstOK = true, false
	p.addr, p.hedgeTo = addr, hedgeTo
	p.gen++
	gen := p.gen
	id := c.regRequest(p, addr)
	want := c.wantFor(p)
	p.sources[0], p.nsrc = source{addr, id}, 1
	p.start = time.Now()
	off := p.off
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
	opened := false
	if addr != "" {
		opened = c.br.failure(addr, time.Now())
		c.route.forget(p.id) // the failure may mean the cached placement is stale
	}
	c.mu.Lock()
	if addr != "" {
		if p.tried == nil {
			p.tried = make(map[string]bool)
		}
		p.tried[addr] = true
	}
	if opened {
		c.stats.BreakerOpens++
		c.stats.OpenBreakers++
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

// failPending removes addr as a source for every in-flight attempt. An
// attempt whose last source just vanished fails with cause, and its fault
// goes on to retry, fail over or give up. An attempt with a live hedge
// outstanding keeps going untouched.
func (c *Client) failPending(addr string, cause error) {
	var cancels []source
	c.mu.Lock()
	for id, ent := range c.reqs { // the registry holds exactly the live sources
		if ent.addr != addr {
			continue
		}
		p := ent.p
		p.dropSource(addr)
		delete(c.reqs, id)
		// Withdraw the stream if the connection survives (an
		// application-level TError): the server may still be streaming
		// requests this failure did not concern.
		cancels = append(cancels, source{addr, id})
		c.stats.Cancels++
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
	c.stats.SubpageLat.Add(time.Since(p.start).Microseconds())
}

// attemptDone ends the attempt in flight on p, and its fault, in success:
// every other source (the losing half of a hedge) is withdrawn eagerly
// instead of streaming a page we already have. Called with c.mu held; after
// unlocking, send the cancels and book the success with the breaker.
func (c *Client) attemptDone(p *cpage) []source {
	cancels := c.stopAttempt(p)
	c.stats.FullLat.Add(time.Since(p.start).Microseconds())
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
	p := c.pages.get(b.Page)
	if live && ent.p != p {
		// The registry outlives a cache entry only through bugs; refuse
		// to apply rather than corrupt whatever now sits at this page.
		live = false
	}
	if p == nil || p.putting {
		c.mu.Unlock()
		return // page evicted mid-transfer, or being written back; drop the data
	}
	for i := 0; i < b.Runs(); i++ {
		off, data := b.Run(i)
		if off+len(data) > units.PageSize {
			c.mu.Unlock()
			return // DecodeSubpageBatch bounds this; belt and braces
		}
		c.stats.BytesIn += int64(len(data))
		blocks := neededMask(off, len(data))
		p.valid = p.valid.Set(blocks)
		if blocks&p.dirty == 0 {
			copy(p.data[off:], data)
			continue
		}
		// A block written here is newer than any copy the server sends:
		// the faulted block rides every reply, and a stale stream can land
		// after a store.
		for at := off; at < off+len(data); at += units.MinSubpage {
			if !p.dirty.Has(at) {
				copy(p.data[at:at+units.MinSubpage], data[at-off:])
			}
		}
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
