package remote

import (
	"errors"
	"fmt"
	"sync"

	"github.com/gms-sim/gmsubpage/internal/proto"
)

// Directory routing: which servers hold a page, asked of the directory shard
// that owns it and remembered until a failure says otherwise.

// router is what the client knows about placement. Its one mutex guards
// plain map and pointer state and is never held across I/O (each dirConn
// serializes its own stream) nor together with Client.mu: routing is read
// and written by whoever resolves a page, with no accessor waiting on it.
type router struct {
	mu sync.Mutex
	// located caches directory answers: replica lists, primary first.
	located map[uint64][]string
	// dconns holds one control-plane connection per directory shard (a
	// single entry, the bootstrap address, when the deployment is
	// unsharded). Lookups to different shards proceed concurrently.
	dconns map[string]*dirConn
	// ring is nil while the deployment looks unsharded (every lookup goes to
	// the bootstrap address); once a sharded map is installed — by the
	// bootstrap fetch or by a TWrongShard bounce — lookups route by ring
	// ownership, and any newer map in a bounce replaces the ring (stale maps
	// converge in one extra round trip).
	ring     *proto.Ring
	mapTried bool // the bootstrap shard-map fetch already ran
}

func newRouter() router {
	return router{located: make(map[uint64][]string), dconns: make(map[string]*dirConn)}
}

func (r *router) cached(page uint64) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.located[page]
}

func (r *router) remember(page uint64, addrs []string) {
	r.mu.Lock()
	r.located[page] = addrs
	r.mu.Unlock()
}

// forget drops page's cached placement: a failed attempt may mean it is
// stale.
func (r *router) forget(page uint64) {
	r.mu.Lock()
	delete(r.located, page)
	r.mu.Unlock()
}

// conn returns (creating if needed) the connection slot for the directory
// shard at addr. The slot dials lazily.
func (r *router) conn(addr string) *dirConn {
	r.mu.Lock()
	defer r.mu.Unlock()
	dc := r.dconns[addr]
	if dc == nil {
		dc = &dirConn{addr: addr}
		r.dconns[addr] = dc
	}
	return dc
}

// close severs every shard connection, returning the first close error.
// Called once closeCh is closed, so a dial that finishes later hangs up.
func (r *router) close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var err error
	for _, dc := range r.dconns {
		if e := dc.drop(); e != nil && err == nil {
			err = e
		}
	}
	return err
}

// lookup resolves page's replica list with at most one routed directory
// exchange: the cached answer, or a fresh one, cached on success. A
// directory that answers "nobody" yields errNotRegistered. The fault engine
// calls this once per attempt, so its retry budget is the only one a fault
// spends.
func (c *Client) lookup(page uint64) ([]string, error) {
	if addrs := c.route.cached(page); addrs != nil {
		return addrs, nil
	}
	rep, err := c.lookupRouted(page)
	if err != nil {
		return nil, fmt.Errorf("remote: directory lookup for page %d: %w", page, err)
	}
	if len(rep.Addrs) == 0 {
		return nil, errNotRegistered
	}
	c.route.remember(page, rep.Addrs)
	return rep.Addrs, nil
}

// locate is lookup with a retry budget of its own, for the one caller with
// no fault engine behind it: a dirty victim's write-back. A dead shard
// connection is redialed with backoff up to MaxRetries; nil means the page
// has no reachable placement.
func (c *Client) locate(page uint64) []string {
	for attempt := 0; attempt <= c.cfg.MaxRetries; attempt++ {
		if attempt > 0 {
			if !c.sleep(c.backoffDelay(attempt)) {
				return nil
			}
			c.mu.Lock()
			c.stats.Retries++
			c.mu.Unlock()
			c.met.retries.Inc()
		}
		addrs, err := c.lookup(page)
		if err == nil || errors.Is(err, errNotRegistered) {
			return addrs
		}
	}
	return nil
}

// lookupRouted sends one lookup to the shard the current map names,
// following at most one TWrongShard forward: the bounce carries the
// authoritative map, so the second hop must land (a second bounce means
// the shards themselves disagree, which the caller treats as a failed
// attempt). A stale client so converges in one extra round trip without
// spending its retry budget.
func (c *Client) lookupRouted(page uint64) (proto.LookupReply, error) {
	addr := c.shardFor(page)
	rep, err := c.route.conn(addr).lookup(c, page)
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
	rep, err = c.route.conn(next).lookup(c, page)
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
// single-directory mode at zero per-lookup cost. A failed fetch is not
// fatal: lookups proceed against the bootstrap address and the fetch
// re-arms, so a directory that was briefly unreachable still gets to
// announce its sharding.
func (c *Client) shardFor(page uint64) string {
	r := &c.route
	r.mu.Lock()
	ring, fetch := r.ring, r.ring == nil && !r.mapTried
	r.mu.Unlock()
	if fetch {
		if m, err := r.conn(c.cfg.Directory).shardMap(c); err == nil {
			ring = c.installMap(m)
		}
	}
	if ring == nil {
		return c.cfg.Directory
	}
	return ring.OwnerAddr(page)
}

// installMap adopts m if it is sharded and newer than the map in use, and
// returns the ring now in use. Any map a directory sent settles the
// bootstrap fetch.
func (c *Client) installMap(m proto.ShardMap) *proto.Ring {
	r := &c.route
	r.mu.Lock()
	r.mapTried = true
	fresh := m.Sharded() && (r.ring == nil || m.Version > r.ring.Map().Version)
	if fresh {
		r.ring = proto.NewRing(m)
	}
	ring := r.ring
	r.mu.Unlock()
	if fresh {
		c.mu.Lock()
		c.stats.MapRefreshes++
		c.mu.Unlock()
		c.met.mapRefreshes.Inc()
	}
	return ring
}

// dirConn is the client's control-plane stream to one directory shard.
// rpc serializes request/reply exchanges (a reply's payload lives in the
// stream's read buffer, so it is decoded under rpc too); ptr guards the
// connection pointer so drop can race an in-flight dial safely.
type dirConn struct {
	addr string
	rpc  sync.Mutex
	ptr  sync.Mutex
	pc   *proto.Conn
}

// live returns the shard's connection, (re)dialing if there is none. Called
// with dc.rpc held (or, by Dial, before anyone else can see the client).
func (dc *dirConn) live(c *Client) (*proto.Conn, error) {
	dc.ptr.Lock()
	pc := dc.pc
	dc.ptr.Unlock()
	if pc != nil {
		return pc, nil
	}
	pc, err := proto.Dial(c.cfg.Dial, dc.addr, c.cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("remote: dial directory shard %s: %w", dc.addr, err)
	}
	dc.ptr.Lock()
	defer dc.ptr.Unlock()
	if c.isClosed() { // under ptr: Close's drop either finds pc or ran before this check
		_ = pc.Close()
		return nil, errClientClosed
	}
	dc.pc = pc
	return pc, nil
}

// call runs one exchange with the shard under the request deadline. Any
// failure — transport, refusal, a reply of no wanted type — drops the
// connection so the next call redials a clean stream. Called with dc.rpc
// held.
func (dc *dirConn) call(c *Client, send func(*proto.Writer) error, want ...proto.Type) (proto.Frame, error) {
	pc, err := dc.live(c)
	if err != nil {
		return proto.Frame{}, err
	}
	f, err := pc.Call(c.cfg.RequestTimeout, send, want...)
	if err != nil {
		_ = dc.drop()
		return proto.Frame{}, fmt.Errorf("remote: directory %s: %w", dc.addr, err)
	}
	return f, nil
}

// drop severs the connection so the next call redials, returning the
// close error (nil when there was nothing to close).
func (dc *dirConn) drop() error {
	dc.ptr.Lock()
	defer dc.ptr.Unlock()
	if dc.pc == nil {
		return nil
	}
	err := dc.pc.Close()
	dc.pc = nil
	return err
}

// lookup performs one lookup exchange. A TWrongShard answer decodes into
// *WrongShardError so callers can re-route.
func (dc *dirConn) lookup(c *Client, page uint64) (proto.LookupReply, error) {
	dc.rpc.Lock()
	defer dc.rpc.Unlock()
	f, err := dc.call(c, func(w *proto.Writer) error {
		return w.SendLookup(proto.Lookup{Page: page})
	}, proto.TLookupReply, proto.TWrongShard)
	if err != nil {
		return proto.LookupReply{}, err
	}
	if f.Type == proto.TWrongShard {
		ws, err := proto.DecodeWrongShard(f.Payload)
		if err != nil {
			return proto.LookupReply{}, err
		}
		return proto.LookupReply{}, &WrongShardError{Page: ws.Page, Map: ws.Map}
	}
	return proto.DecodeLookupReply(f.Payload)
}

// shardMap fetches the shard map this directory serves.
func (dc *dirConn) shardMap(c *Client) (proto.ShardMap, error) {
	dc.rpc.Lock()
	defer dc.rpc.Unlock()
	f, err := dc.call(c, (*proto.Writer).SendGetShardMap, proto.TShardMap)
	if err != nil {
		return proto.ShardMap{}, err
	}
	return proto.DecodeShardMap(f.Payload)
}
