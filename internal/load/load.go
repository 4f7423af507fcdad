// Package load is the closed-loop load harness for the networked
// prototype: it stands up a real multi-shard directory cluster, real page
// servers, and a fleet of real faulting clients, then drives them through
// two measured phases:
//
//  1. A lookup storm — raw protocol connections hammering the directory
//     control plane, routed by the shard ring. This is the scale
//     experiment: directory throughput should grow with the shard count.
//  2. A fault phase — remote.Clients taking page faults closed-loop (each
//     worker issues its next fault when the last completes) or open-loop
//     at a target request rate, yielding the throughput and p50/p99/p999
//     fault-latency numbers the SLO table reports.
//
// Everything is in-process but nothing is simulated: every lookup and
// every page travels through the real TCP protocol stack. On a one-CPU
// host the shards' parallelism cannot come from hardware, so scale runs
// set Config.DirService to emulate each shard's bounded per-lookup
// service capacity (remote.DirectoryConfig.LookupService), the same
// emulation precedent as Server.SetWireMbps.
package load

import (
	"fmt"
	"sync"
	"time"

	"github.com/gms-sim/gmsubpage/internal/dirshard"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/remote"
	"github.com/gms-sim/gmsubpage/internal/rng"
	"github.com/gms-sim/gmsubpage/internal/stats"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// stormGrace bounds every storm dial and, added to the storm deadline,
// every lookup exchange: in-flight operations get this long past the end
// of the measurement window before a silent shard turns into an error.
const stormGrace = 2 * time.Second

// Config sizes one load run. Zero fields select the defaults noted.
type Config struct {
	Shards  int // directory shards (default 1)
	Servers int // page servers (default 2)
	Pages   int // pages in the global set (default 512)

	// Lookup-storm phase.
	Workers     int           // storm connections (default 8)
	Duration    time.Duration // storm length (default 1s)
	LookupPause time.Duration // per-op client-side pause, 0 = none

	// Fault phase.
	Clients  int     // faulting clients (default 8)
	Requests int     // faults per client (default 200)
	RPS      float64 // open-loop total fault rate; 0 = closed loop

	// Cluster shaping.
	SubpageSize int           // client transfer granularity (default 1024)
	Policy      uint8         // transfer policy (default eager)
	Prefetch    bool          // learned prefetcher: predictions in want bitmaps (overrides Policy with lazy)
	CachePages  int           // client cache pages (default 64)
	DirService  time.Duration // emulated per-lookup service time, 0 = off

	// Warmup makes each fault client walk its fault sequence once,
	// unmeasured, before the clock starts: directory answers are cached,
	// so the measured phase times the wire fault path rather than the
	// (service-emulated) lookup control plane. Pair it with a small
	// CachePages so warmed pages do not simply hit in cache.
	Warmup bool

	Seed uint64 // base seed for page choice (default 1)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Servers <= 0 {
		c.Servers = 2
	}
	if c.Pages <= 0 {
		c.Pages = 512
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Requests <= 0 {
		c.Requests = 200
	}
	if c.SubpageSize <= 0 {
		c.SubpageSize = 1024
	}
	if c.Policy == 0 {
		c.Policy = proto.PolicyEager
	}
	if c.CachePages <= 0 {
		c.CachePages = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Result is one run's measurements.
type Result struct {
	Shards  int
	Servers int
	Pages   int

	// Lookup storm.
	LookupOps  int
	LookupSecs float64
	LookupRate float64 // lookups per second

	// Fault phase.
	Faults    int
	FaultSecs float64
	FaultRate float64 // faults per second
	MeanUs    float64
	P50Us     float64
	P99Us     float64
	P999Us    float64
	MaxUs     float64

	// Client-side control-plane accounting, summed over the fleet.
	WrongShard   int64
	MapRefreshes int64
	Retries      int64
	BytesIn      int64
}

// Run executes one full load run against a fresh cluster.
func Run(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	res := Result{Shards: cfg.Shards, Servers: cfg.Servers, Pages: cfg.Pages}

	cl, err := startCluster(cfg)
	if err != nil {
		return res, err
	}
	defer cl.Close()

	if err := lookupStorm(cfg, cl.shards.Map(), &res); err != nil {
		return res, err
	}
	if err := faultPhase(cfg, cl.shards.Bootstrap(), &res); err != nil {
		return res, err
	}
	return res, nil
}

// cluster is one started load cluster: the sharded directory plus the
// registered page servers.
type cluster struct {
	shards  *dirshard.Cluster
	servers []*remote.Server
}

func (cl *cluster) Close() {
	for _, s := range cl.servers {
		_ = s.Close()
	}
	if cl.shards != nil {
		_ = cl.shards.Close()
	}
}

// startCluster stands the cluster up and stores the page set.
func startCluster(cfg Config) (*cluster, error) {
	shards, err := dirshard.StartCluster(cfg.Shards, dirshard.Config{LookupService: cfg.DirService})
	if err != nil {
		return nil, err
	}
	cl := &cluster{shards: shards}
	for i := 0; i < cfg.Servers; i++ {
		s, err := remote.ListenServer("127.0.0.1:0")
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.servers = append(cl.servers, s)
	}
	page := make([]byte, units.PageSize)
	for p := 0; p < cfg.Pages; p++ {
		for i := range page {
			page[i] = byte(uint64(p)*131 + uint64(i)*7)
		}
		cl.servers[p%cfg.Servers].Store(uint64(p), page)
	}
	for _, s := range cl.servers {
		if err := s.RegisterWith(shards.Bootstrap()); err != nil {
			cl.Close()
			return nil, err
		}
	}
	return cl, nil
}

// lookupStorm drives raw lookup RPCs at the cluster from cfg.Workers
// connections-per-shard worker loops for cfg.Duration and records the
// aggregate rate.
func lookupStorm(cfg Config, m proto.ShardMap, res *Result) error {
	ring := proto.NewRing(m)
	deadline := time.Now().Add(cfg.Duration)
	ops := make([]int, cfg.Workers)
	errs := make([]error, cfg.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ops[w], errs[w] = stormWorker(cfg, ring, uint64(w), deadline)
		}(w)
	}
	wg.Wait()
	res.LookupSecs = time.Since(start).Seconds()
	for w, err := range errs {
		if err != nil {
			return fmt.Errorf("load: storm worker %d: %w", w, err)
		}
		res.LookupOps += ops[w]
	}
	if res.LookupSecs > 0 {
		res.LookupRate = float64(res.LookupOps) / res.LookupSecs
	}
	return nil
}

// stormWorker is one storm loop: a private connection to every shard,
// lookups for seeded-random pages routed by ring owner.
func stormWorker(cfg Config, ring *proto.Ring, id uint64, deadline time.Time) (int, error) {
	conns := make(map[string]*proto.Conn)
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()

	// Every exchange runs under a deadline a little past the storm's end:
	// a shard that stops answering fails the worker (and surfaces in the
	// harness output) instead of hanging the whole run on one read.
	opDeadline := deadline.Add(stormGrace)
	r := rng.New(cfg.Seed*1_000_003 + id)
	ops := 0
	for time.Now().Before(deadline) {
		page := uint64(r.Intn(cfg.Pages))
		addr := ring.OwnerAddr(page)
		sc, ok := conns[addr]
		if !ok {
			var err error
			if sc, err = proto.Dial(nil, addr, stormGrace); err != nil {
				return ops, err
			}
			conns[addr] = sc
		}
		_, err := sc.Call(time.Until(opDeadline), func(w *proto.Writer) error {
			return w.SendLookup(proto.Lookup{Page: page})
		}, proto.TLookupReply)
		if err != nil {
			return ops, fmt.Errorf("shard %s, an owned lookup: %w", addr, err)
		}
		ops++
		if cfg.LookupPause > 0 {
			time.Sleep(cfg.LookupPause)
		}
	}
	return ops, nil
}

// faultPhase runs cfg.Clients real faulting clients, each taking
// cfg.Requests page faults, and folds their latencies into the result.
// Closed loop by default; cfg.RPS > 0 schedules fault starts at the
// target aggregate rate and measures from the scheduled start, so queueing
// delay from a saturated cluster is charged to latency rather than
// silently stretching the run (the coordinated-omission correction).
func faultPhase(cfg Config, bootstrap string, res *Result) error {
	clients := make([]*remote.Client, cfg.Clients)
	for i := range clients {
		c, err := remote.Dial(remote.ClientConfig{
			Directory:   bootstrap,
			Policy:      cfg.Policy,
			Prefetch:    cfg.Prefetch,
			SubpageSize: cfg.SubpageSize,
			CachePages:  cfg.CachePages,
		})
		if err != nil {
			return err
		}
		defer c.Close()
		clients[i] = c
	}

	if cfg.Warmup {
		// One unmeasured pass over each worker's fault sequence: location
		// answers cache client-side, so the measured loop below is not
		// queued behind the emulated lookup service.
		werrs := make([]error, cfg.Clients)
		var wwg sync.WaitGroup
		for i := range clients {
			wwg.Add(1)
			go func(i int) {
				defer wwg.Done()
				werrs[i] = warmWorker(cfg, clients[i], uint64(i))
			}(i)
		}
		wwg.Wait()
		for i, err := range werrs {
			if err != nil {
				return fmt.Errorf("load: warmup client %d: %w", i, err)
			}
		}
	}

	var interval time.Duration
	if cfg.RPS > 0 {
		interval = time.Duration(float64(time.Second) * float64(cfg.Clients) / cfg.RPS)
	}
	lats := make([][]float64, cfg.Clients)
	errs := make([]error, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lats[i], errs[i] = faultWorker(cfg, clients[i], uint64(i), interval)
		}(i)
	}
	wg.Wait()
	res.FaultSecs = time.Since(start).Seconds()

	all := &stats.Summary{}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("load: fault client %d: %w", i, err)
		}
		for _, v := range lats[i] {
			all.Add(v)
		}
		st := clients[i].Stats()
		res.WrongShard += st.WrongShard
		res.MapRefreshes += st.MapRefreshes
		res.Retries += st.Retries
		res.BytesIn += st.BytesIn
	}
	res.Faults = all.N()
	if res.FaultSecs > 0 {
		res.FaultRate = float64(res.Faults) / res.FaultSecs
	}
	res.MeanUs = all.Mean()
	res.P50Us = all.Percentile(50)
	res.P99Us = all.Percentile(99)
	res.P999Us = all.Percentile(99.9)
	res.MaxUs = all.Max()
	return nil
}

// warmWorker walks one client through the exact page sequence its
// measured faultWorker run will draw (same seed), so every directory
// lookup the measured phase would need is already answered and cached.
// The page data itself mostly will not survive in a cache smaller than the
// distinct-page count — which is the point: the measured reads still
// fault, but over a warm control plane.
func warmWorker(cfg Config, c *remote.Client, id uint64) error {
	r := rng.New(cfg.Seed*7_777_777 + id)
	seen := make(map[uint64]bool, cfg.Requests)
	buf := make([]byte, 64)
	for n := 0; n < cfg.Requests; n++ {
		page := uint64(r.Intn(cfg.Pages))
		if seen[page] {
			continue
		}
		seen[page] = true
		if err := c.Read(buf, page*uint64(units.PageSize)); err != nil {
			return err
		}
	}
	return nil
}

// faultWorker issues cfg.Requests faults from one client, returning the
// per-fault latencies in microseconds. Reads walk a seeded-random page
// sequence; with a cache far smaller than the page set, effectively every
// read is a genuine remote fault.
func faultWorker(cfg Config, c *remote.Client, id uint64, interval time.Duration) ([]float64, error) {
	r := rng.New(cfg.Seed*7_777_777 + id)
	lats := make([]float64, 0, cfg.Requests)
	buf := make([]byte, 64)
	var next time.Time
	if interval > 0 {
		// Stagger open-loop schedules so the fleet doesn't fire in phase.
		next = time.Now().Add(interval * time.Duration(id) / time.Duration(cfg.Clients))
	}
	for n := 0; n < cfg.Requests; n++ {
		started := time.Now()
		if interval > 0 {
			if wait := time.Until(next); wait > 0 {
				time.Sleep(wait)
			}
			started = next // scheduled start: queueing counts as latency
			next = next.Add(interval)
		}
		page := uint64(r.Intn(cfg.Pages))
		if err := c.Read(buf, page*uint64(units.PageSize)); err != nil {
			return lats, err
		}
		lats = append(lats, float64(time.Since(started).Nanoseconds())/1e3) // µs
	}
	return lats, nil
}
