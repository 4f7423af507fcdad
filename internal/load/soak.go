package load

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gms-sim/gmsubpage/internal/dirlog"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/remote"
	"github.com/gms-sim/gmsubpage/internal/rng"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// SoakConfig sizes one kill-anything crash soak: a durable directory is
// crashed and restarted in place, repeatedly, under continuous fault
// load. Zero fields select the defaults noted.
type SoakConfig struct {
	Servers int // page servers (default 2)
	Pages   int // pages in the global set (default 256)
	Clients int // error-tolerant faulting clients (default 4)

	Crashes    int           // directory kill/restart cycles (default 5)
	CrashEvery time.Duration // load time between kills (default 300ms)
	Downtime   time.Duration // directory dead time per cycle (default 50ms)
	LeaseTTL   time.Duration // directory lease TTL (default 2s)

	JournalDir string             // journal directory (required)
	Fsync      dirlog.FsyncPolicy // fsync policy (default interval)
	SnapEvery  int                // snapshot threshold (default dirlog's)

	// HangBound fails the soak if any single read — including every
	// retry inside it — takes longer than this (default 15s). This is
	// the "zero client hangs" assertion: a crashed directory may fail a
	// read, never wedge it.
	HangBound time.Duration

	Seed uint64 // base seed for page choice (default 1)
}

func (c SoakConfig) withDefaults() SoakConfig {
	if c.Servers <= 0 {
		c.Servers = 2
	}
	if c.Pages <= 0 {
		c.Pages = 256
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.Crashes <= 0 {
		c.Crashes = 5
	}
	if c.CrashEvery <= 0 {
		c.CrashEvery = 300 * time.Millisecond
	}
	if c.Downtime <= 0 {
		c.Downtime = 50 * time.Millisecond
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 2 * time.Second
	}
	if c.HangBound <= 0 {
		c.HangBound = 15 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// SoakResult is one crash soak's ledger.
type SoakResult struct {
	Crashes   int     // kill/restart cycles completed
	Elapsed   float64 // wall time of the whole soak, seconds
	Reads     int64   // client reads issued
	ReadErrs  int64   // reads that failed (bounded, never hung)
	MaxReadUs float64 // slowest single read incl. retries
	Reregs    int64   // full re-registrations across the server fleet
	Recovered int     // registrations the final restart recovered

	// Final-recovery journal accounting.
	WalRecords  int
	WalBytes    int64
	SnapRecords int
}

// RunSoak crashes a durable directory out from under a live fault load,
// Crashes times, and proves the recovery story holds: clients see bounded
// errors (never hangs), servers re-register at most once per restart (no
// re-registration storm — the journal remembers them), and a stale epoch
// can no more resurrect after the restarts than before the first.
//
// The invariants themselves are enforced here — RunSoak returns an error
// when one breaks — so callers (the soak test, gmsload -soak, make
// soak-smoke) share one set of teeth.
func RunSoak(cfg SoakConfig) (SoakResult, error) {
	cfg = cfg.withDefaults()
	var res SoakResult
	if cfg.JournalDir == "" {
		return res, fmt.Errorf("load: soak needs a journal directory")
	}
	start := time.Now()
	jopts := dirlog.Options{Dir: cfg.JournalDir, Fsync: cfg.Fsync, SnapshotEvery: cfg.SnapEvery}
	dcfg := remote.DirectoryConfig{LeaseTTL: cfg.LeaseTTL, Journal: &jopts}
	dir, err := remote.ListenDirectoryWith("127.0.0.1:0", dcfg)
	if err != nil {
		return res, err
	}
	defer func() { _ = dir.Close() }()
	dirAddr := dir.Addr()

	servers := make([]*remote.Server, cfg.Servers)
	for i := range servers {
		s, err := remote.ListenServer("127.0.0.1:0")
		if err != nil {
			return res, err
		}
		defer func() { _ = s.Close() }()
		servers[i] = s
	}
	page := make([]byte, units.PageSize)
	for p := 0; p < cfg.Pages; p++ {
		for i := range page {
			page[i] = byte(uint64(p)*131 + uint64(i)*7)
		}
		servers[p%cfg.Servers].Store(uint64(p), page)
	}
	for _, s := range servers {
		// Heartbeats several times per TTL: a restarted directory sees a
		// renewal (or the re-registration behind it) well inside the
		// grace window.
		s.SetHeartbeatInterval(cfg.LeaseTTL / 8)
		if err := s.RegisterWith(dirAddr); err != nil {
			return res, err
		}
	}

	// The error-tolerant fleet: short bounded retries, so a read issued
	// while the directory is down fails in tens of milliseconds and the
	// worker moves on. Cache far smaller than the page set keeps every
	// worker faulting — and re-looking-up — throughout.
	var stopLoad atomic.Bool
	var reads, readErrs, maxReadUs atomic.Int64
	var hung atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		cl, err := remote.Dial(remote.ClientConfig{
			Directory:      dirAddr,
			CachePages:     8,
			DialTimeout:    200 * time.Millisecond,
			RequestTimeout: 500 * time.Millisecond,
			MaxRetries:     2,
			RetryBackoff:   5 * time.Millisecond,
		})
		if err != nil {
			return res, err
		}
		defer func() { _ = cl.Close() }()
		wg.Add(1)
		go func(id uint64, cl *remote.Client) {
			defer wg.Done()
			r := rng.New(cfg.Seed*7_777_777 + id)
			buf := make([]byte, 64)
			for !stopLoad.Load() {
				p := uint64(r.Intn(cfg.Pages))
				t0 := time.Now()
				err := cl.Read(buf, p*uint64(units.PageSize))
				us := time.Since(t0).Microseconds()
				for {
					cur := maxReadUs.Load()
					if us <= cur || maxReadUs.CompareAndSwap(cur, us) {
						break
					}
				}
				reads.Add(1)
				if err != nil {
					readErrs.Add(1)
				}
				if time.Duration(us)*time.Microsecond > cfg.HangBound {
					hung.Add(1)
					return
				}
			}
		}(uint64(i), cl)
	}

	// The kill loop: load, kill, dead air, restart in place. The listener
	// rebind races the dying socket, so it retries briefly.
	killErr := func() error {
		for n := 0; n < cfg.Crashes; n++ {
			time.Sleep(cfg.CrashEvery)
			if err := dir.Kill(); err != nil {
				return fmt.Errorf("kill %d: %w", n+1, err)
			}
			time.Sleep(cfg.Downtime)
			var d2 *remote.Directory
			var err error
			for attempt := 0; attempt < 100; attempt++ {
				d2, err = remote.ListenDirectoryWith(dirAddr, dcfg)
				if err == nil {
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
			if err != nil {
				return fmt.Errorf("restart %d on %s: %w", n+1, dirAddr, err)
			}
			dir = d2
			res.Crashes++
		}
		return nil
	}()
	if killErr == nil {
		// Settle: one more load window against the final incarnation, so
		// recovery serves real traffic before the books close.
		time.Sleep(cfg.CrashEvery)
	}
	stopLoad.Store(true)
	wg.Wait()
	res.Elapsed = time.Since(start).Seconds()
	res.Reads = reads.Load()
	res.ReadErrs = readErrs.Load()
	res.MaxReadUs = float64(maxReadUs.Load())
	for _, s := range servers {
		res.Reregs += atomic.LoadInt64(&s.Reregs)
	}
	res.Recovered = dir.RecoveredServers()
	info := dir.JournalInfo()
	res.WalRecords = info.WalRecords
	res.WalBytes = info.WalBytes
	res.SnapRecords = info.SnapshotRecords
	if killErr != nil {
		return res, killErr
	}

	// Invariant: no hangs. A read that outlived HangBound is a wedge the
	// retry budget should have made impossible.
	if h := hung.Load(); h > 0 {
		return res, fmt.Errorf("%d reads exceeded the %v hang bound (max read %.0fµs)", h, cfg.HangBound, res.MaxReadUs)
	}
	// Invariant: the fleet made progress — errors stayed the exception,
	// not the rule, across every crash window.
	if res.Reads == 0 || res.ReadErrs >= res.Reads {
		return res, fmt.Errorf("load never succeeded: %d errors of %d reads", res.ReadErrs, res.Reads)
	}
	// Invariant: no re-registration storm. The journal remembers the
	// fleet, so a restart costs at most one full re-registration per
	// server (a renewal that raced the crash), not one per heartbeat.
	if bound := int64(cfg.Crashes * cfg.Servers); res.Reregs > bound {
		return res, fmt.Errorf("%d re-registrations across %d crashes of %d servers (bound %d): restart caused a storm", res.Reregs, cfg.Crashes, cfg.Servers, bound)
	}
	// Invariant: recovery actually recovered — the final incarnation knew
	// the fleet from disk (or the fleet re-registered within bound above)
	// and every page resolves.
	deadline := time.Now().Add(2 * cfg.LeaseTTL)
	for p := 0; p < cfg.Pages; p++ {
		for {
			if _, ok := dir.Lookup(uint64(p)); ok {
				break
			}
			if time.Now().After(deadline) {
				return res, fmt.Errorf("page %d never became resolvable after the final restart", p)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	// Invariant: no stale-epoch resurrection. A forged registration one
	// epoch below a live server's must be rejected by the recovered
	// directory exactly as the original would have rejected it.
	srv := servers[0]
	if err := probeStaleEpoch(dirAddr, srv.Addr(), srv.Epoch()-1); err != nil {
		return res, err
	}
	return res, nil
}

// probeStaleEpoch forges a registration for serverAddr at a superseded
// epoch and reports an error unless the directory refuses it.
func probeStaleEpoch(dirAddr, serverAddr string, epoch uint64) error {
	_, err := proto.Ask(dirAddr, stormGrace, func(w *proto.Writer) error {
		return w.SendRegister(proto.Register{Addr: serverAddr, Epoch: epoch, Pages: []uint64{0}})
	}, proto.TError)
	if err != nil {
		return fmt.Errorf("stale-epoch probe, want TError: %w (epoch fencing did not survive the restarts?)", err)
	}
	return nil
}
