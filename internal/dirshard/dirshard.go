// Package dirshard runs the sharded directory service: N independent
// directory processes, each owning a deterministic slice of the page-ID
// space under a versioned consistent-hash shard map (internal/proto's
// Ring). Each shard is a full remote.Directory — leases, epoch fencing,
// heartbeats, and the janitor all work per shard exactly as they do for
// the classic single directory — plus shard-mode behavior: lookups for
// pages another shard owns answer TWrongShard carrying the current map,
// so a stale client re-routes in one extra round trip.
//
// The package offers two entry points: StartShard brings up one shard
// process (what `gmsnode dirshard` runs, one per node), and StartCluster
// brings up a whole map's worth of shards in-process on ephemeral ports
// (what tests and the gmsload harness use).
package dirshard

import (
	"fmt"
	"net"
	"path/filepath"
	"time"

	"github.com/gms-sim/gmsubpage/internal/dirlog"
	"github.com/gms-sim/gmsubpage/internal/obs"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/remote"
)

// Config tunes every shard a constructor starts.
type Config struct {
	// LeaseTTL is each shard's lease duration (zero selects the
	// directory's default). Shards track server liveness independently:
	// a page server leases itself to every shard and a dead one expires
	// from each within one TTL.
	LeaseTTL time.Duration

	// LookupService, when positive, emulates each shard's bounded
	// per-lookup service capacity (see remote.DirectoryConfig). Scale
	// experiments on one machine set this so N shards exhibit N service
	// slots, the way N real directory nodes would.
	LookupService time.Duration

	// Journal, when non-nil, makes each shard durable. StartShard uses
	// the options verbatim (one shard per process owns its directory);
	// StartCluster treats Journal.Dir as a root and gives shard i the
	// subdirectory shard-NNN, so an in-process cluster's journals never
	// collide. Each journal records its shard's identity (map version and
	// self index) and recovery refuses a journal written by a different
	// shard, so swapped data directories fail loudly instead of serving
	// another shard's pages.
	Journal *dirlog.Options

	// RestartGrace bounds how long recovered registrations survive after
	// a shard restart without a fresh heartbeat (see
	// remote.DirectoryConfig; zero selects one lease TTL).
	RestartGrace time.Duration
}

// directory is the DirectoryConfig for shard self of map m. A lone shard
// (inCluster false) journals to cfg.Journal verbatim; a cluster's shard
// journals to its own shard-NNN subdirectory of cfg.Journal.Dir.
func (cfg Config) directory(m proto.ShardMap, self int, inCluster bool) remote.DirectoryConfig {
	journal := cfg.Journal
	if journal != nil && inCluster {
		o := *journal
		o.Dir = filepath.Join(o.Dir, fmt.Sprintf("shard-%03d", self))
		journal = &o
	}
	return remote.DirectoryConfig{
		LeaseTTL:      cfg.LeaseTTL,
		LookupService: cfg.LookupService,
		Shard:         &remote.ShardConfig{Map: m, Self: self},
		Journal:       journal,
		RestartGrace:  cfg.RestartGrace,
	}
}

// StartShard starts one directory shard on addr serving shard index self
// of map m. The listen address must match m.Shards[self] in a real
// deployment — clients and servers will route page traffic there — but
// this is not enforced, so tests can stand up a shard behind a proxy.
func StartShard(addr string, m proto.ShardMap, self int, cfg Config) (*remote.Directory, error) {
	if !m.Sharded() {
		return nil, fmt.Errorf("dirshard: shard map is empty")
	}
	if self < 0 || self >= len(m.Shards) {
		return nil, fmt.Errorf("dirshard: self index %d outside map of %d shards", self, len(m.Shards))
	}
	return remote.ListenDirectoryWith(addr, cfg.directory(m, self, false))
}

// Cluster is a full sharded directory deployment running in-process: one
// remote.Directory per shard map entry, all serving the same map.
type Cluster struct {
	m      proto.ShardMap
	cfg    Config
	shards []*remote.Directory
}

// StartCluster starts n directory shards on ephemeral loopback ports and
// builds the version-1 shard map from their real addresses. n = 1 yields
// a single-shard map, which still exercises the shard-mode protocol
// (useful as the baseline arm of scale experiments); use the plain
// directory constructors for a truly unsharded deployment.
func StartCluster(n int, cfg Config) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("dirshard: cluster needs at least 1 shard, got %d", n)
	}
	lns := make([]net.Listener, 0, n)
	closeAll := func() {
		for _, ln := range lns {
			_ = ln.Close()
		}
	}
	m := proto.ShardMap{Version: 1}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("dirshard: shard %d listen: %w", i, err)
		}
		lns = append(lns, ln)
		m.Shards = append(m.Shards, ln.Addr().String())
	}
	c := &Cluster{m: m, cfg: cfg}
	for i, ln := range lns {
		d, err := remote.ListenDirectoryOnWith(ln, cfg.directory(m, i, true))
		if err != nil {
			closeAll()
			for _, prev := range c.shards {
				_ = prev.Close()
			}
			return nil, fmt.Errorf("dirshard: shard %d: %w", i, err)
		}
		c.shards = append(c.shards, d)
	}
	return c, nil
}

// N reports the number of shards.
func (c *Cluster) N() int { return len(c.shards) }

// Map returns the shard map the cluster serves.
func (c *Cluster) Map() proto.ShardMap { return c.m }

// Bootstrap returns the address clients and servers should be pointed at:
// shard 0. Any shard works — each serves the full map — but a fixed
// choice keeps experiments deterministic.
func (c *Cluster) Bootstrap() string { return c.m.Shards[0] }

// Shard returns shard i's directory, for tests that kill, interrogate, or
// instrument an individual shard.
func (c *Cluster) Shard(i int) *remote.Directory { return c.shards[i] }

// CrashShard simulates shard i dying mid-flight: the process goes away
// without flushing buffered journal records or closing its journal
// cleanly. Follow with RestartShard to model recovery. Only meaningful
// for durable clusters, but harmless otherwise.
func (c *Cluster) CrashShard(i int) error { return c.shards[i].Kill() }

// RestartShard brings shard i back on its original address with its
// original journal directory, replaying whatever the crash (or clean
// shutdown) left behind. The address was chosen by the OS at StartCluster
// time; rebinding it can briefly collide with TIME_WAIT or a lingering
// socket, so the listen is retried for ~2s before giving up.
func (c *Cluster) RestartShard(i int) error {
	addr := c.m.Shards[i]
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 40; attempt++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("dirshard: rebind shard %d on %s: %w", i, addr, err)
	}
	d, err := remote.ListenDirectoryOnWith(ln, c.cfg.directory(c.m, i, true))
	if err != nil {
		_ = ln.Close()
		return fmt.Errorf("dirshard: restart shard %d: %w", i, err)
	}
	c.shards[i] = d
	return nil
}

// SetMetrics registers shard i's gms_dir_* and gms_dirshard_* metrics on
// r (nil disables them). Each shard gets its own registry in a real
// deployment; passing distinct registries here models that.
func (c *Cluster) SetMetrics(i int, r *obs.Registry) { c.shards[i].SetMetrics(r) }

// Close shuts every shard down. Idempotent per shard; the first error
// wins.
func (c *Cluster) Close() error {
	var first error
	for _, d := range c.shards {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
