package gmsubpage

import (
	"time"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/dirlog"
	"github.com/gms-sim/gmsubpage/internal/dirshard"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/remote"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// This file exposes the live TCP remote-memory prototype: a directory, a
// page server donating memory, and a faulting client whose page cache
// keeps per-subpage valid bits and fetches with the paper's policies.

// Directory is a running global cache directory.
type Directory struct{ d *remote.Directory }

// DirectoryOptions shape a directory, most notably its durability (see
// DESIGN.md §12 and the README's "Durability" section). The zero value is
// an in-memory directory with the default lease TTL.
type DirectoryOptions struct {
	// LeaseTTL is how long a registration stays visible without a
	// renewing heartbeat (0 = default 30s). A dead page server stops
	// being returned by lookups within one TTL.
	LeaseTTL time.Duration

	// JournalDir, when non-empty, makes the directory durable: every
	// state transition is appended to a write-ahead journal in this
	// directory and compacted into snapshots, and a restart replays
	// whatever a previous incarnation left there — registrations,
	// seniority and epoch fences all survive a crash. Empty (the
	// default) keeps the classic in-memory directory.
	JournalDir string
	// Fsync is the journal's fsync policy: "always" (every append),
	// "interval" (batched, the default) or "never" (the OS decides).
	Fsync string
	// SnapshotEvery is how many journal records accumulate before the
	// directory writes a compacting snapshot (0 = default).
	SnapshotEvery int
	// RestartGrace is how long recovered leases live before their first
	// post-restart heartbeat must land (0 = one lease TTL; capped at one
	// TTL).
	RestartGrace time.Duration
}

func (o DirectoryOptions) journal() (*dirlog.Options, error) {
	if o.JournalDir == "" {
		return nil, nil
	}
	fsync, err := dirlog.ParseFsync(o.Fsync)
	if err != nil {
		return nil, err
	}
	return &dirlog.Options{Dir: o.JournalDir, Fsync: fsync, SnapshotEvery: o.SnapshotEvery}, nil
}

// StartDirectory starts a directory on addr (use "127.0.0.1:0" for an
// ephemeral port).
func StartDirectory(addr string, opts DirectoryOptions) (*Directory, error) {
	jopts, err := opts.journal()
	if err != nil {
		return nil, err
	}
	d, err := remote.ListenDirectoryWith(addr, remote.DirectoryConfig{
		LeaseTTL:     opts.LeaseTTL,
		Journal:      jopts,
		RestartGrace: opts.RestartGrace,
	})
	if err != nil {
		return nil, err
	}
	return &Directory{d: d}, nil
}

// StartDirectoryShard starts one shard of a sharded directory deployment:
// the process listens on addr and owns the slice of the page-ID space a
// consistent-hash ring over shardAddrs assigns to index self. Every shard
// of a deployment must be started with the same shardAddrs (in the same
// order) and version. Clients and page servers need no special
// configuration — they bootstrap from any shard, fetch the map, and route
// per page; see the README's "Scale-out" section. With JournalDir set, the
// shard's journal records its identity (map version and self index) and a
// restart refuses a journal written by a different shard.
func StartDirectoryShard(addr string, shardAddrs []string, self int, version uint64, opts DirectoryOptions) (*Directory, error) {
	jopts, err := opts.journal()
	if err != nil {
		return nil, err
	}
	d, err := dirshard.StartShard(addr, proto.ShardMap{Version: version, Shards: shardAddrs}, self, dirshard.Config{
		LeaseTTL:     opts.LeaseTTL,
		Journal:      jopts,
		RestartGrace: opts.RestartGrace,
	})
	if err != nil {
		return nil, err
	}
	return &Directory{d: d}, nil
}

// Addr returns the directory's listen address.
func (d *Directory) Addr() string { return d.d.Addr() }

// Pages returns the number of registered pages.
func (d *Directory) Pages() int { return d.d.Len() }

// RecoveredServers reports how many server registrations this directory
// recovered from its journal at startup (0 without a journal, or for a
// fresh one).
func (d *Directory) RecoveredServers() int { return d.d.RecoveredServers() }

// Drain gracefully removes the page server at serverAddr from this
// directory: every page for which it holds the only live copy is copied
// to a surviving server first, then the registration is expunged behind
// an epoch fence so the drained server cannot wander back with a stale
// epoch. It returns the number of pages moved. Clients faulting
// concurrently never observe ErrPageUnavailable for a drained page.
func (d *Directory) Drain(serverAddr string) (int, error) { return d.d.Drain(serverAddr) }

// DrainServer asks the directory at dirAddr (over the wire, the way an
// operator would) to drain the page server at serverAddr; see
// Directory.Drain. Zero timeout selects a default.
func DrainServer(dirAddr, serverAddr string, timeout time.Duration) (int, error) {
	return remote.DrainVia(dirAddr, serverAddr, timeout)
}

// Close stops the directory.
func (d *Directory) Close() error { return d.d.Close() }

// PageServer is a running page server.
type PageServer struct{ s *remote.Server }

// StartServer starts a page server on addr.
func StartServer(addr string) (*PageServer, error) {
	s, err := remote.ListenServer(addr)
	if err != nil {
		return nil, err
	}
	return &PageServer{s: s}, nil
}

// Addr returns the server's listen address.
func (s *PageServer) Addr() string { return s.s.Addr() }

// Store makes the server hold a page of data (copied, zero-padded to
// PageSize).
func (s *PageServer) Store(page uint64, data []byte) { s.s.Store(page, data) }

// StoreRange fills pages [first, first+count) with zero pages, donating
// count*8KB of memory.
func (s *PageServer) StoreRange(first uint64, count int) {
	for i := 0; i < count; i++ {
		s.s.Store(first+uint64(i), nil)
	}
}

// Register announces every stored page to the directory and takes out a
// lease there, renewed by a background heartbeat until Close. The directory
// address is remembered, so a lost lease (expiry, directory restart) heals
// by automatic re-registration. An unreachable directory yields an error
// matching ErrDirectoryUnreachable.
func (s *PageServer) Register(dirAddr string) error { return s.s.RegisterWith(dirAddr) }

// SetHeartbeatInterval overrides the lease-renewal period (default 5s);
// keep it well under the directory's lease TTL.
func (s *PageServer) SetHeartbeatInterval(d time.Duration) { s.s.SetHeartbeatInterval(d) }

// Pages returns the number of stored pages.
func (s *PageServer) Pages() int { return s.s.Pages() }

// SetWireMbps emulates a network link of the given rate (megabits per
// second) by delaying each data batch for its serialization time; 0
// disables emulation. Loopback TCP is effectively infinitely fast, which
// hides the transfer-size effects the paper measures on its 155 Mb/s ATM.
func (s *PageServer) SetWireMbps(mbps float64) { s.s.SetWireMbps(mbps) }

// Close stops the server.
func (s *PageServer) Close() error { return s.s.Close() }

// ClientOptions shape a remote-memory client.
type ClientOptions struct {
	// CachePages is local memory in pages (default 64).
	CachePages int
	// SubpageSize is the transfer granularity (default 1024).
	SubpageSize int
	// Policy is FullPage, Lazy, Eager, Pipelined or Prefetch (default
	// Eager). Prefetch enables the learned prefetcher: predictions ride
	// the want bitmap over the lazy wire policy, so it needs no wire tag
	// of its own.
	Policy Policy

	// Resilience knobs (see the "Failure model and resilience" section of
	// the README). The zero value of each picks a sensible default.

	// DialTimeout bounds each directory or server dial (default 1s).
	DialTimeout time.Duration
	// RequestTimeout bounds each lookup RPC and each page-fetch attempt
	// (default 2s); an expired attempt is retried, not hung on.
	RequestTimeout time.Duration
	// MaxRetries bounds retries beyond the first attempt (default 3;
	// negative disables retries). Exhausting the budget fails the access
	// with an error matching ErrPageUnavailable.
	MaxRetries int
	// Hedge, when positive, duplicates a fetch to a replica if the
	// faulted subpage has not arrived after this delay, trading
	// bandwidth for tail latency.
	Hedge time.Duration
	// BreakerThreshold opens a per-server circuit breaker after this many
	// consecutive failed fetch attempts on one server (default 3; negative
	// disables). A tripped server is shunned until a half-open probe
	// succeeds after BreakerCooldown, so a dead node costs one timeout
	// rather than one per fault.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker shuns its server
	// before probing it again (default 1s).
	BreakerCooldown time.Duration

	// Metrics, when non-nil, receives the client's gms_client_* metrics
	// (see the README's Observability section). nil disables collection
	// at zero cost on the fault path.
	Metrics *Metrics
}

// ErrPageUnavailable is matched (via errors.Is) by read and write errors
// when a page cannot be fetched from any replica within the retry budget.
var ErrPageUnavailable = remote.ErrPageUnavailable

// ErrDirectoryUnreachable is matched (via errors.Is) by Register errors
// when the directory cannot be dialed.
var ErrDirectoryUnreachable = remote.ErrDirectoryUnreachable

// Client is a faulting node using remote memory through the directory.
type Client struct{ c *remote.Client }

// DialClient connects a client to the directory at dirAddr.
func DialClient(dirAddr string, opts ClientOptions) (*Client, error) {
	var wire uint8
	prefetch := opts.Policy == Prefetch
	if !prefetch {
		var err error
		if wire, err = core.WireByte(string(opts.Policy)); err != nil {
			return nil, err
		}
	}
	c, err := remote.Dial(remote.ClientConfig{
		Directory:        dirAddr,
		CachePages:       opts.CachePages,
		SubpageSize:      opts.SubpageSize,
		Policy:           wire,
		Prefetch:         prefetch,
		DialTimeout:      opts.DialTimeout,
		RequestTimeout:   opts.RequestTimeout,
		MaxRetries:       opts.MaxRetries,
		Hedge:            opts.Hedge,
		BreakerThreshold: opts.BreakerThreshold,
		BreakerCooldown:  opts.BreakerCooldown,
		Metrics:          opts.Metrics.registry(),
	})
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// Read fills buf from the global address addr, faulting in missing
// subpages over the network.
func (c *Client) Read(buf []byte, addr uint64) error { return c.c.Read(buf, addr) }

// Write stores buf at the global address addr; dirty pages are written
// back to their server on eviction.
func (c *Client) Write(buf []byte, addr uint64) error { return c.c.Write(buf, addr) }

// ClientStats snapshots a client's counters.
type ClientStats struct {
	Faults    int64
	Evictions int64
	PutPages  int64
	// PutDrops counts dirty evictions no replica took: the write is lost.
	PutDrops int64
	// PutBytes counts write-back payload bytes: only the dirty 256 B
	// blocks of each evicted page, once per replica that took them.
	PutBytes int64
	BytesIn  int64
	// Resilience counters: attempts beyond the first, retries that moved
	// to a different replica, hedged duplicate fetches, and cancel frames
	// withdrawing superseded fetches.
	Retries   int64
	Failovers int64
	Hedges    int64
	Cancels   int64
	// Predicted counts fetches whose want bitmap carried the learned
	// prefetcher's predictions.
	Predicted int64
	// Circuit-breaker state: trips (closed->open), half-open probes
	// granted, and servers currently shunned.
	BreakerOpens  int64
	BreakerProbes int64
	OpenBreakers  int
	// Sharded-directory counters: lookups bounced by a shard that did not
	// own the page, and shard-map installs (bootstrap fetch plus every
	// newer map learned from a bounce).
	WrongShard   int64
	MapRefreshes int64
	// Median fault-to-subpage-arrival and fault-to-complete-page times.
	SubpageLatencyUs float64
	FullLatencyUs    float64
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	st := c.c.Stats()
	return ClientStats{
		Faults:           st.Faults,
		Evictions:        st.Evictions,
		PutPages:         st.PutPages,
		PutDrops:         st.PutDrops,
		PutBytes:         st.PutBytes,
		BytesIn:          st.BytesIn,
		Retries:          st.Retries,
		Failovers:        st.Failovers,
		Hedges:           st.Hedges,
		Cancels:          st.Cancels,
		Predicted:        st.Predicted,
		BreakerOpens:     st.BreakerOpens,
		BreakerProbes:    st.BreakerProbes,
		OpenBreakers:     st.OpenBreakers,
		WrongShard:       st.WrongShard,
		MapRefreshes:     st.MapRefreshes,
		SubpageLatencyUs: st.SubpageLat.Median(),
		FullLatencyUs:    st.FullLat.Median(),
	}
}

// Close tears the client down.
func (c *Client) Close() error { return c.c.Close() }

// Pager views a region of remote memory through io.ReaderAt /
// io.WriterAt, so remote memory can back anything that reads and writes at
// offsets (archive readers, index files, mmap-style accessors).
type Pager struct{ p *remote.Pager }

// NewPager views size bytes of remote memory starting at global address
// base.
func (c *Client) NewPager(base uint64, size int64) (*Pager, error) {
	p, err := c.c.NewPager(base, size)
	if err != nil {
		return nil, err
	}
	return &Pager{p: p}, nil
}

// Size returns the pager's extent in bytes.
func (p *Pager) Size() int64 { return p.p.Size() }

// ReadAt implements io.ReaderAt over remote memory.
func (p *Pager) ReadAt(b []byte, off int64) (int, error) { return p.p.ReadAt(b, off) }

// WriteAt implements io.WriterAt over remote memory.
func (p *Pager) WriteAt(b []byte, off int64) (int, error) { return p.p.WriteAt(b, off) }

// Compile-time check that PageSize stays consistent with the internal
// definition the wire protocol assumes.
var _ = [1]struct{}{}[PageSize-units.PageSize]
