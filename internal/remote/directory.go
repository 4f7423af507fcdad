// Package remote is the networked remote-memory prototype: a global cache
// directory, page servers that donate memory, and a faulting client that
// keeps per-page subpage valid bits and fetches subpages over TCP using
// the paper's transfer policies (full page, lazy, eager fullpage fetch,
// subpage pipelining).
//
// It is the repository's stand-in for the paper's Digital Unix + AN2
// prototype: the same fault path — trap, directory lookup, request,
// subpage-first reply, asynchronous completion — over commodity TCP.
// Absolute latencies differ from the AN2 numbers, but the ordering the
// paper demonstrates (subpage faults complete in a fraction of a full-page
// fault) holds on loopback and real networks alike.
package remote

import (
	"fmt"
	"math"
	"net"
	"sort"
	"sync"
	"time"

	"github.com/gms-sim/gmsubpage/internal/dirlog"
	"github.com/gms-sim/gmsubpage/internal/obs"
	"github.com/gms-sim/gmsubpage/internal/proto"
)

// DefaultLeaseTTL is the lease duration used when DirectoryConfig.LeaseTTL
// is zero. It is deliberately generous: a server whose heartbeats stop is
// declared dead only after missing several renewal intervals.
const DefaultLeaseTTL = 30 * time.Second

// DirectoryConfig tunes the directory's liveness tracking and, when Shard
// is set, makes it one shard of a sharded deployment.
type DirectoryConfig struct {
	// LeaseTTL is how long a registration stays visible without a renewing
	// heartbeat. Zero selects DefaultLeaseTTL. Lookups filter expired
	// servers inline, so a dead address is never returned for longer than
	// one TTL even between janitor sweeps.
	LeaseTTL time.Duration

	// Shard, when non-nil, runs the directory as one shard of the given
	// map: lookups for pages another shard owns answer TWrongShard
	// (carrying the map, so the sender re-routes in one round trip), and
	// registrations are filtered to owned pages. Nil runs the classic
	// single-directory mode.
	Shard *ShardConfig

	// LookupService, when positive, emulates the bounded service capacity
	// of one directory node: each lookup holds the directory's single
	// service slot for this long. Loopback TCP makes a directory look
	// infinitely fast — the same way it hides the transfer-size effects
	// Server.SetWireMbps restores — so scale experiments set this to model
	// "one directory process has one CPU's worth of lookup throughput".
	// Zero (the default) disables emulation.
	LookupService time.Duration

	// Journal, when non-nil, makes the lease table durable: every state
	// transition is appended to a dirlog write-ahead journal in
	// Journal.Dir and compacted into snapshots, and construction replays
	// whatever a previous incarnation left there — epochs,
	// registrations, seniority and the shard assignment all survive a
	// directory crash. Nil (the default) keeps the classic in-memory
	// directory. The Journal.Meta field is overwritten from Shard.
	Journal *dirlog.Options

	// RestartGrace is how long recovered leases live before their first
	// post-restart heartbeat must land. Zero selects the lease TTL; the
	// value is capped at one TTL so a recovering directory never extends
	// a dead server's visibility beyond the bound PR 4 pinned.
	RestartGrace time.Duration
}

// ShardConfig identifies one directory shard: the versioned map of every
// shard in the deployment and this process's index into it.
type ShardConfig struct {
	Map  proto.ShardMap
	Self int
}

// Directory is the global cache directory (GCD): it maps pages to the
// servers storing them. A page registered by several servers has replicas;
// the earliest surviving registrant is the primary and lookups return the
// full list (primary first, remaining replicas in sorted address order) so
// clients can fail over deterministically.
//
// Liveness: each server's registration is a lease renewed by THeartbeat
// frames. A server that stops heartbeating expires after one LeaseTTL and
// its replicas are expunged. Registrations carry a per-server epoch; a
// restarted server registers with a higher epoch, which atomically fences
// out (expunges) every entry of its previous incarnation, while delayed
// frames from the old incarnation are rejected as stale. The highest epoch
// seen for an address is remembered even after its lease expires.
type Directory struct {
	serving *proto.Service
	ttl     time.Duration

	// Shard identity (immutable after construction). ring is nil in the
	// classic single-directory mode; when set, this directory owns only
	// the pages the ring maps to index self.
	ring *proto.Ring
	self int

	// Emulated per-lookup service time (see DirectoryConfig.LookupService):
	// svcGate is a width-1 semaphore serializing the emulated work, svcSlp
	// the precise sub-millisecond sleeper used while holding it.
	svc     time.Duration
	svcGate chan struct{}
	svcSlp  *sleeper

	// mu is an RWMutex because the directory is read-mostly: every fault
	// on every client is a Lookup, while Register/Heartbeat traffic is
	// per-server and periodic. Lookup/Replicas take the read lock and run
	// concurrently; only lease mutation takes the write lock.
	//
	// st is the lease table. The methods decide; commit lands a decision
	// as records, applied to st by State.Apply and appended to the
	// journal, so the live table is the replay of its own journal.
	mu   sync.RWMutex
	st   *dirlog.State
	done bool
	met  directoryMetrics // gms_dir_* handles; nil-safe no-ops by default

	// origin anchors lease times: expiries are the journal's Unix
	// nanoseconds, derived from the monotonic clock through nanos.
	origin time.Time

	// Durability (nil log = classic in-memory directory). pending
	// buffers lease renewals between janitor sweeps: heartbeats are far
	// too frequent to journal individually, and the restart grace window
	// covers whatever a crash drops from the buffer.
	log        *dirlog.Journal
	grace      time.Duration
	pending    []dirlog.Renew
	recoveredN int // servers restored from the journal at construction

	closeOnce sync.Once
	closeErr  error
	stop      chan struct{}
	wg        sync.WaitGroup
}

// ListenDirectory starts a directory on addr ("host:port", ":0" for an
// ephemeral port) with default liveness settings.
func ListenDirectory(addr string) (*Directory, error) {
	return ListenDirectoryWith(addr, DirectoryConfig{})
}

// ListenDirectoryWith starts a directory on addr with explicit liveness
// settings.
func ListenDirectoryWith(addr string, cfg DirectoryConfig) (*Directory, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: directory listen: %w", err)
	}
	d, err := ListenDirectoryOnWith(ln, cfg)
	if err != nil {
		_ = ln.Close()
		return nil, err
	}
	return d, nil
}

// ListenDirectoryOnWith starts a directory on an existing listener — the
// hook for running it behind a chaos injector or a custom transport — with
// explicit liveness settings. The only failure mode is a journal that
// cannot be opened or belongs to a different shard assignment; without
// cfg.Journal it never fails.
func ListenDirectoryOnWith(ln net.Listener, cfg DirectoryConfig) (*Directory, error) {
	ttl := cfg.LeaseTTL
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	grace := cfg.RestartGrace
	if grace <= 0 || grace > ttl {
		grace = ttl
	}
	d := &Directory{
		ttl:    ttl,
		grace:  grace,
		svc:    cfg.LookupService,
		st:     dirlog.NewState(),
		origin: time.Now(),
		stop:   make(chan struct{}),
	}
	if cfg.Shard != nil {
		d.ring = proto.NewRing(cfg.Shard.Map)
		d.self = cfg.Shard.Self
	}
	if cfg.Journal != nil {
		if err := d.openJournal(*cfg.Journal); err != nil {
			return nil, err
		}
	}
	if d.svc > 0 {
		d.svcGate = make(chan struct{}, 1)
		d.svcSlp = newSleeper()
	}
	d.wg.Add(1)
	go d.janitor()
	d.serving = proto.Serve(ln, func(pc *proto.Conn) proto.Handler {
		return proto.Handler{Frame: func(f proto.Frame) error { return d.handle(pc.Writer, f) }}
	})
	return d, nil
}

// openJournal opens (or creates) the write-ahead journal and adopts the
// table it recovers: epochs, registrations with their seniority, and —
// when this directory was started without a shard assignment — the
// assignment recorded by the previous incarnation. Restored leases get
// the restart grace window instead of their recorded expiry, so servers
// that outlived the directory have one window to heartbeat before the
// janitor may expunge them.
func (d *Directory) openJournal(opts dirlog.Options) error {
	opts.Meta = dirlog.Meta{Self: -1}
	if d.ring != nil {
		m := d.ring.Map()
		opts.Meta = dirlog.Meta{ShardVersion: m.Version, Shards: m.Shards, Self: d.self}
	}
	j, st, err := dirlog.Open(opts)
	if err != nil {
		return fmt.Errorf("remote: directory journal: %w", err)
	}
	if j.Info().Recovered && st.Meta.Sharded() {
		if d.ring == nil {
			// Adopt the recorded shard assignment: a restarted shard that
			// was not handed its config still comes back as itself.
			d.ring = proto.NewRing(proto.ShardMap{Version: st.Meta.ShardVersion, Shards: st.Meta.Shards})
			d.self = st.Meta.Self
		} else if !st.Meta.SameShard(opts.Meta) {
			_ = j.Close()
			return fmt.Errorf("remote: journal %s belongs to shard %d of map v%d, not shard %d of map v%d",
				opts.Dir, st.Meta.Self, st.Meta.ShardVersion, opts.Meta.Self, opts.Meta.ShardVersion)
		}
	}
	d.log, d.st = j, st
	// The grace window is the one write to the table that is not a
	// record: the recorded expiries are another process's clock, and
	// journaling the rewrite would only make the next recovery redo it.
	expires := d.nanos(time.Now().Add(d.grace))
	for _, s := range st.Servers {
		s.Expires = expires
	}
	d.recoveredN = len(st.Servers)
	// A drain that was mid-flight when the previous incarnation died has
	// no transfer running anymore: clear the mark (journaled, in address
	// order so two recoveries of one journal write the same bytes) and
	// let the admin re-issue the drain.
	draining := make([]string, 0, len(st.Draining))
	for addr := range st.Draining {
		draining = append(draining, addr)
	}
	sort.Strings(draining)
	for _, addr := range draining {
		d.commit(dirlog.DrainAbort{Addr: addr})
	}
	return nil
}

// nanos converts t to the lease table's clock, Unix nanoseconds, measured
// from origin on the monotonic clock so a wall-clock step cannot expire
// or revive a lease.
func (d *Directory) nanos(t time.Time) int64 {
	return d.origin.UnixNano() + int64(t.Sub(d.origin))
}

// commit lands a decision: recs are applied to the lease table, then
// journaled when durability is on. Called with d.mu held (or before the
// directory is shared). Append failures are deliberately non-fatal to the
// serving path — an in-memory directory ahead of its journal degrades to
// exactly the pre-durability behavior — but they are counted, and the
// recovery tests pin what replay loses.
func (d *Directory) commit(recs ...dirlog.Record) {
	for _, r := range recs {
		d.st.Apply(r)
	}
	d.met.pages.Set(int64(len(d.st.Holders)))
	if d.log == nil {
		return
	}
	if err := d.log.Append(recs...); err != nil {
		d.met.journalErrors.Inc()
	}
	d.met.journalRecords.Add(int64(len(recs)))
}

// Addr returns the directory's listen address.
func (d *Directory) Addr() string { return d.serving.Addr() }

// LeaseTTL reports the configured lease duration.
func (d *Directory) LeaseTTL() time.Duration { return d.ttl }

// ShardMap reports the shard map this directory serves (the zero map in
// single-directory mode).
func (d *Directory) ShardMap() proto.ShardMap { return d.ring.Map() }

// Owns reports whether this directory owns page: always true in
// single-directory mode, ring ownership in shard mode.
func (d *Directory) Owns(page uint64) bool {
	return d.ring == nil || d.ring.Owner(page) == d.self
}

// SetMetrics registers the directory's gms_dir_* metrics on r (nil
// disables them). A sharded directory additionally registers its
// gms_dirshard_* handles.
func (d *Directory) SetMetrics(r *obs.Registry) {
	d.mu.Lock()
	d.met = newDirectoryMetrics(r, d.ring != nil)
	d.met.pages.Set(int64(len(d.st.Holders)))
	d.met.recoveredServers.Set(int64(d.recoveredN))
	if d.ring != nil {
		d.met.shardSelf.Set(int64(d.self))
		d.met.shardMapVersion.Set(int64(d.ring.Map().Version))
		d.met.shardCount.Set(int64(len(d.ring.Map().Shards)))
	}
	d.mu.Unlock()
}

// serviceDelay emulates the configured per-lookup service time: the
// caller queues for the directory's single service slot and holds it for
// the service duration. No directory lock is held while waiting. A
// no-op when emulation is off.
func (d *Directory) serviceDelay() {
	if d.svc <= 0 {
		return
	}
	select {
	case d.svcGate <- struct{}{}:
	case <-d.stop:
		return
	}
	d.svcSlp.Sleep(d.svc)
	<-d.svcGate
}

// Close stops the directory, severing active connections. It is idempotent:
// concurrent and repeated calls all return the first call's error. A
// journaling directory flushes buffered renewals and fsyncs on the way
// out, so a clean shutdown recovers exactly.
func (d *Directory) Close() error {
	return d.shutdown(true)
}

// Kill stops the directory the way a crash would: connections are
// severed and the journal is abandoned without a final flush — buffered
// renewals and un-synced appends are lost, exactly as if the process had
// died. The chaos soak's restart path; a clean shutdown uses Close.
func (d *Directory) Kill() error {
	return d.shutdown(false)
}

func (d *Directory) shutdown(flush bool) error {
	d.closeOnce.Do(func() {
		close(d.stop)
		d.mu.Lock()
		d.done = true
		if d.log != nil {
			if flush {
				d.flushRenewsLocked()
				d.closeErr = d.log.Close()
			} else {
				_ = d.log.Crash()
			}
		}
		d.mu.Unlock()
		if err := d.serving.Close(); err != nil {
			d.closeErr = err
		}
		d.wg.Wait()
		d.svcSlp.Close()
	})
	return d.closeErr
}

// Lookup reports the primary server storing page, for tests and tools.
func (d *Directory) Lookup(page uint64) (string, bool) {
	now := time.Now()
	d.mu.RLock()
	defer d.mu.RUnlock()
	addrs := d.replicasLocked(page, now)
	if len(addrs) == 0 {
		return "", false
	}
	return addrs[0], true
}

// Replicas reports every live server registered for page: the primary
// (earliest surviving registrant) first, then the remaining replicas in
// sorted address order. Expired leases are filtered out inline.
func (d *Directory) Replicas(page uint64) []string {
	now := time.Now()
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.replicasLocked(page, now)
}

func (d *Directory) replicasLocked(page uint64, now time.Time) []string {
	var primary string
	primarySeq := uint64(math.MaxUint64)
	var rest []string
	t := d.nanos(now)
	for addr := range d.st.Holders[page] {
		s := d.st.Servers[addr]
		if t > s.Expires {
			continue
		}
		if s.Seq < primarySeq {
			if primary != "" {
				rest = append(rest, primary)
			}
			primary, primarySeq = addr, s.Seq
		} else {
			rest = append(rest, addr)
		}
	}
	if primary == "" {
		return nil
	}
	sort.Strings(rest)
	return append([]string{primary}, rest...)
}

// Len reports the number of pages with at least one live holder.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	t := d.nanos(time.Now())
	n := 0
	for _, holders := range d.st.Holders {
		for addr := range holders {
			if t <= d.st.Servers[addr].Expires {
				n++
				break
			}
		}
	}
	return n
}

// ServerEpoch reports the highest registration epoch seen for addr,
// whether or not its lease is still live. For tests and tools.
func (d *Directory) ServerEpoch(addr string) (uint64, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	e, ok := d.st.Epochs[addr]
	return e, ok
}

// applyRegister installs a registration. It reports false when the
// registration is stale (an epoch below the highest seen for the address),
// in which case the caller answers with an error so the sender knows it has
// been superseded. Registrations racing Close are acknowledged but not
// recorded.
func (d *Directory) applyRegister(reg proto.Register, now time.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done {
		return true
	}
	if reg.Epoch < d.st.Epochs[reg.Addr] {
		d.met.staleRejects.Inc()
		return false
	}
	// The same incarnation keeps its seniority; a new one (whose record
	// fences out every entry of the old) ranks behind every holder.
	seq := d.st.Seq + 1
	if s := d.st.Servers[reg.Addr]; s != nil && s.Epoch == reg.Epoch {
		seq = s.Seq
	}
	accepted := make([]uint64, 0, len(reg.Pages))
	for _, p := range reg.Pages {
		if !d.Owns(p) {
			// A shard records only the pages the ring assigns it. Servers
			// partition registrations by owner, so foreign pages here mean
			// the sender holds a stale map; dropping them (and counting)
			// keeps a misrouted batch from resurrecting moved entries.
			d.met.foreignPages.Inc()
			continue
		}
		accepted = append(accepted, p)
	}
	d.commit(dirlog.Register{
		Addr: reg.Addr, Epoch: reg.Epoch, Seq: seq, Expires: d.nanos(now.Add(d.ttl)), Pages: accepted,
	})
	d.maybeSnapshotLocked()
	d.met.registers.Inc()
	return true
}

// renewLease extends the lease named by a heartbeat. It reports false when
// the registration is unknown, superseded, or already expired — the sender
// must re-register.
func (d *Directory) renewLease(hb proto.Heartbeat, now time.Time) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done {
		return true
	}
	s := d.st.Servers[hb.Addr]
	if s == nil || s.Epoch != hb.Epoch || d.nanos(now) > s.Expires {
		return false
	}
	rn := dirlog.Renew{Addr: hb.Addr, Epoch: hb.Epoch, Expires: d.nanos(now.Add(d.ttl))}
	// The one record applied now but journaled later: heartbeats are too
	// frequent to journal one record each, so the renewal is buffered and
	// the janitor flushes the batch. A crash drops at most one sweep
	// period of renewals, which the restart grace window re-grants
	// wholesale.
	d.st.Apply(dirlog.RenewBatch{Renews: []dirlog.Renew{rn}})
	if d.log != nil {
		d.pending = append(d.pending, rn)
	}
	d.met.heartbeats.Inc()
	return true
}

// janitor periodically expunges expired leases. Lookups filter expired
// entries inline, so the sweep only reclaims memory; staleness is bounded
// by the TTL either way.
func (d *Directory) janitor() {
	defer d.wg.Done()
	period := d.ttl / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case now := <-t.C:
			d.sweep(now)
		}
	}
}

func (d *Directory) sweep(now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.flushRenewsLocked()
	t := d.nanos(now)
	var expired []string
	for addr, s := range d.st.Servers {
		if t > s.Expires {
			expired = append(expired, addr)
			d.met.expiries.Inc()
		}
	}
	if len(expired) > 0 {
		sort.Strings(expired) // deterministic journal across map iteration orders
		d.commit(dirlog.Expunge{Addrs: expired})
	}
	d.maybeSnapshotLocked()
}

// flushRenewsLocked journals the buffered lease renewals as one batch
// record. Applying them again changes the table only where replay would
// too: a registration timed before a renewal but applied after it.
// Called with d.mu held.
func (d *Directory) flushRenewsLocked() {
	if len(d.pending) > 0 {
		d.commit(dirlog.RenewBatch{Renews: d.pending})
		d.pending = d.pending[:0]
	}
}

// maybeSnapshotLocked compacts the journal once the wal passes the
// configured threshold: buffered renewals are flushed first so the
// snapshot state is at least as new as every journaled record, then the
// current table rotates in as the next generation. Called with d.mu
// held; the file writes happen under the lock, which is acceptable for a
// rotation that runs once per thousands of transitions.
func (d *Directory) maybeSnapshotLocked() {
	if d.log == nil || !d.log.ShouldSnapshot() {
		return
	}
	d.flushRenewsLocked()
	if err := d.log.Snapshot(d.st); err != nil {
		d.met.journalErrors.Inc()
		return
	}
	d.met.snapshots.Inc()
}

// StateSnapshot exports the directory's lease table — epochs,
// registrations, draining marks — for tests and tools. The returned
// state is a deep copy.
func (d *Directory) StateSnapshot() *dirlog.State {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.st.Clone()
}

// RecoveredServers reports how many registrations this directory
// restored from its journal at startup (zero without one, or on a fresh
// journal).
func (d *Directory) RecoveredServers() int { return d.recoveredN }

// JournalInfo reports what recovery found when the directory opened its
// journal (the zero Info without one).
func (d *Directory) JournalInfo() dirlog.Info {
	if d.log == nil {
		return dirlog.Info{}
	}
	return d.log.Info()
}

// handle answers one request. A stale registration, a lost lease and a
// failed drain are answers (TError), not refusals: the connection stays.
func (d *Directory) handle(w *proto.Writer, f proto.Frame) error {
	switch f.Type {
	case proto.TRegister:
		reg, err := proto.DecodeRegister(f.Payload)
		if err != nil {
			return err
		}
		if !d.applyRegister(reg, time.Now()) {
			return w.SendError(fmt.Sprintf("directory: stale epoch %d for %s", reg.Epoch, reg.Addr))
		}
		return w.SendAck()
	case proto.THeartbeat:
		hb, err := proto.DecodeHeartbeat(f.Payload)
		if err != nil {
			return err
		}
		if !d.renewLease(hb, time.Now()) {
			return w.SendError(fmt.Sprintf("directory: no lease for %s epoch %d", hb.Addr, hb.Epoch))
		}
		return w.SendAck()
	case proto.TLookup:
		lk, err := proto.DecodeLookup(f.Payload)
		if err != nil {
			return err
		}
		if !d.Owns(lk.Page) {
			// Misdirected lookup: answer with the current map so the client
			// both learns the right shard and refreshes its cache in this
			// one round trip.
			d.mu.RLock()
			d.met.wrongShard.Inc()
			d.mu.RUnlock()
			return w.SendWrongShard(proto.WrongShard{Page: lk.Page, Map: d.ring.Map()})
		}
		d.serviceDelay()
		now := time.Now()
		d.mu.RLock()
		addrs := d.replicasLocked(lk.Page, now)
		d.met.lookups.Inc()
		d.mu.RUnlock()
		return w.SendLookupReply(proto.LookupReply{Page: lk.Page, Addrs: addrs})
	case proto.TGetShardMap:
		d.mu.RLock()
		d.met.mapRequests.Inc()
		d.mu.RUnlock()
		return w.SendShardMap(d.ring.Map())
	case proto.TDrain:
		dr, err := proto.DecodeDrain(f.Payload)
		if err != nil {
			return err
		}
		moved, err := d.Drain(dr.Addr)
		if err != nil {
			return w.SendError(fmt.Sprintf("directory: drain %s: %v", dr.Addr, err))
		}
		return w.SendDrainReply(proto.DrainReply{Moved: uint32(moved)})
	default:
		return fmt.Errorf("directory: unexpected %v", f.Type)
	}
}
