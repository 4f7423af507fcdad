package remote

import "github.com/gms-sim/gmsubpage/internal/obs"

// This file declares the directory's metric handles. The client, the page
// server and the chaos injector keep one record of every event — the
// fields of Stats, Server and chaos.Network, whose metric tags name their
// series — which a registry reads at scrape time, so their hot paths do no
// metrics work. The directory's events have no record of their own beyond
// these handles: each is counted once, here, and a directory built without
// a registry holds nil handles at one pointer compare per event (pinned by
// BenchmarkDisabledCounter in internal/obs).
//
// Metric names are part of the observability surface and documented in the
// README's Observability section; rename them there too.

// directoryMetrics are the directory's handles. The gms_dirshard_* block
// is only registered for sharded directories (nil handles otherwise, so
// single-directory deployments expose exactly the surface they always
// did).
type directoryMetrics struct {
	lookups      *obs.Counter
	registers    *obs.Counter
	heartbeats   *obs.Counter
	staleRejects *obs.Counter
	expiries     *obs.Counter

	// Durability handles (gms_dirlog_*); registered alongside the core
	// block, nil-safe no-ops for in-memory directories like the rest.
	journalRecords *obs.Counter
	journalErrors  *obs.Counter
	snapshots      *obs.Counter
	drains         *obs.Counter
	drainMoved     *obs.Counter

	// Shard-mode handles (gms_dirshard_*).
	wrongShard      *obs.Counter
	mapRequests     *obs.Counter
	foreignPages    *obs.Counter
	shardSelf       *obs.Gauge
	shardMapVersion *obs.Gauge
	shardCount      *obs.Gauge
}

func newDirectoryMetrics(r *obs.Registry, sharded bool) directoryMetrics {
	m := directoryMetrics{
		lookups:      r.Counter("gms_dir_lookups_total", "lookup RPCs answered"),
		registers:    r.Counter("gms_dir_registers_total", "server registrations applied"),
		heartbeats:   r.Counter("gms_dir_heartbeats_total", "lease renewals applied"),
		staleRejects: r.Counter("gms_dir_stale_rejects_total", "registrations rejected for a stale epoch"),
		expiries:     r.Counter("gms_dir_lease_expiries_total", "server leases expired by the janitor"),

		journalRecords: r.Counter("gms_dirlog_records_total", "state transitions appended to the write-ahead journal"),
		journalErrors:  r.Counter("gms_dirlog_errors_total", "journal appends that failed (directory keeps serving in memory)"),
		snapshots:      r.Counter("gms_dirlog_snapshots_total", "compacting snapshots written"),
		drains:         r.Counter("gms_dir_drains_total", "graceful server drains completed"),
		drainMoved:     r.Counter("gms_dir_drain_pages_moved_total", "sole-copy pages transferred off draining servers"),
	}
	if sharded {
		m.wrongShard = r.Counter("gms_dirshard_wrong_shard_total", "lookups answered TWrongShard: the page belongs to another shard")
		m.mapRequests = r.Counter("gms_dirshard_map_requests_total", "shard-map fetches answered")
		m.foreignPages = r.Counter("gms_dirshard_foreign_pages_total", "registered pages dropped because another shard owns them")
		m.shardSelf = r.Gauge("gms_dirshard_self", "this shard's index in the shard map")
		m.shardMapVersion = r.Gauge("gms_dirshard_map_version", "version of the shard map being served")
		m.shardCount = r.Gauge("gms_dirshard_shards", "number of shards in the map being served")
	}
	return m
}
