package remote

import "github.com/gms-sim/gmsubpage/internal/obs"

// This file declares the prototype's metric handles. Every handle is
// nil-safe: a component built without a registry records into nil handles,
// which cost one pointer compare per event — the fault hot path pays
// nothing measurable when metrics are off (pinned by
// BenchmarkDisabledCounter in internal/obs).
//
// Metric names are part of the observability surface and documented in the
// README's Observability section; rename them there too.

// clientMetrics are the faulting client's handles.
type clientMetrics struct {
	faults        *obs.Counter
	evictions     *obs.Counter
	putPages      *obs.Counter
	putDrops      *obs.Counter
	bytesIn       *obs.Counter
	retries       *obs.Counter
	failovers     *obs.Counter
	hedges        *obs.Counter
	cancels       *obs.Counter
	breakerOpens  *obs.Counter
	breakerProbes *obs.Counter
	openBreakers  *obs.Gauge
	wrongShard    *obs.Counter
	mapRefreshes  *obs.Counter
	subpageLat    *obs.Histogram
	fullLat       *obs.Histogram
}

func newClientMetrics(r *obs.Registry) clientMetrics {
	return clientMetrics{
		faults:        r.Counter("gms_client_faults_total", "page faults issued to remote memory"),
		evictions:     r.Counter("gms_client_evictions_total", "pages evicted from the local cache"),
		putPages:      r.Counter("gms_client_putpages_total", "dirty pages written back on eviction"),
		putDrops:      r.Counter("gms_client_put_drops_total", "dirty evictions not written back: no replica, or the page never fully valid"),
		bytesIn:       r.Counter("gms_client_bytes_in_total", "page data bytes received"),
		retries:       r.Counter("gms_client_retries_total", "fault or lookup attempts beyond the first"),
		failovers:     r.Counter("gms_client_failovers_total", "retries redirected to a different replica"),
		hedges:        r.Counter("gms_client_hedges_total", "duplicate GetPages sent to mask a slow primary"),
		cancels:       r.Counter("gms_client_cancels_total", "cancel frames sent to withdraw superseded v2 requests"),
		breakerOpens:  r.Counter("gms_client_breaker_opens_total", "circuit breakers tripped (closed to open)"),
		breakerProbes: r.Counter("gms_client_breaker_probes_total", "half-open probes granted after a cooldown"),
		openBreakers:  r.Gauge("gms_client_open_breakers", "servers currently shunned by their breaker"),
		wrongShard:    r.Counter("gms_client_wrong_shard_total", "lookups bounced by a shard that did not own the page"),
		mapRefreshes:  r.Counter("gms_client_shardmap_refreshes_total", "shard-map installs (bootstrap fetches and TWrongShard refreshes)"),
		subpageLat:    r.Histogram("gms_client_subpage_latency_us", "fault to faulted-subpage arrival, microseconds", nil),
		fullLat:       r.Histogram("gms_client_full_latency_us", "fault to complete page arrival, microseconds", nil),
	}
}

// serverMetrics are a page server's handles.
type serverMetrics struct {
	gets       *obs.Counter
	puts       *obs.Counter
	bytesOut   *obs.Counter
	heartbeats *obs.Counter
	reregs     *obs.Counter
	pages      *obs.Gauge
}

func newServerMetrics(r *obs.Registry) serverMetrics {
	return serverMetrics{
		gets:       r.Counter("gms_server_gets_total", "GetPage requests served"),
		puts:       r.Counter("gms_server_puts_total", "PutPage requests accepted"),
		bytesOut:   r.Counter("gms_server_bytes_out_total", "page data bytes sent"),
		heartbeats: r.Counter("gms_server_heartbeats_total", "lease-renewal heartbeats sent to the directory"),
		reregs:     r.Counter("gms_server_reregistrations_total", "full re-registrations after a lost lease"),
		pages:      r.Gauge("gms_server_pages", "pages currently hosted"),
	}
}

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
	pages        *obs.Gauge

	// Durability handles (gms_dirlog_*); registered alongside the core
	// block, nil-safe no-ops for in-memory directories like the rest.
	journalRecords   *obs.Counter
	journalErrors    *obs.Counter
	snapshots        *obs.Counter
	recoveredServers *obs.Gauge
	drains           *obs.Counter
	drainMoved       *obs.Counter

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
		pages:        r.Gauge("gms_dir_pages", "pages currently mapped to at least one server"),

		journalRecords:   r.Counter("gms_dirlog_records_total", "state transitions appended to the write-ahead journal"),
		journalErrors:    r.Counter("gms_dirlog_errors_total", "journal appends that failed (directory keeps serving in memory)"),
		snapshots:        r.Counter("gms_dirlog_snapshots_total", "compacting snapshots written"),
		recoveredServers: r.Gauge("gms_dirlog_recovered_servers", "registrations restored from the journal at startup"),
		drains:           r.Counter("gms_dir_drains_total", "graceful server drains completed"),
		drainMoved:       r.Counter("gms_dir_drain_pages_moved_total", "sole-copy pages transferred off draining servers"),
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
