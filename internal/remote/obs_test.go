package remote

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gms-sim/gmsubpage/internal/chaos"
	"github.com/gms-sim/gmsubpage/internal/obs"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// TestStatsSnapshotCoherentUnderRace hammers Stats() while faults trip the
// breaker on a dead primary. Run under -race it pins the locking; the
// invariants below pin coherence: every snapshot is one cut, so the breaker
// counters can never run ahead of the fault/retry counters that implied
// them (the bug this replaces: breaker counters were read in a second,
// separate critical section).
func TestStatsSnapshotCoherentUnderRace(t *testing.T) {
	dir, srvA, srvB := replicatedCluster(t, 8)
	_ = srvB
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}
	const threshold = 2
	c := testClient(t, dir, fastRetry(ClientConfig{
		CachePages:       4,
		BreakerThreshold: threshold,
		BreakerCooldown:  time.Minute, // no probes during the test
	}))

	done := make(chan struct{})
	var wg sync.WaitGroup
	var mu sync.Mutex
	var violation error
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				st := c.Stats()
				var err error
				switch {
				case st.OpenBreakers < 0 || int64(st.OpenBreakers) > st.BreakerOpens:
					err = fmt.Errorf("OpenBreakers=%d outside [0, BreakerOpens=%d]",
						st.OpenBreakers, st.BreakerOpens)
				case threshold*st.BreakerOpens > st.Faults+st.Retries:
					err = fmt.Errorf("BreakerOpens=%d ahead of Faults=%d+Retries=%d",
						st.BreakerOpens, st.Faults, st.Retries)
				}
				if err != nil {
					mu.Lock()
					if violation == nil {
						violation = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}

	buf := make([]byte, 64)
	for p := 0; p < 8; p++ {
		if err := c.Read(buf, uint64(p)*units.PageSize); err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
	}
	close(done)
	wg.Wait()
	if violation != nil {
		t.Fatalf("incoherent snapshot observed: %v", violation)
	}
	if st := c.Stats(); st.BreakerOpens == 0 {
		t.Fatalf("test never exercised the breaker: %+v", st)
	}
}

// parentMetricNames is every name one client, one page server and one
// unsharded in-memory directory expose on a shared registry. Counting each
// event once changed where the values come from, not what is exposed;
// block write-back added gms_client_put_bytes_total.
var parentMetricNames = []string{
	"gms_client_breaker_opens_total",
	"gms_client_breaker_probes_total",
	"gms_client_bytes_in_total",
	"gms_client_cancels_total",
	"gms_client_evictions_total",
	"gms_client_failovers_total",
	"gms_client_faults_total",
	"gms_client_full_latency_us",
	"gms_client_hedges_total",
	"gms_client_open_breakers",
	"gms_client_put_bytes_total",
	"gms_client_put_drops_total",
	"gms_client_putpages_total",
	"gms_client_retries_total",
	"gms_client_shardmap_refreshes_total",
	"gms_client_subpage_latency_us",
	"gms_client_wrong_shard_total",
	"gms_dir_drain_pages_moved_total",
	"gms_dir_drains_total",
	"gms_dir_heartbeats_total",
	"gms_dir_lease_expiries_total",
	"gms_dir_lookups_total",
	"gms_dir_pages",
	"gms_dir_registers_total",
	"gms_dir_stale_rejects_total",
	"gms_dirlog_errors_total",
	"gms_dirlog_records_total",
	"gms_dirlog_recovered_servers",
	"gms_dirlog_snapshots_total",
	"gms_server_bytes_out_total",
	"gms_server_gets_total",
	"gms_server_heartbeats_total",
	"gms_server_pages",
	"gms_server_puts_total",
	"gms_server_reregistrations_total",
}

// exposition scrapes reg: every sample line's value by series name.
func exposition(t *testing.T, reg *obs.Registry) (names []string, vals map[string]float64) {
	t.Helper()
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	vals = make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			names = append(names, strings.Fields(name)[0])
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, v, _ := strings.Cut(line, " ")
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("bad sample line %q", line)
		}
		vals[series] = f
	}
	return names, vals
}

// TestClientMetricsMirrorStats is the exposition's golden test: a fixed
// in-process run exposes exactly parentMetricNames, and every client and
// server series reads the component's own record — the Stats snapshot and
// the Server's fields — with nothing kept on the side to drift.
func TestClientMetricsMirrorStats(t *testing.T) {
	dir, srv := testCluster(t, 6)
	reg := obs.NewRegistry()
	dir.SetMetrics(reg)
	srv.SetMetrics(reg)
	c := testClient(t, dir, ClientConfig{CachePages: 3, Metrics: reg})
	page := make([]byte, units.PageSize)
	if err := c.Write(page, 0); err != nil {
		t.Fatal(err)
	}
	// Whole-page reads return once the page is complete, so the client is
	// quiescent when it is scraped.
	for p := 1; p < 6; p++ {
		if err := c.Read(page, uint64(p)*units.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.Puts == 1
	}, "the dirty page's write-back to land")
	st := c.Stats()
	if st.Faults != 6 || st.Evictions != 3 || st.PutPages != 1 || st.PutBytes != units.PageSize {
		t.Fatalf("not the fixed run: %+v", st)
	}

	names, vals := exposition(t, reg)
	if !slices.Equal(names, parentMetricNames) {
		t.Fatalf("exposed names changed:\n got  %v\n want %v", names, parentMetricNames)
	}
	srv.mu.Lock()
	gets, puts := srv.Gets, srv.Puts
	srv.mu.Unlock()
	want := map[string]int64{
		"gms_client_faults_total":             st.Faults,
		"gms_client_evictions_total":          st.Evictions,
		"gms_client_putpages_total":           st.PutPages,
		"gms_client_put_drops_total":          st.PutDrops,
		"gms_client_put_bytes_total":          st.PutBytes,
		"gms_client_bytes_in_total":           st.BytesIn,
		"gms_client_retries_total":            st.Retries,
		"gms_client_failovers_total":          st.Failovers,
		"gms_client_hedges_total":             st.Hedges,
		"gms_client_cancels_total":            st.Cancels,
		"gms_client_breaker_opens_total":      st.BreakerOpens,
		"gms_client_breaker_probes_total":     st.BreakerProbes,
		"gms_client_open_breakers":            int64(st.OpenBreakers),
		"gms_client_wrong_shard_total":        st.WrongShard,
		"gms_client_shardmap_refreshes_total": st.MapRefreshes,
		"gms_client_subpage_latency_us_count": st.SubpageLat.N(),
		"gms_client_subpage_latency_us_sum":   int64(st.SubpageLat.Sum()),
		"gms_client_full_latency_us_count":    st.FullLat.N(),
		"gms_client_full_latency_us_sum":      int64(st.FullLat.Sum()),
		"gms_server_gets_total":               gets,
		"gms_server_puts_total":               puts,
		"gms_server_bytes_out_total":          atomic.LoadInt64(&srv.BytesOut),
		"gms_server_heartbeats_total":         atomic.LoadInt64(&srv.Heartbeats),
		"gms_server_reregistrations_total":    atomic.LoadInt64(&srv.Reregs),
		"gms_server_pages":                    int64(srv.Pages()),
		"gms_dir_pages":                       6,
	}
	for name, w := range want {
		if got, ok := vals[name]; !ok || got != float64(w) {
			t.Errorf("%s = %v (exposed %v), record says %d", name, got, ok, w)
		}
	}
	if st.BytesIn != 6*units.PageSize || vals["gms_server_bytes_out_total"] != 6*units.PageSize {
		t.Errorf("bytes in %d, bytes out %v: want six whole pages each way", st.BytesIn, vals["gms_server_bytes_out_total"])
	}
	// The registry's own lookups read the same live values.
	if got := reg.Counter("gms_client_faults_total", "").Value(); got != st.Faults {
		t.Errorf("registry lookup of gms_client_faults_total = %d, stats say %d", got, st.Faults)
	}
	if got := reg.Histogram("gms_client_subpage_latency_us", "", nil).Count(); got != st.SubpageLat.N() {
		t.Errorf("subpage latency observations = %d, stats say %d", got, st.SubpageLat.N())
	}
}

// TestSharedRegistrySumsComponents: two page servers, two clients, a
// 2-shard directory and a chaos Network on one registry. Each gauge is the
// sum over the live components, not the last writer's value; a closed
// server's pages leave the gauge while no counter goes down.
func TestSharedRegistrySumsComponents(t *testing.T) {
	dirs, _, srvA := shardedCluster(t, 2, 4, 0)
	reg := obs.NewRegistry()
	for _, d := range dirs {
		d.SetMetrics(reg)
	}
	srvA.SetMetrics(reg)
	srvB, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvB.Close() })
	srvB.SetMetrics(reg)
	for p := 4; p < 6; p++ {
		srvB.Store(uint64(p), pagePattern(uint64(p)))
	}
	if err := srvB.RegisterWith(dirs[0].Addr()); err != nil {
		t.Fatal(err)
	}
	nw := chaos.New(chaos.Config{})
	nw.SetMetrics(reg)
	buf := make([]byte, units.PageSize)
	var clients []*Client
	for i := 0; i < 2; i++ {
		c := testClient(t, dirs[0], ClientConfig{CachePages: 2, Metrics: reg, Dial: nw.Dial})
		for p := 0; p < 6; p++ {
			if err := c.Read(buf, uint64(p)*units.PageSize); err != nil {
				t.Fatal(err)
			}
		}
		clients = append(clients, c)
	}

	if got, want := reg.Gauge("gms_server_pages", "").Value(), int64(srvA.Pages()+srvB.Pages()); got != want || want != 6 {
		t.Fatalf("gms_server_pages = %d, servers hold %d", got, want)
	}
	if got := reg.Gauge("gms_dir_pages", "").Value(); got != 6 {
		t.Fatalf("gms_dir_pages = %d, the shards map 6", got)
	}
	if got := reg.Counter("gms_client_faults_total", "").Value(); got != 12 {
		t.Fatalf("gms_client_faults_total = %d, two clients faulted 6 pages each", got)
	}
	_, before := exposition(t, reg)

	if err := srvB.Close(); err != nil {
		t.Fatal(err)
	}
	if err := clients[1].Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("gms_server_pages", "").Value(); got != int64(srvA.Pages()) {
		t.Fatalf("gms_server_pages = %d after one server closed, the live one holds %d", got, srvA.Pages())
	}
	names, after := exposition(t, reg)
	for series, v := range before {
		if after[series] < v && !isGauge(series) {
			t.Errorf("%s went down from %v to %v when a component closed", series, v, after[series])
		}
	}
	if !slices.Contains(names, "gms_chaos_drops_total") || !slices.Contains(names, "gms_dirshard_wrong_shard_total") {
		t.Fatalf("chaos or shard metrics missing: %v", names)
	}
}

// isGauge reports whether a series of the prototype's exposition is a gauge.
func isGauge(series string) bool {
	switch series {
	case "gms_client_open_breakers", "gms_server_pages", "gms_dir_pages", "gms_dirlog_recovered_servers",
		"gms_dirshard_self", "gms_dirshard_map_version", "gms_dirshard_shards":
		return true
	}
	return false
}

// TestStatsHoldsNoReferences: a client's Stats is one flat value, so the
// memory it takes does not grow with the faults it has counted, and a
// snapshot copies it whole.
func TestStatsHoldsNoReferences(t *testing.T) {
	var walk func(reflect.Type, string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(typ.Field(i).Type, path+"."+typ.Field(i).Name)
			}
		case reflect.Array:
			walk(typ.Elem(), path+"[]")
		case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface, reflect.Chan,
			reflect.Func, reflect.String, reflect.UnsafePointer:
			t.Errorf("%s is a %v: Stats must not reference memory outside itself", path, typ.Kind())
		}
	}
	walk(reflect.TypeOf(Stats{}), "Stats")
}

// TestServerAndDirectoryMetrics: SetMetrics on the server and directory
// records traffic.
func TestServerAndDirectoryMetrics(t *testing.T) {
	dir, err := ListenDirectory("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	dreg := obs.NewRegistry()
	dir.SetMetrics(dreg)

	srv, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	sreg := obs.NewRegistry()
	srv.SetMetrics(sreg)
	for p := 0; p < 4; p++ {
		srv.Store(uint64(p), pagePattern(uint64(p)))
	}
	if err := srv.RegisterWith(dir.Addr()); err != nil {
		t.Fatal(err)
	}

	c := testClient(t, dir, ClientConfig{CachePages: 4})
	buf := make([]byte, 128)
	for p := 0; p < 4; p++ {
		if err := c.Read(buf, uint64(p)*units.PageSize); err != nil {
			t.Fatal(err)
		}
	}

	if got := sreg.Counter("gms_server_gets_total", "").Value(); got != 4 {
		t.Errorf("gms_server_gets_total = %d, want 4", got)
	}
	if got := sreg.Gauge("gms_server_pages", "").Value(); got != 4 {
		t.Errorf("gms_server_pages = %d, want 4", got)
	}
	// A 128-byte read returns when its subpage lands; the server counts the
	// last page's remainder only once it has written it.
	waitFor(t, 2*time.Second, func() bool {
		return sreg.Counter("gms_server_bytes_out_total", "").Value() >= 4*units.PageSize
	}, "gms_server_bytes_out_total to reach four pages")
	if got := dreg.Counter("gms_dir_registers_total", "").Value(); got == 0 {
		t.Error("gms_dir_registers_total = 0, want > 0")
	}
	// The four pages share one placement group: one lookup answers them all.
	if got := dreg.Counter("gms_dir_lookups_total", "").Value(); got != 1 {
		t.Errorf("gms_dir_lookups_total = %d, want 1", got)
	}
	if got := dreg.Gauge("gms_dir_pages", "").Value(); got != 4 {
		t.Errorf("gms_dir_pages = %d, want 4", got)
	}
}
