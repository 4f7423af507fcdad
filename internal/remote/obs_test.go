package remote

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestClientMetricsMirrorStats: with a registry configured, the
// gms_client_* metrics track the same history as Stats().
func TestClientMetricsMirrorStats(t *testing.T) {
	dir, _ := testCluster(t, 6)
	reg := obs.NewRegistry()
	c := testClient(t, dir, ClientConfig{CachePages: 3, Metrics: reg})
	buf := make([]byte, 256)
	for p := 0; p < 6; p++ {
		if err := c.Read(buf, uint64(p)*units.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Faults == 0 || st.Evictions == 0 {
		t.Fatalf("workload too small to exercise metrics: %+v", st)
	}
	checks := map[string]int64{
		"gms_client_faults_total":    st.Faults,
		"gms_client_evictions_total": st.Evictions,
		"gms_client_bytes_in_total":  st.BytesIn,
		"gms_client_retries_total":   st.Retries,
	}
	for name, want := range checks {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, stats say %d", name, got, want)
		}
	}
	if got, want := reg.Histogram("gms_client_subpage_latency_us", "", nil).Count(), st.SubpageLat.N(); got != int64(want) {
		t.Errorf("subpage latency observations = %d, stats say %d", got, want)
	}
	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "gms_client_faults_total") {
		t.Fatalf("exposition missing client metrics:\n%s", b.String())
	}
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
	if got := dreg.Counter("gms_dir_lookups_total", "").Value(); got != 4 {
		t.Errorf("gms_dir_lookups_total = %d, want 4", got)
	}
	if got := dreg.Gauge("gms_dir_pages", "").Value(); got != 4 {
		t.Errorf("gms_dir_pages = %d, want 4", got)
	}
}
