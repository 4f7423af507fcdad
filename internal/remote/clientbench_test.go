package remote

import (
	"fmt"
	"runtime/debug"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// BenchmarkClientEvict times one miss's cache work — evict the LRU page,
// install a new one — at three cache sizes. The work does not depend on the
// size (the scan this replaced grew 64x from the first to the last); what
// growth remains is the new page's 8 KB clear missing the CPU's caches
// once the cached pages outgrow them.
//
//	go test -run xxx -bench 'Client(Evict|Hit)' -benchmem ./internal/remote/
func BenchmarkClientEvict(b *testing.B) {
	for _, size := range []int{64, 512, 4096} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			dir, _ := testCluster(b, 0)
			c := testClient(b, dir, ClientConfig{CachePages: size})
			c.mu.Lock()
			defer c.mu.Unlock()
			var next uint64
			miss := func() {
				c.evictIfFull()
				c.install(next)
				next++
			}
			for i := 0; i < size; i++ {
				miss()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				miss()
			}
		})
	}
}

// BenchmarkClientHit times a 64-byte read of a resident page, rotating over
// the resident set so every hit moves its page to the head of the LRU list.
func BenchmarkClientHit(b *testing.B) {
	const resident = 64
	dir, _ := testCluster(b, resident)
	c := testClient(b, dir, ClientConfig{Policy: proto.PolicyPipelined, CachePages: resident})
	buf := make([]byte, 64)
	for p := uint64(0); p < resident; p++ {
		if err := c.Read(buf, p*units.PageSize); err != nil {
			b.Fatal(err)
		}
	}
	faults := c.Stats().Faults
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Read(buf, uint64(i%resident)*units.PageSize); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := c.Stats().Faults; got != faults {
		b.Fatalf("%d faults during the timed hits", got-faults)
	}
}

// TestWarmedFaultAllocs pins what one fault allocates end to end — client
// and server, over loopback TCP, in this process — once every cache slot,
// connection and pool is warm: the faultLoop goroutine's closure (1), the
// attempt's result channel (2: header and buffer), and the server's
// transfer plan (3). The eviction,
// the retry bookkeeping, the sources, the timer, the policy lookup and the
// reply's scatter-gather list all used to allocate per fault and must not
// come back.
func TestWarmedFaultAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector makes sync.Pool drop entries at random, so pooled objects are reallocated")
			}
		}
	}
	const pages, cache = 8, 4
	dir, _ := testCluster(t, pages)
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyPipelined, CachePages: cache})
	buf := make([]byte, units.PageSize)
	next := uint64(0)
	// A whole-page read returns when the stream has completed, and the
	// victim is always the page faulted cache-many reads ago, so every
	// read is exactly one fault and one eviction of a settled page.
	fault := func() {
		if err := c.Read(buf, next%pages*units.PageSize); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for i := 0; i < 4*pages; i++ {
		fault()
	}
	before := c.Stats()
	const runs = 200
	allocs := testing.AllocsPerRun(runs, fault)
	after := c.Stats()
	if got := after.Faults - before.Faults; got != runs+1 {
		t.Fatalf("%d faults in %d reads: the reads are not one fault each", got, runs+1)
	}
	if after.Retries != 0 || after.Evictions-before.Evictions != runs+1 {
		t.Fatalf("retries %d, evictions %d: not the plain warmed fault path", after.Retries, after.Evictions-before.Evictions)
	}
	const budget = 6
	if allocs > budget {
		t.Fatalf("a warmed fault allocates %v objects end to end, budget %d", allocs, budget)
	}
	t.Logf("a warmed fault allocates %v objects end to end (budget %d)", allocs, budget)
}
