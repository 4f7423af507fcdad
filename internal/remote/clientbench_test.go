package remote

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/rng"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// ioSyscalls reads the kernel's count of read-family and write-family system
// calls this process has made (Linux task I/O accounting: write and writev
// both count once, whatever they carry). A net.Conn wrapper cannot count a
// reply's writes: net.Buffers only issues writev to a connection of package
// net's own, and falls back to one Write per buffer on anything wrapping it.
// ok is false where the kernel does not keep the count.
func ioSyscalls() (reads, writes int64, ok bool) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0, false
	}
	field := func(name string) (int64, bool) {
		_, rest, found := bytes.Cut(data, []byte(name+": "))
		if !found {
			return 0, false
		}
		line, _, _ := bytes.Cut(rest, []byte("\n"))
		n, err := strconv.ParseInt(string(line), 10, 64)
		return n, err == nil
	}
	reads, okr := field("syscr")
	writes, okw := field("syscw")
	return reads, writes, okr && okw
}

// BenchmarkFaultLoopback is the gate benchmark's fault-churn workload in
// this package, for profiling the fault path: two clients against two
// servers over loopback TCP, 4096 pages through 512-page caches, 64-byte
// reads at random. syscalls/fault counts every read and write system call
// of the whole exchange, client and server (four is one per hop).
//
//	make profile-fault
func BenchmarkFaultLoopback(b *testing.B) {
	const pages, cache, clients = 4096, 512, 2
	dir, err := ListenDirectory("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { dir.Close() })
	page := make([]byte, units.PageSize)
	var srvs [2]*Server
	for i := range srvs {
		if srvs[i], err = ListenServer("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		srv := srvs[i]
		b.Cleanup(func() { srv.Close() })
	}
	for p := 0; p < pages; p++ {
		srvs[p%len(srvs)].Store(uint64(p), page)
	}
	for _, srv := range srvs {
		if err := srv.RegisterWith(dir.Addr()); err != nil {
			b.Fatal(err)
		}
	}
	var cs [clients]*Client
	for i := range cs {
		cs[i] = testClient(b, dir, ClientConfig{Policy: proto.PolicyPipelined, SubpageSize: 1024, CachePages: cache})
	}
	// run spreads n reads over the clients, one goroutine each.
	run := func(n int, seed uint64) {
		var wg sync.WaitGroup
		for i, c := range cs {
			wg.Add(1)
			go func(c *Client, r *rng.Rand, n int) {
				defer wg.Done()
				var buf [64]byte
				for ; n > 0; n-- {
					addr := uint64(r.Intn(pages))*units.PageSize + uint64(r.Intn(units.PageSize-len(buf)+1))
					if err := c.Read(buf[:], addr); err != nil {
						b.Error(err)
						return
					}
				}
			}(c, rng.New(seed+uint64(i)), (n+i)/clients)
		}
		wg.Wait()
	}
	run(4*pages, 1) // every cache slot, connection and placement warm
	faults := func() (n int64) {
		for _, c := range cs {
			n += c.Stats().Faults
		}
		return n
	}
	f0 := faults()
	r0, w0, counted := ioSyscalls()
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N, 7919)
	b.StopTimer()
	r1, w1, _ := ioSyscalls()
	if f := float64(faults() - f0); f > 0 {
		b.ReportMetric(f/float64(b.N), "faults/op")
		if counted {
			b.ReportMetric(float64(r1-r0+w1-w0)/f, "syscalls/fault")
			b.ReportMetric(float64(w1-w0)/f, "writes/fault")
		}
	}
}

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
// connection and timer is warm: the server's transfer plan, and nothing
// else. The accessor sends its own request and the reply completes the
// fault from the read loop, so there is no goroutine, channel or timer to
// allocate; the eviction, the retry bookkeeping, the sources, the policy
// lookup and the reply's scatter-gather list all used to allocate per fault
// and must not come back.
func TestWarmedFaultAllocs(t *testing.T) {
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
	const budget = 1
	if allocs > budget {
		t.Fatalf("a warmed fault allocates %v objects end to end, budget %d", allocs, budget)
	}
	t.Logf("a warmed fault allocates %v objects end to end (budget %d)", allocs, budget)
}
