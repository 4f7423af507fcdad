package remote

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gms-sim/gmsubpage/internal/obs"
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

// Shape of the gate benchmark's fault-churn workload.
const (
	churnPages   = 4096
	churnCache   = 512
	churnClients = 2
)

// churnCluster starts fault-churn's cluster: a directory and two servers
// holding churnPages pages striped p%2.
func churnCluster(b *testing.B) (*Directory, [2]*Server) {
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
	for p := 0; p < churnPages; p++ {
		srvs[p%len(srvs)].Store(uint64(p), page)
	}
	for _, srv := range srvs {
		if err := srv.RegisterWith(dir.Addr()); err != nil {
			b.Fatal(err)
		}
	}
	return dir, srvs
}

// churn runs n 64-byte reads at random addresses, spread over one goroutine
// per reader, timing each. It returns every op's duration, by reader.
func churn(b *testing.B, readers []func(buf []byte, addr uint64) error, n int, seed uint64) [][]time.Duration {
	lats := make([][]time.Duration, len(readers))
	var wg sync.WaitGroup
	for i, read := range readers {
		n := (n + i) / len(readers)
		lats[i] = make([]time.Duration, 0, n)
		wg.Add(1)
		go func(i int, read func([]byte, uint64) error, r *rng.Rand) {
			defer wg.Done()
			var buf [64]byte
			for ; n > 0; n-- {
				addr := uint64(r.Intn(churnPages))*units.PageSize + uint64(r.Intn(units.PageSize-len(buf)+1))
				t0 := time.Now()
				if err := read(buf[:], addr); err != nil {
					b.Error(err)
					return
				}
				lats[i] = append(lats[i], time.Since(t0))
			}
		}(i, read, rng.New(seed+uint64(i)))
	}
	wg.Wait()
	return lats
}

// reportTail reports the ops' median and 99.9th percentile, and the share of
// the readers' time that went to ops of over a millisecond: the multi-ms
// tail is a handful of ops that weigh on ops/s and not on the median.
func reportTail(b *testing.B, byReader [][]time.Duration) {
	var lats []time.Duration
	for _, l := range byReader {
		lats = append(lats, l...)
	}
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var total, slow time.Duration
	for _, d := range lats {
		total += d
		if d > time.Millisecond {
			slow += d
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	b.ReportMetric(us(lats[len(lats)/2]), "p50-µs")
	b.ReportMetric(us(lats[len(lats)*999/1000]), "p99.9-µs")
	b.ReportMetric(100*float64(slow)/float64(total), "over1ms-%")
}

// BenchmarkFaultLoopback is the gate benchmark's fault-churn workload in
// this package, for profiling the fault path: two clients against two
// servers over loopback TCP, 4096 pages through 512-page caches, 64-byte
// reads at random. syscalls/fault counts every read and write system call
// of the whole exchange, client and server (four is one per hop).
//
//	make profile-fault
func BenchmarkFaultLoopback(b *testing.B) {
	dir, _ := churnCluster(b)
	var cs [churnClients]*Client
	var readers []func([]byte, uint64) error
	for i := range cs {
		cs[i] = testClient(b, dir, ClientConfig{Policy: proto.PolicyPipelined, SubpageSize: 1024, CachePages: churnCache})
		readers = append(readers, cs[i].Read)
	}
	churn(b, readers, 4*churnPages, 1) // every cache slot, connection and placement warm
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
	lats := churn(b, readers, b.N, 7919)
	b.StopTimer()
	r1, w1, _ := ioSyscalls()
	if f := float64(faults() - f0); f > 0 {
		b.ReportMetric(f/float64(b.N), "faults/op")
		if counted {
			b.ReportMetric(float64(r1-r0+w1-w0)/f, "syscalls/fault")
			b.ReportMetric(float64(w1-w0)/f, "writes/fault")
		}
	}
	reportTail(b, lats)
}

// rawGetter is the least a fault can cost against the real servers: one
// connection per server, one synchronous GetPageV2 exchange per op, every
// frame check of the protocol kept, and no cache, directory, retry, hedge
// or second goroutine.
type rawGetter struct {
	w    [2]*proto.Writer
	r    [2]*proto.Reader
	next uint64
}

func (g *rawGetter) get(_ []byte, addr uint64) error {
	page := addr / units.PageSize
	g.next++
	err := g.w[page%2].SendGetPageV2(proto.GetPageV2{ReqID: g.next, Page: page,
		FaultOff: uint32(addr % units.PageSize), SubpageSize: 1024, Policy: proto.PolicyPipelined})
	if err != nil {
		return err
	}
	for {
		f, err := g.r[page%2].Next()
		if err != nil {
			return err
		}
		if f.Type != proto.TSubpageBatch {
			return fmt.Errorf("server answered %v", f.Type)
		}
		batch, err := proto.DecodeSubpageBatch(f.Payload)
		if err != nil {
			return err
		}
		if batch.ReqID != g.next || batch.Page != page {
			return fmt.Errorf("reply for request %d page %d, want %d page %d", batch.ReqID, batch.Page, g.next, page)
		}
		if batch.Flags&proto.FlagLast != 0 {
			return nil
		}
	}
}

// BenchmarkRawFaultLoopback is the floor BenchmarkFaultLoopback is read
// against: the same cluster and address stream with rawGetters in place of
// Clients (so every op is a fault, where a Client's cache absorbs one in
// eight). What the Client costs over it is client library; the rest is the
// servers and the kernel.
func BenchmarkRawFaultLoopback(b *testing.B) {
	_, srvs := churnCluster(b)
	var readers []func([]byte, uint64) error
	for i := 0; i < churnClients; i++ {
		g := &rawGetter{}
		for j, srv := range srvs {
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { conn.Close() })
			g.w[j], g.r[j] = proto.NewWriter(conn), proto.NewReader(conn)
		}
		readers = append(readers, g.get)
	}
	churn(b, readers, 4*churnPages, 1)
	b.ReportAllocs()
	b.ResetTimer()
	lats := churn(b, readers, b.N, 7919)
	b.StopTimer()
	reportTail(b, lats)
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
				c.pages.install(next)
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

// BenchmarkClientHit times a 64-byte read of a resident page. "rotate"
// walks the resident set, so every hit moves its page to the head of the
// LRU list; "parallel" has GOMAXPROCS goroutines read 64 B at random from
// 256 resident pages of one client, the shape of bench's hit-resident, so
// -cpu 1,2 shows how the hit path scales across goroutines sharing a cache.
func BenchmarkClientHit(b *testing.B) {
	b.Run("rotate", func(b *testing.B) {
		const resident = 64
		c := hitClient(b, resident)
		buf := make([]byte, 64)
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
	})
	b.Run("parallel", func(b *testing.B) {
		const resident = 256
		c := hitClient(b, resident)
		faults := c.Stats().Faults
		var seed atomic.Uint64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			r := rng.New(seed.Add(1))
			buf := make([]byte, 64)
			for pb.Next() {
				off := uint64(r.Intn(resident))*units.PageSize + uint64(r.Intn(units.PageSize/64))*64
				if err := c.Read(buf, off); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.StopTimer()
		if got := c.Stats().Faults; got != faults {
			b.Fatalf("%d faults during the timed hits", got-faults)
		}
	})
}

// hitClient returns a client with resident pages, all cached.
func hitClient(b *testing.B, resident int) *Client {
	dir, _ := testCluster(b, resident)
	c := testClient(b, dir, ClientConfig{Policy: proto.PolicyPipelined, CachePages: resident})
	buf := make([]byte, 64)
	for p := uint64(0); p < uint64(resident); p++ {
		if err := c.Read(buf, p*units.PageSize); err != nil {
			b.Fatal(err)
		}
	}
	return c
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
	warmedFaultAllocs(t, nil, false)
}

// TestWarmedFaultAllocsWithMetrics: a client and server exposing metrics
// allocate no more per fault. The registry reads their records when it is
// scraped, so the fault path does no metrics work.
func TestWarmedFaultAllocsWithMetrics(t *testing.T) {
	warmedFaultAllocs(t, obs.NewRegistry(), false)
}

// TestWarmedFaultAllocsPrefetch: with the learned prefetcher on, a fault
// also feeds the access to the stride detector and asks it for the want
// bitmap, and allocates no more. Each visit reads 64 bytes at the start and
// then the middle of a page: a 16-block stride the vote locks onto, whose
// prediction carries the middle's subpage, so a visit is one fault.
func TestWarmedFaultAllocsPrefetch(t *testing.T) {
	warmedFaultAllocs(t, nil, true)
}

func warmedFaultAllocs(t *testing.T, reg *obs.Registry, prefetch bool) {
	const pages, cache = 8, 4
	dir, srv := testCluster(t, pages)
	srv.SetMetrics(reg)
	cfg := ClientConfig{Policy: proto.PolicyPipelined, CachePages: cache, Metrics: reg}
	if prefetch {
		cfg = ClientConfig{Prefetch: true, SubpageSize: 1024, CachePages: cache, Metrics: reg}
	}
	c := testClient(t, dir, cfg)
	buf := make([]byte, units.PageSize)
	next := uint64(0)
	// A whole-page read returns when the stream has completed, as does a
	// prefetching visit's second read, which waits for the predicted
	// subpage; and the victim is always the page faulted cache-many visits
	// ago, so every visit is exactly one fault and one eviction of a
	// settled page.
	fault := func() {
		addr := next % pages * units.PageSize
		next++
		if !prefetch {
			if err := c.Read(buf, addr); err != nil {
				t.Fatal(err)
			}
			return
		}
		if err := c.Read(buf[:64], addr); err != nil {
			t.Fatal(err)
		}
		if err := c.Read(buf[:64], addr+units.PageSize/2); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*pages; i++ {
		fault()
	}
	before := c.Stats()
	const runs = 200
	allocs := testing.AllocsPerRun(runs, fault)
	after := c.Stats()
	if got := after.Faults - before.Faults; got != runs+1 {
		t.Fatalf("%d faults in %d visits: the visits are not one fault each", got, runs+1)
	}
	if after.Retries != 0 || after.Evictions-before.Evictions != runs+1 {
		t.Fatalf("retries %d, evictions %d: not the plain warmed fault path", after.Retries, after.Evictions-before.Evictions)
	}
	if got := after.Predicted - before.Predicted; prefetch && got != runs+1 {
		t.Fatalf("%d of %d faults carried a prediction: the vote did not lock on", got, runs+1)
	}
	const budget = 1
	if allocs > budget {
		t.Fatalf("a warmed fault allocates %v objects end to end, budget %d", allocs, budget)
	}
	t.Logf("a warmed fault allocates %v objects end to end (budget %d)", allocs, budget)
}
