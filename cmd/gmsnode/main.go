// Command gmsnode runs one node of the live remote-memory prototype.
//
// Start a global cache directory:
//
//	gmsnode dir -addr :7000
//
// Make it durable — registrations, seniority and epoch fences survive a
// crash via a write-ahead journal replayed on the next start:
//
//	gmsnode dir -addr :7000 -journal /var/lib/gms/dir -fsync always
//
// Donate memory as a page server (registers with the directory):
//
//	gmsnode server -addr :7001 -dir localhost:7000 -pages 4096
//
// Run a faulting client benchmark against the cluster:
//
//	gmsnode client -dir localhost:7000 -pages 4096 -subpage 1024 -policy eager
//
// The client measures what the paper's prototype measured: the time from
// fault to faulted-subpage arrival versus the time to the complete page.
//
// Run one shard of a sharded directory deployment (start one process per
// entry in -shards, with -self naming this process's entry; clients and
// servers point at any shard and discover the rest):
//
//	gmsnode dirshard -addr :7000 -shards host0:7000,host1:7000 -self 0
//	gmsnode dirshard -addr :7000 -shards host0:7000,host1:7000 -self 1
//
// Gracefully decommission a page server: the directory copies every page
// the server holds the only live copy of to a surviving server, then
// expunges it behind an epoch fence, so concurrent clients never lose a
// page:
//
//	gmsnode drain -dir localhost:7000 -server host2:7001
//
// Run the self-contained resilience demo — a directory, two replica page
// servers behind a fault injector, and a client workload during which the
// primary server is killed (and optionally restarted):
//
//	gmsnode chaos -pages 256 -jitter 2ms -drop 0.01 -kill-at 0.5 -restart
//
// Every read must complete via failover to the replica; the exit status is
// non-zero if any read fails or returns wrong data.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	gmsubpage "github.com/gms-sim/gmsubpage"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "dir":
		runDir(os.Args[2:])
	case "dirshard":
		runDirShard(os.Args[2:])
	case "server":
		runServer(os.Args[2:])
	case "client":
		runClient(os.Args[2:])
	case "drain":
		runDrain(os.Args[2:])
	case "chaos":
		runChaos(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: gmsnode dir|dirshard|server|client|drain|chaos [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gmsnode:", err)
	os.Exit(1)
}

func waitForInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}

// startDebug starts the opt-in observability listener on addr and returns
// it with the registry the node's components report into.
func startDebug(addr string) (*gmsubpage.DebugServer, *gmsubpage.Metrics, error) {
	m := gmsubpage.NewMetrics()
	d, err := gmsubpage.StartDebug(addr, m)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("debug listener on http://%s (/metrics, /healthz, /debug/pprof)\n", d.Addr())
	return d, m, nil
}

// debugMetrics handles the per-command -debug flag: empty addr disables
// observability (nil metrics), anything else starts the listener or dies.
func debugMetrics(addr string) *gmsubpage.Metrics {
	if addr == "" {
		return nil
	}
	_, m, err := startDebug(addr)
	if err != nil {
		fatal(err)
	}
	return m
}

// durabilityFlags registers the journal flag group shared by the dir and
// dirshard commands and returns a builder for the resulting options.
func durabilityFlags(fs *flag.FlagSet) func(ttl time.Duration) gmsubpage.DirectoryOptions {
	journal := fs.String("journal", "", "write-ahead journal directory; state survives a restart (empty = in-memory only)")
	fsync := fs.String("fsync", "interval", "journal fsync policy: always, interval, or never")
	snapEvery := fs.Int("snap-every", 0, "journal records between compacting snapshots (0 = default)")
	grace := fs.Duration("grace", 0, "how long recovered leases live before their first heartbeat must land (0 = lease TTL)")
	return func(ttl time.Duration) gmsubpage.DirectoryOptions {
		return gmsubpage.DirectoryOptions{
			LeaseTTL:      ttl,
			JournalDir:    *journal,
			Fsync:         *fsync,
			SnapshotEvery: *snapEvery,
			RestartGrace:  *grace,
		}
	}
}

func runDir(args []string) {
	fs := flag.NewFlagSet("dir", flag.ExitOnError)
	addr := fs.String("addr", ":7000", "listen address")
	ttl := fs.Duration("ttl", 0, "lease TTL for server registrations (0 = default 30s)")
	opts := durabilityFlags(fs)
	debug := fs.String("debug", "", "serve /metrics, /healthz and pprof on this address (empty = off)")
	_ = fs.Parse(args)
	d, err := gmsubpage.StartDirectory(*addr, opts(*ttl))
	if err != nil {
		fatal(err)
	}
	defer d.Close()
	if m := debugMetrics(*debug); m != nil {
		d.SetMetrics(m)
	}
	fmt.Println("directory listening on", d.Addr())
	if n := d.RecoveredServers(); n > 0 {
		fmt.Printf("recovered %d server registrations from the journal\n", n)
	}
	waitForInterrupt()
}

func runDrain(args []string) {
	fs := flag.NewFlagSet("drain", flag.ExitOnError)
	dir := fs.String("dir", "localhost:7000", "directory address")
	server := fs.String("server", "", "page server address to decommission (required)")
	timeout := fs.Duration("timeout", 0, "overall drain deadline (0 = default 1m)")
	_ = fs.Parse(args)
	if *server == "" {
		fatal(fmt.Errorf("drain: -server names the page server to decommission"))
	}
	moved, err := gmsubpage.DrainServer(*dir, *server, *timeout)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("drained %s: %d sole-copy pages moved, registration expunged behind an epoch fence\n",
		*server, moved)
}

func runDirShard(args []string) {
	fs := flag.NewFlagSet("dirshard", flag.ExitOnError)
	addr := fs.String("addr", ":7000", "listen address")
	shards := fs.String("shards", "", "comma-separated addresses of every shard, in map order (required)")
	self := fs.Int("self", 0, "this process's index into -shards")
	version := fs.Uint64("version", 1, "shard map version")
	ttl := fs.Duration("ttl", 0, "lease TTL for server registrations (0 = default 30s)")
	opts := durabilityFlags(fs)
	debug := fs.String("debug", "", "serve /metrics, /healthz and pprof on this address (empty = off)")
	_ = fs.Parse(args)
	var addrs []string
	for _, a := range strings.Split(*shards, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fatal(fmt.Errorf("dirshard: -shards must list every shard address"))
	}
	d, err := gmsubpage.StartDirectoryShard(*addr, addrs, *self, *version, opts(*ttl))
	if err != nil {
		fatal(err)
	}
	defer d.Close()
	if m := debugMetrics(*debug); m != nil {
		d.SetMetrics(m)
	}
	fmt.Printf("directory shard %d/%d (map v%d) listening on %s\n",
		*self, len(addrs), *version, d.Addr())
	if n := d.RecoveredServers(); n > 0 {
		fmt.Printf("recovered %d server registrations from the journal\n", n)
	}
	waitForInterrupt()
}

func runServer(args []string) {
	fs := flag.NewFlagSet("server", flag.ExitOnError)
	addr := fs.String("addr", ":7001", "listen address")
	dir := fs.String("dir", "localhost:7000", "directory address")
	pages := fs.Int("pages", 4096, "pages of memory to donate (8 KB each)")
	first := fs.Uint64("first", 0, "first page number to serve")
	wire := fs.Float64("wire", 0, "emulate a link of this many Mb/s (0 = none; 155 = the paper's AN2)")
	debug := fs.String("debug", "", "serve /metrics, /healthz and pprof on this address (empty = off)")
	_ = fs.Parse(args)
	s, err := gmsubpage.StartServer(*addr)
	if err != nil {
		fatal(err)
	}
	defer s.Close()
	if m := debugMetrics(*debug); m != nil {
		s.SetMetrics(m)
	}
	s.SetWireMbps(*wire)
	s.StoreRange(*first, *pages)
	if err := s.Register(*dir); err != nil {
		fatal(err)
	}
	fmt.Printf("page server on %s donating %d pages (%d MB), registered with %s\n",
		s.Addr(), *pages, *pages*gmsubpage.PageSize/(1<<20), *dir)
	waitForInterrupt()
}

func runClient(args []string) {
	fs := flag.NewFlagSet("client", flag.ExitOnError)
	dir := fs.String("dir", "localhost:7000", "directory address")
	pages := fs.Int("pages", 1024, "pages to touch")
	cache := fs.Int("cache", 128, "local cache size in pages")
	subpage := fs.Int("subpage", 1024, "subpage size in bytes")
	policy := fs.String("policy", "eager", "fullpage|lazy|eager|pipelined")
	workload := fs.String("workload", "", "replay a paper workload (modula3|ld|atom|render|gdb) instead of the page sweep")
	scale := fs.Float64("scale", 0.1, "workload trace scale for -workload")
	dialTO := fs.Duration("dial-timeout", 0, "per-dial timeout (0 = default 1s)")
	reqTO := fs.Duration("timeout", 0, "per-lookup / per-fetch-attempt timeout (0 = default 2s)")
	retries := fs.Int("retries", 0, "retries beyond the first attempt (0 = default 3, negative = none)")
	hedge := fs.Duration("hedge", 0, "duplicate a fetch to a replica after this delay (0 = off)")
	debug := fs.String("debug", "", "serve /metrics, /healthz and pprof on this address (empty = off)")
	_ = fs.Parse(args)

	c, err := gmsubpage.DialClient(*dir, gmsubpage.ClientOptions{
		CachePages:     *cache,
		SubpageSize:    *subpage,
		Policy:         gmsubpage.Policy(*policy),
		DialTimeout:    *dialTO,
		RequestTimeout: *reqTO,
		MaxRetries:     *retries,
		Hedge:          *hedge,
		Metrics:        debugMetrics(*debug),
	})
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	if *workload != "" {
		need, err := gmsubpage.WorkloadPages(*workload, *scale)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replaying %s (scale %g, %d pages of remote memory) with %s at %d-byte subpages...\n",
			*workload, *scale, need, *policy, *subpage)
		rep, err := c.ReplayWorkload(*workload, *scale, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replayed %d references in %v\n", rep.Refs, rep.Elapsed.Round(time.Millisecond))
		fmt.Printf("  faults            %d (%.0f/s), evictions %d\n",
			rep.Faults, rep.FaultsPerSecond(), rep.Evictions)
		fmt.Printf("  subpage latency   %.0f us (median)\n", rep.SubpageLatencyUs)
		fmt.Printf("  full-page latency %.0f us (median)\n", rep.FullLatencyUs)
		fmt.Printf("  bytes in          %.1f MB\n", float64(rep.BytesIn)/(1<<20))
		return
	}

	fmt.Printf("faulting %d pages with %s at %d-byte subpages...\n",
		*pages, *policy, *subpage)
	var buf [64]byte
	start := time.Now() //lint:allow simpurity prototype timing path: the replay is measured in wall-clock time
	for p := 0; p < *pages; p++ {
		// Touch an interior offset: the faulted subpage arrives first.
		if err := c.Read(buf[:], uint64(p)*gmsubpage.PageSize+3072); err != nil {
			fatal(err)
		}
	}
	elapsed := time.Since(start) //lint:allow simpurity prototype timing path: the replay is measured in wall-clock time
	st := c.Stats()
	fmt.Printf("touched %d pages in %v (%.0f faults/s)\n",
		*pages, elapsed.Round(time.Millisecond),
		float64(st.Faults)/elapsed.Seconds())
	fmt.Printf("  faults            %d\n", st.Faults)
	fmt.Printf("  subpage latency   %.0f us (median, fault -> faulted subpage usable)\n", st.SubpageLatencyUs)
	fmt.Printf("  full-page latency %.0f us (median, fault -> entire page resident)\n", st.FullLatencyUs)
	fmt.Printf("  bytes in          %.1f MB\n", float64(st.BytesIn)/(1<<20))
}
