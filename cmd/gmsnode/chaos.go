package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"time"

	gmsubpage "github.com/gms-sim/gmsubpage"
	"github.com/gms-sim/gmsubpage/internal/chaos"
	"github.com/gms-sim/gmsubpage/internal/obs"
	"github.com/gms-sim/gmsubpage/internal/remote"
)

// runChaos is the end-to-end resilience demo: an in-process cluster (one
// directory, two page servers holding the same pages) whose server-side
// traffic passes through a fault injector, and a client workload during
// which the primary server is killed — and optionally restarted — while
// every read must still complete, via retry and failover to the replica.
func runChaos(args []string) {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	pages := fs.Int("pages", 256, "pages in the workload")
	cache := fs.Int("cache", 16, "client cache size in pages (small, so reads refault)")
	subpage := fs.Int("subpage", 1024, "subpage size in bytes")
	policy := fs.String("policy", "eager", "fullpage|lazy|eager|pipelined")
	latency := fs.Duration("latency", 0, "added one-way latency per server write")
	jitter := fs.Duration("jitter", 2*time.Millisecond, "random extra latency per server write")
	drop := fs.Float64("drop", 0.01, "probability a server write blackholes and kills its connection")
	seed := fs.Int64("seed", 1, "fault-injection RNG seed")
	killAt := fs.Float64("kill-at", 0.5, "kill the primary server this far through the workload (0-1)")
	restart := fs.Bool("restart", false, "restart the killed server after the failover phase")
	reqTO := fs.Duration("timeout", 2*time.Second, "per-fetch-attempt timeout")
	retries := fs.Int("retries", 4, "retries beyond the first attempt")
	hedge := fs.Duration("hedge", 0, "duplicate a fetch to the replica after this delay (0 = off)")
	debug := fs.String("debug", "", "serve /metrics, /healthz and pprof on this address (empty = off)")
	_ = fs.Parse(args)

	// The chaos demo runs the whole cluster in-process against internal
	// types, so the debug registry is wired directly: injector, directory
	// and both page servers all report into one /metrics page.
	var reg *obs.Registry
	if *debug != "" {
		reg = obs.NewRegistry()
		ds, err := obs.StartDebugServer(*debug, reg)
		if err != nil {
			fatal(err)
		}
		defer ds.Close()
		fmt.Printf("debug listener on http://%s (/metrics, /healthz, /debug/pprof)\n", ds.Addr())
	}

	dir, err := remote.ListenDirectory("127.0.0.1:0")
	if err != nil {
		fatal(err)
	}
	defer dir.Close()
	dir.SetMetrics(reg)
	nw := chaos.New(chaos.Config{
		Latency:  *latency,
		Jitter:   *jitter,
		DropRate: *drop,
		Seed:     *seed,
	})
	nw.SetMetrics(reg)
	startServer := func() (*remote.Server, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s := remote.ListenServerOn(nw.WrapListener(ln))
		s.SetMetrics(reg)
		for p := 0; p < *pages; p++ {
			s.Store(uint64(p), chaosPattern(uint64(p)))
		}
		return s, s.RegisterWith(dir.Addr())
	}
	primary, err := startServer()
	if err != nil {
		fatal(err)
	}
	defer primary.Close()
	replica, err := startServer()
	if err != nil {
		fatal(err)
	}
	defer replica.Close()
	fmt.Printf("cluster up: directory %s, primary %s, replica %s\n",
		dir.Addr(), primary.Addr(), replica.Addr())
	fmt.Printf("injecting: latency %v + jitter %v, drop rate %.2g, seed %d\n",
		*latency, *jitter, *drop, *seed)

	c, err := gmsubpage.DialClient(dir.Addr(), gmsubpage.ClientOptions{
		CachePages:     *cache,
		SubpageSize:    *subpage,
		Policy:         gmsubpage.Policy(*policy),
		RequestTimeout: *reqTO,
		MaxRetries:     *retries,
		Hedge:          *hedge,
	})
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	killPage := int(float64(*pages) * *killAt)
	restartPage := killPage + (*pages-killPage)/2
	var buf [64]byte
	failed := 0
	killed := false
	start := time.Now() //lint:allow simpurity chaos demo reports real elapsed time of the live cluster under faults
	for p := 0; p < *pages; p++ {
		if p == killPage {
			_ = primary.Close()
			killed = true
			fmt.Printf("page %4d: killed primary %s mid-workload\n", p, primary.Addr())
		}
		if *restart && p == restartPage {
			// The paper's GMS handles nodes leaving and (re)joining; a
			// restarted server comes back empty-handed for dirty state
			// but re-registers its pages and serves again.
			s, err := startServer()
			if err != nil {
				fmt.Printf("page %4d: restart failed: %v\n", p, err)
			} else {
				defer s.Close()
				fmt.Printf("page %4d: restarted a server as %s\n", p, s.Addr())
			}
		}
		off := uint64(p)*gmsubpage.PageSize + 3072
		if err := c.Read(buf[:], off); err != nil {
			fmt.Printf("page %4d: READ FAILED: %v\n", p, err)
			failed++
			continue
		}
		if want := chaosPattern(uint64(p))[3072 : 3072+64]; !bytes.Equal(buf[:], want) {
			fmt.Printf("page %4d: DATA MISMATCH\n", p)
			failed++
		}
	}
	elapsed := time.Since(start) //lint:allow simpurity chaos demo reports real elapsed time of the live cluster under faults

	st := c.Stats()
	fmt.Printf("workload done: %d pages in %v, %d failed reads\n", *pages, elapsed.Round(time.Millisecond), failed)
	fmt.Printf("  faults     %d\n", st.Faults)
	fmt.Printf("  retries    %d\n", st.Retries)
	fmt.Printf("  failovers  %d (reads redirected to the replica)\n", st.Failovers)
	fmt.Printf("  hedges     %d\n", st.Hedges)
	fmt.Printf("  put drops  %d (dirty evictions not written back)\n", st.PutDrops)
	fmt.Printf("  drops      %d, resets %d (injected)\n", nw.Drops, nw.Resets)
	fmt.Printf("  subpage latency %.0f us (median), full page %.0f us\n",
		st.SubpageLatencyUs, st.FullLatencyUs)
	if failed > 0 {
		fmt.Println("FAIL: some reads did not survive the injected faults")
		os.Exit(1)
	}
	if killed {
		fmt.Println("OK: every read completed despite the injected faults and the crashed server")
	} else {
		fmt.Println("OK: every read completed despite the injected faults (no server was killed; -kill-at is outside the workload)")
	}
}

// chaosPattern is the per-page fill the demo verifies reads against.
func chaosPattern(page uint64) []byte {
	data := make([]byte, gmsubpage.PageSize)
	for i := range data {
		data[i] = byte(page*131 + uint64(i)*7)
	}
	return data
}
