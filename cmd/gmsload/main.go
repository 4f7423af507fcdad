// Command gmsload is the scale-out load harness: it stands up real
// sharded directory clusters (internal/dirshard), drives them with a
// lookup storm and a fleet of closed-loop faulting clients
// (internal/load), and reports a throughput + fault-latency SLO table.
//
// The default run compares a 1-shard and a 4-shard deployment:
//
//	gmsload
//	gmsload -shards 1,4 -clients 32 -requests 100 -duration 2s
//	gmsload -shards 1,4 -minx 3 -out experiments_loadtest.txt
//
// -out also writes the table to a file. -minx N fails the run (exit 1)
// unless the last arm's lookup throughput is at least N times the first
// arm's — the CI scaling gate. -warmup walks each client's fault sequence
// once before the clock starts, so the fault phase measures the wire
// rather than the emulated lookup service.
//
// A durability mode rides the same harness:
//
//	gmsload -soak -crashes 5 -crashevery 300ms -clients 4 -pages 256
//
// -soak runs the kill-anything crash soak: a durable directory is killed
// and restarted in place under fault load, and the run fails (exit 1) if
// any recovery invariant breaks (client hangs, re-registration storms,
// unresolvable pages, stale-epoch resurrection); otherwise it prints the
// soak's ledger.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/dirlog"
	"github.com/gms-sim/gmsubpage/internal/load"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// allFlags lists every flag name in display order, so conflict errors
// name the offending flags deterministically.
var allFlags = []string{"shards", "j", "duration", "clients", "requests",
	"servers", "pages", "subpage", "policy", "cache", "rps", "dirservice",
	"warmup", "soak", "crashes", "crashevery", "fsync", "seed", "minx", "out"}

// positiveFlags must be above zero: load.Config and load.SoakConfig
// replace a non-positive value with their own default, so the run would
// not be the one the table header names.
var positiveFlags = []string{"j", "duration", "clients", "requests",
	"servers", "pages", "subpage", "cache", "crashes", "crashevery"}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gmsload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		shardsArg  = fs.String("shards", "1,4", "comma-separated shard counts to run, one cluster per arm")
		workers    = fs.Int("j", 8, "lookup-storm connections per arm")
		duration   = fs.Duration("duration", 2*time.Second, "lookup-storm length per arm")
		clients    = fs.Int("clients", 32, "faulting clients per arm")
		requests   = fs.Int("requests", 100, "faults per client")
		servers    = fs.Int("servers", 2, "page servers per arm")
		pages      = fs.Int("pages", 512, "pages in the global set")
		subpage    = fs.Int("subpage", 1024, "client subpage size in bytes")
		policy     = fs.String("policy", "eager", "client transfer policy")
		cache      = fs.Int("cache", 64, "client cache pages")
		rps        = fs.Float64("rps", 0, "open-loop total fault rate; 0 = closed loop")
		dirservice = fs.Duration("dirservice", 200*time.Microsecond, "emulated per-lookup shard service time; 0 = off")
		warmup     = fs.Bool("warmup", false, "walk each client's fault sequence unmeasured first, so the measured phase times the wire, not lookups")
		soakMode   = fs.Bool("soak", false, "run the kill-anything crash soak against a durable directory")
		crashes    = fs.Int("crashes", 5, "directory kill/restart cycles for -soak")
		crashEvery = fs.Duration("crashevery", 300*time.Millisecond, "load time between kills for -soak")
		fsyncStr   = fs.String("fsync", "interval", "journal fsync policy for -soak: always, interval, or never")
		seed       = fs.Uint64("seed", 1, "base seed for page choice")
		minX       = fs.Float64("minx", 0, "fail unless last arm's lookup rate >= this multiple of the first arm's")
		out        = fs.String("out", "", "also write the table to this file")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	arms, err := parseShards(*shardsArg)
	if err != nil {
		_, _ = fmt.Fprintln(stderr, "gmsload:", err)
		return 2
	}
	if err := conflictErr(fs, set, arms, *minX, *rps, *soakMode); err != nil {
		_, _ = fmt.Fprintln(stderr, "gmsload:", err)
		return 2
	}
	// "prefetch" is not a wire policy: the learned prefetcher rides the
	// want bitmap over the lazy wire policy, selected client-side.
	var polByte uint8
	prefetch := *policy == "prefetch"
	if !prefetch {
		if polByte, err = core.WireByte(*policy); err != nil {
			_, _ = fmt.Fprintln(stderr, "gmsload:", err)
			return 2
		}
	}

	fail := func(err error) int {
		_, _ = fmt.Fprintln(stderr, "gmsload:", err)
		return 1
	}
	emit := func(table string) int {
		_, _ = io.WriteString(stdout, table)
		if *out != "" {
			if err := os.WriteFile(*out, []byte(table), 0o644); err != nil {
				return fail(err)
			}
		}
		return 0
	}
	if *soakMode {
		fsync, err := dirlog.ParseFsync(*fsyncStr)
		if err != nil {
			_, _ = fmt.Fprintln(stderr, "gmsload:", err)
			return 2
		}
		jdir, err := os.MkdirTemp("", "gmsload-soak")
		if err != nil {
			return fail(err)
		}
		defer func() { _ = os.RemoveAll(jdir) }()
		_, _ = fmt.Fprintf(stderr, "gmsload: soaking through %d directory crashes...\n", *crashes)
		cfg := load.SoakConfig{
			Servers:    *servers,
			Pages:      *pages,
			Clients:    *clients,
			Crashes:    *crashes,
			CrashEvery: *crashEvery,
			JournalDir: jdir,
			Fsync:      fsync,
			Seed:       *seed,
		}
		res, err := load.RunSoak(cfg)
		if err != nil {
			return fail(err)
		}
		return emit(soakTable(cfg, res))
	}
	cfg := load.Config{
		Servers:     *servers,
		Pages:       *pages,
		Workers:     *workers,
		Duration:    *duration,
		Clients:     *clients,
		Requests:    *requests,
		RPS:         *rps,
		SubpageSize: *subpage,
		Policy:      polByte,
		Prefetch:    prefetch,
		CachePages:  *cache,
		DirService:  *dirservice,
		Warmup:      *warmup,
		Seed:        *seed,
	}
	var results []load.Result
	for _, n := range arms {
		_, _ = fmt.Fprintf(stderr, "gmsload: running %d-shard arm...\n", n)
		cfg.Shards = n
		res, err := load.Run(cfg)
		if err != nil {
			return fail(err)
		}
		results = append(results, res)
	}
	var scalingX float64
	if first, last := results[0], results[len(results)-1]; len(results) > 1 && first.LookupRate > 0 {
		scalingX = round2(last.LookupRate / first.LookupRate)
	}

	if rc := emit(loadTable(cfg, results, scalingX)); rc != 0 {
		return rc
	}
	if *minX > 0 && scalingX < *minX {
		return fail(fmt.Errorf("lookup scaling %.2fx below required %.2fx (%d vs %d shards)",
			scalingX, *minX, arms[len(arms)-1], arms[0]))
	}
	return 0
}

// parseShards parses the -shards list: comma-separated positive ints.
func parseShards(s string) ([]int, error) {
	var arms []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-shards wants positive shard counts like \"1,4\", got %q", s)
		}
		arms = append(arms, n)
	}
	return arms, nil
}

// conflictErr rejects flag combinations and values the run would
// otherwise silently misinterpret, following the subpagesim convention
// (exit 2).
func conflictErr(fs *flag.FlagSet, set map[string]bool, arms []int, minX, rps float64, soakM bool) error {
	for _, name := range positiveFlags {
		v := fs.Lookup(name).Value
		var bad bool
		switch x := v.(flag.Getter).Get().(type) {
		case int:
			bad = x <= 0
		case time.Duration:
			bad = x <= 0
		}
		if bad {
			return fmt.Errorf("-%s wants a positive value, got %s", name, v)
		}
	}
	if soakM {
		if f := firstSet(set, "shards", "j", "duration", "requests", "subpage",
			"policy", "cache", "rps", "dirservice", "warmup", "minx"); f != "" {
			return fmt.Errorf("-%s shapes the scaling arms, which -soak skips", f)
		}
	} else if f := firstSet(set, "crashes", "crashevery", "fsync"); f != "" {
		return fmt.Errorf("-%s shapes the crash soak; pass -soak too", f)
	}
	if set["minx"] {
		if minX <= 0 {
			return fmt.Errorf("-minx wants a positive ratio, got %v", minX)
		}
		if len(arms) < 2 {
			return fmt.Errorf("-minx compares the first and last arms; -shards names only one (%d)", arms[0])
		}
	}
	if set["rps"] && rps < 0 {
		return fmt.Errorf("-rps wants a non-negative rate, got %v", rps)
	}
	return nil
}

// firstSet returns the first of names (in the order given, which callers
// keep aligned with allFlags) present in set, or "".
func firstSet(set map[string]bool, names ...string) string {
	for _, n := range names {
		if set[n] {
			return n
		}
	}
	return ""
}

// loadTable renders the SLO table: the run's shape, one row per shard
// arm, and the first-to-last lookup-throughput scaling ratio.
func loadTable(cfg load.Config, arms []load.Result, scalingX float64) string {
	var b strings.Builder
	loop := "closed loop"
	if cfg.RPS > 0 {
		loop = fmt.Sprintf("open loop %.0f req/s", cfg.RPS)
	}
	fmt.Fprintf(&b, "gmsload: %d clients x %d faults (%s), %d pages, %d servers, dirservice %.0fµs\n\n",
		cfg.Clients, cfg.Requests, loop, cfg.Pages, cfg.Servers, float64(cfg.DirService.Nanoseconds())/1e3)
	fmt.Fprintf(&b, "%6s  %10s  %7s  %9s  %8s  %8s  %9s  %8s  %7s\n",
		"shards", "lookups/s", "faults", "faults/s", "p50(µs)", "p99(µs)", "p999(µs)", "max(µs)", "bounces")
	for _, a := range arms {
		fmt.Fprintf(&b, "%6d  %10.0f  %7d  %9.0f  %8.0f  %8.0f  %9.0f  %8.0f  %7d\n",
			a.Shards, a.LookupRate, a.Faults, a.FaultRate, a.P50Us, a.P99Us, a.P999Us, a.MaxUs, a.WrongShard)
	}
	if scalingX > 0 {
		fmt.Fprintf(&b, "\nlookup scaling: %.2fx (%d shards vs %d)\n",
			scalingX, arms[len(arms)-1].Shards, arms[0].Shards)
	}
	return b.String()
}

// soakTable renders the crash soak's ledger. Reaching it at all means
// every recovery invariant held.
func soakTable(cfg load.SoakConfig, r load.SoakResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "gmsload -soak: %d clients x %d pages x %d servers, fsync %s, kill every %.0fms\n\n",
		cfg.Clients, cfg.Pages, cfg.Servers, cfg.Fsync, float64(cfg.CrashEvery.Milliseconds()))
	fmt.Fprintf(&b, "crashes survived:   %d in %.1fs\n", r.Crashes, r.Elapsed)
	fmt.Fprintf(&b, "reads:              %d (%d errs, max %.0fµs, zero hangs)\n", r.Reads, r.ReadErrs, r.MaxReadUs)
	fmt.Fprintf(&b, "re-registrations:   %d (journal recovered %d leases at the last restart)\n", r.Reregs, r.Recovered)
	fmt.Fprintf(&b, "final journal:      %d wal records (%.1f KiB) over a %d-record snapshot\n",
		r.WalRecords, float64(r.WalBytes)/1024, r.SnapRecords)
	return b.String()
}

// round2 keeps ratios readable at two decimals.
func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }
