// Command gmsload is the scale-out load harness: it stands up real
// sharded directory clusters (internal/dirshard), drives them with a
// lookup storm and a fleet of closed-loop faulting clients
// (internal/load), and reports a throughput + fault-latency SLO table.
//
// The default run compares a 1-shard and a 4-shard deployment:
//
//	gmsload
//	gmsload -shards 1,4 -clients 32 -requests 100 -duration 2s
//	gmsload -shards 1,4 -minx 3 -out experiments_loadtest.txt -benchout BENCH_experiments.json
//
// -benchout merges the run into BENCH_experiments.json under the
// "loadtest" key, preserving whatever else the file holds (subpagesim
// owns the rest of it). -minx N fails the run (exit 1) unless the last
// arm's lookup throughput is at least N times the first arm's — the CI
// scaling gate. -warmup walks each client's fault sequence once before
// the clock starts, so the fault phase measures the wire rather than the
// emulated lookup service.
//
// Two durability modes ride the same harness:
//
//	gmsload -dirlog -dirlogn 1000,10000,50000 -benchout BENCH_experiments.json
//	gmsload -soak -crashes 5 -crashevery 300ms -clients 4 -pages 256
//
// -dirlog benchmarks the directory journal itself — recovery wall time
// and replay throughput at each journal length, and the snapshot
// compaction ratio — merged under the "dirlog" key. -soak runs the
// kill-anything crash soak: a durable directory is killed and restarted
// in place under fault load, and the run fails (exit 1) if any recovery
// invariant breaks (client hangs, re-registration storms, unresolvable
// pages, stale-epoch resurrection); -benchout merges its ledger under
// "soak".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
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
	"warmup", "dirlog", "dirlogn", "soak", "crashes", "crashevery",
	"fsync", "seed", "minx", "benchout", "out", "json"}

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
		dirlogMode = fs.Bool("dirlog", false, "benchmark journal recovery and snapshot compaction; -benchout writes the \"dirlog\" section")
		dirlogN    = fs.String("dirlogn", "1000,10000,50000", "comma-separated journal lengths for -dirlog")
		soakMode   = fs.Bool("soak", false, "run the kill-anything crash soak against a durable directory; -benchout writes the \"soak\" section")
		crashes    = fs.Int("crashes", 5, "directory kill/restart cycles for -soak")
		crashEvery = fs.Duration("crashevery", 300*time.Millisecond, "load time between kills for -soak")
		fsyncStr   = fs.String("fsync", "interval", "journal fsync policy for -soak: always, interval, or never")
		seed       = fs.Uint64("seed", 1, "base seed for page choice")
		minX       = fs.Float64("minx", 0, "fail unless last arm's lookup rate >= this multiple of the first arm's")
		benchOut   = fs.String("benchout", "", "merge results into this BENCH_experiments.json under \"loadtest\"")
		out        = fs.String("out", "", "also write the SLO table to this file")
		asJSON     = fs.Bool("json", false, "emit the result snapshot as JSON instead of the table")
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
	if err := conflictErr(set, arms, *minX, *rps, *dirlogMode, *soakMode); err != nil {
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
	if *dirlogMode {
		sizes, err := parseSizes(*dirlogN)
		if err != nil {
			_, _ = fmt.Fprintln(stderr, "gmsload:", err)
			return 2
		}
		root, err := os.MkdirTemp("", "gmsload-dirlog")
		if err != nil {
			return fail(err)
		}
		defer func() { _ = os.RemoveAll(root) }()
		_, _ = fmt.Fprintln(stderr, "gmsload: benchmarking journal recovery...")
		pts, err := dirlog.Bench(root, sizes)
		if err != nil {
			return fail(err)
		}
		dsnap := dirlogSnapshot{
			Schema:     "gmsubpage-dirlog/v1",
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Points:     pts,
		}
		return emit(&dsnap, dsnap.table(), "dirlog", *asJSON, *out, *benchOut, stdout, fail)
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
		res, err := load.RunSoak(load.SoakConfig{
			Servers:    *servers,
			Pages:      *pages,
			Clients:    *clients,
			Crashes:    *crashes,
			CrashEvery: *crashEvery,
			JournalDir: jdir,
			Fsync:      fsync,
			Seed:       *seed,
		})
		if err != nil {
			return fail(err)
		}
		ssnap := soakSnapshot{
			Schema:       "gmsubpage-dirsoak/v1",
			GOMAXPROCS:   runtime.GOMAXPROCS(0),
			Servers:      *servers,
			Pages:        *pages,
			Clients:      *clients,
			CrashEveryMs: float64(crashEvery.Milliseconds()),
			Fsync:        fsync.String(),
			Seed:         *seed,
			Result:       res,
		}
		return emit(&ssnap, ssnap.table(), "soak", *asJSON, *out, *benchOut, stdout, fail)
	}
	snap := loadSnapshot{
		Schema:       "gmsubpage-loadtest/v1",
		Workers:      *workers,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		DurationMs:   float64(duration.Milliseconds()),
		Clients:      *clients,
		Requests:     *requests,
		Servers:      *servers,
		Pages:        *pages,
		Subpage:      *subpage,
		Policy:       *policy,
		Cache:        *cache,
		RPS:          *rps,
		DirServiceUs: float64(dirservice.Nanoseconds()) / 1e3,
		Seed:         *seed,
	}
	for _, n := range arms {
		_, _ = fmt.Fprintf(stderr, "gmsload: running %d-shard arm...\n", n)
		res, err := load.Run(load.Config{
			Shards:      n,
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
		})
		if err != nil {
			return fail(err)
		}
		snap.Arms = append(snap.Arms, res)
	}
	if len(snap.Arms) > 1 {
		first, last := snap.Arms[0], snap.Arms[len(snap.Arms)-1]
		if first.LookupRate > 0 {
			snap.ScalingX = round2(last.LookupRate / first.LookupRate)
		}
	}

	if rc := emit(&snap, snap.table(), "loadtest", *asJSON, *out, *benchOut, stdout, fail); rc != 0 {
		return rc
	}
	if *minX > 0 && snap.ScalingX < *minX {
		return fail(fmt.Errorf("lookup scaling %.2fx below required %.2fx (%d vs %d shards)",
			snap.ScalingX, *minX, arms[len(arms)-1], arms[0]))
	}
	return 0
}

// emit writes one snapshot everywhere it's wanted: the table or JSON on
// stdout, the table to -out, the section to -benchout. All three modes
// funnel through here so artifacts stay shaped the same way.
func emit(snap any, table, key string, asJSON bool, out, benchOut string, stdout io.Writer, fail func(error) int) int {
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			return fail(err)
		}
	} else {
		_, _ = io.WriteString(stdout, table)
	}
	if out != "" {
		if err := os.WriteFile(out, []byte(table), 0o644); err != nil {
			return fail(err)
		}
	}
	if benchOut != "" {
		if err := mergeBench(benchOut, key, snap); err != nil {
			return fail(err)
		}
	}
	return 0
}

// parseSizes parses the -dirlogn list: comma-separated positive ints.
func parseSizes(s string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-dirlogn wants positive journal lengths like \"1000,10000\", got %q", s)
		}
		sizes = append(sizes, n)
	}
	return sizes, nil
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

// conflictErr rejects flag combinations the run would otherwise silently
// misinterpret, following the subpagesim convention (exit 2).
func conflictErr(set map[string]bool, arms []int, minX, rps float64, dirlogM, soakM bool) error {
	if dirlogM && soakM {
		return fmt.Errorf("-dirlog and -soak are distinct modes; pick one")
	}
	if dirlogM {
		if f := firstSet(set, "shards", "j", "duration", "clients", "requests",
			"servers", "pages", "subpage", "policy", "cache", "rps", "dirservice",
			"warmup", "crashes", "crashevery", "fsync", "seed", "minx"); f != "" {
			return fmt.Errorf("-%s shapes a cluster load, which -dirlog (a journal replay bench) skips", f)
		}
	} else if set["dirlogn"] {
		return fmt.Errorf("-dirlogn sizes the -dirlog bench; pass -dirlog too")
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

// loadSnapshot is the "loadtest" section merged into
// BENCH_experiments.json: the run's configuration, one entry per shard
// arm, and the first-to-last lookup-throughput scaling ratio.
type loadSnapshot struct {
	Schema       string        `json:"schema"`
	Workers      int           `json:"workers"`
	GOMAXPROCS   int           `json:"gomaxprocs"`
	DurationMs   float64       `json:"duration_ms"`
	Clients      int           `json:"clients"`
	Requests     int           `json:"requests"`
	Servers      int           `json:"servers"`
	Pages        int           `json:"pages"`
	Subpage      int           `json:"subpage"`
	Policy       string        `json:"policy"`
	Cache        int           `json:"cache"`
	RPS          float64       `json:"rps"`
	DirServiceUs float64       `json:"dirservice_us"`
	Seed         uint64        `json:"seed"`
	Arms         []load.Result `json:"arms"`
	ScalingX     float64       `json:"scaling_x,omitempty"`
}

// table renders the SLO table.
func (s *loadSnapshot) table() string {
	var b strings.Builder
	loop := "closed loop"
	if s.RPS > 0 {
		loop = fmt.Sprintf("open loop %.0f req/s", s.RPS)
	}
	fmt.Fprintf(&b, "gmsload: %d clients x %d faults (%s), %d pages, %d servers, dirservice %.0fµs\n\n",
		s.Clients, s.Requests, loop, s.Pages, s.Servers, s.DirServiceUs)
	fmt.Fprintf(&b, "%6s  %10s  %9s  %8s  %8s  %9s  %8s  %7s\n",
		"shards", "lookups/s", "faults/s", "p50(µs)", "p99(µs)", "p999(µs)", "max(µs)", "bounces")
	for _, a := range s.Arms {
		fmt.Fprintf(&b, "%6d  %10.0f  %9.0f  %8.0f  %8.0f  %9.0f  %8.0f  %7d\n",
			a.Shards, a.LookupRate, a.FaultRate, a.P50Us, a.P99Us, a.P999Us, a.MaxUs, a.WrongShard)
	}
	if s.ScalingX > 0 {
		fmt.Fprintf(&b, "\nlookup scaling: %.2fx (%d shards vs %d)\n",
			s.ScalingX, s.Arms[len(s.Arms)-1].Shards, s.Arms[0].Shards)
	}
	return b.String()
}

// dirlogSnapshot is the "dirlog" section merged into
// BENCH_experiments.json: journal replay throughput and recovery wall
// time at each journal length, and the snapshot compaction ratio.
type dirlogSnapshot struct {
	Schema     string              `json:"schema"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Points     []dirlog.BenchPoint `json:"points"`
}

// table renders the recovery bench.
func (s *dirlogSnapshot) table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "gmsload -dirlog: journal recovery and snapshot compaction\n\n")
	fmt.Fprintf(&b, "%9s  %10s  %11s  %11s  %9s  %10s  %8s\n",
		"records", "wal KiB", "recover ms", "replay/s", "snap ms", "snap KiB", "compact")
	for _, p := range s.Points {
		fmt.Fprintf(&b, "%9d  %10.1f  %11.2f  %11.0f  %9.2f  %10.1f  %7.1fx\n",
			p.Records, float64(p.WalBytes)/1024, p.RecoverMs, p.ReplayRecsPerSec,
			p.SnapshotMs, float64(p.SnapshotBytes)/1024, p.CompactionX)
	}
	return b.String()
}

// soakSnapshot is the "soak" section merged into BENCH_experiments.json:
// the crash soak's configuration and its ledger. Reaching emit at all
// means every recovery invariant held.
type soakSnapshot struct {
	Schema       string          `json:"schema"`
	GOMAXPROCS   int             `json:"gomaxprocs"`
	Servers      int             `json:"servers"`
	Pages        int             `json:"pages"`
	Clients      int             `json:"clients"`
	CrashEveryMs float64         `json:"crashevery_ms"`
	Fsync        string          `json:"fsync"`
	Seed         uint64          `json:"seed"`
	Result       load.SoakResult `json:"result"`
}

// table renders the soak ledger.
func (s *soakSnapshot) table() string {
	var b strings.Builder
	r := s.Result
	fmt.Fprintf(&b, "gmsload -soak: %d clients x %d pages x %d servers, fsync %s, kill every %.0fms\n\n",
		s.Clients, s.Pages, s.Servers, s.Fsync, s.CrashEveryMs)
	fmt.Fprintf(&b, "crashes survived:   %d in %.1fs\n", r.Crashes, r.Elapsed)
	fmt.Fprintf(&b, "reads:              %d (%d errs, max %.0fµs, zero hangs)\n", r.Reads, r.ReadErrs, r.MaxReadUs)
	fmt.Fprintf(&b, "re-registrations:   %d (journal recovered %d leases at the last restart)\n", r.Reregs, r.Recovered)
	fmt.Fprintf(&b, "final journal:      %d wal records (%.1f KiB) over a %d-record snapshot\n",
		r.WalRecords, float64(r.WalBytes)/1024, r.SnapRecords)
	return b.String()
}

// mergeBench read-modify-writes path, setting only the given key so every
// other section (subpagesim's, the other gmsload mode's) survives. A
// missing or unparseable file starts fresh rather than failing: the
// snapshot is an artifact, not an input.
func mergeBench(path, key string, snap any) error {
	top := make(map[string]any)
	if raw, err := os.ReadFile(path); err == nil {
		_ = json.Unmarshal(raw, &top)
		if top == nil {
			top = make(map[string]any)
		}
	}
	top[key] = snap
	out, err := json.MarshalIndent(top, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// round2 keeps ratios readable at two decimals.
func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }
