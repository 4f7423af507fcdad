// Command bench is the repository's benchmark: seven named workloads over the
// live prototype (in-process cluster, loopback TCP, two closed-loop clients)
// and the simulator, end-to-end metrics measured with tracing off, and
// per-layer metrics from a separate traced run that times each layer from
// outside, through its public functions. README.md defines every name.
//
//	go run . -workload all -seed 1 -trace 1 -out run.json   (from bench/)
//	go run . -workload fault-churn -seed 3 -seconds 8 -trace 0
//	go run . -compare a.json b.json
//
// One workload is one process: -workload all runs each in a fresh child of
// this binary, so one workload's heap never taxes the next one's collector.
// The last line of a single-workload run's standard output is the result as
// one JSON object; the exit status is non-zero if any output was wrong.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{
	"fault-churn", "atm-pair", "writeback-mix", "hit-resident", "cold-scan", "sim-apps", "sim-faultstorm",
}

// loadModel is stated in every output: how load is applied decides what a
// latency means.
const loadModel = "closed loop, 2 clients, loopback TCP, in-process cluster"

// sizes are the benchmark's fixed inputs. Only the harness's own smoke test
// uses anything but fullSizes.
type sizes struct {
	pages    int // pages in the global set
	cache    int // client cache: 1/8 of the set, the paper's memory-starved regime
	resident int // hit-resident's working set
	probes   int // sequential exchanges per raw probe

	simScale  float64 // paper-app trace scale
	stormRefs int     // references in the fault-storm trace

	kernelIters  int           // fewest calls a kernel timing makes
	kernelTime   time.Duration // how long one kernel timing should last
	fsyncAppends int
	journalRecs  int
}

var fullSizes = sizes{
	pages: 4096, cache: 512, resident: 256, probes: 2000,
	simScale: 0.1, stormRefs: 1 << 20,
	kernelIters: 1000, kernelTime: 100 * time.Millisecond, fsyncAppends: 200, journalRecs: 10000,
}

// runCtx is one run of one workload.
type runCtx struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	sz       sizes
	scratch  string // where journals and probe files go

	// tamper, when set, runs on a prototype workload's cluster after set-up
	// and before the window. The harness's own test uses it to corrupt a
	// page and see the run fail.
	tamper func(cl *cluster)

	res       *results
	rec       *recorder            // the traced run's spans
	spans     map[string][]float64 // the traced windows' span durations by name, ascending
	attempted int64
	failed    int64
	correct   bool
	notes     []string
}

func (rc *runCtx) notef(format string, a ...any) {
	rc.notes = append(rc.notes, fmt.Sprintf(format, a...))
}

// run executes the workload and fills rc.res.
func (rc *runCtx) run() error {
	rc.res = newResults()
	rc.correct = true
	defer os.RemoveAll(rc.scratch)
	if pw, ok := protoWorkloads[rc.workload]; ok {
		return pw.run(rc)
	}
	if sw, ok := simWorkloads[rc.workload]; ok {
		return sw.run(rc)
	}
	return fmt.Errorf("unknown workload %q (have %s, all)", rc.workload, strings.Join(workloadNames, ", "))
}

func (rc *runCtx) valid() bool { return rc.correct && rc.failed == 0 && rc.attempted > 0 }

// runRecord is one run as the -out file keeps it.
type runRecord struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
}

// outFile is what -out writes and -compare reads.
type outFile struct {
	Meta meta        `json:"meta"`
	Runs []runRecord `json:"runs"`
}

type meta struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Load       string  `json:"load"`
}

func currentMeta(seed uint64, seconds float64) meta {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return meta{Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds, Load: loadModel}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	spinIfChild()
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 8, "length of the measurement window")
	trace := fs.Int("trace", 0, "1: run with the span recorder on and report the per-layer metrics; with -workload all, run both ways")
	out := fs.String("out", "", "write the results to this JSON file")
	traceout := fs.String("traceout", "", "write the traced window's spans to this file as Chrome trace_event JSON")
	repeat := fs.Int("repeat", 1, "with -workload all: passes over the workloads (alternating workloads, not back-to-back repeats)")
	compare := fs.Bool("compare", false, "compare two -out files (each may be a comma-separated list): bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	case fs.NArg() != 0 || *seconds <= 0 || *trace < 0 || *trace > 1 || *repeat < 1:
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	case *workload == "all":
		return runAll(*seed, *seconds, *trace == 1, *repeat, *out, *traceout)
	}
	scratch, err := tmpDir(scratchRoot(), *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer keepAwake()()
	return runOne(&runCtx{workload: *workload, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, sz: fullSizes, scratch: scratch}, *out, *traceout)
}

// runOne runs one workload in this process and prints its result.
func runOne(rc *runCtx, out, traceout string) int {
	workload, seed, seconds, traced := rc.workload, rc.seed, rc.window.Seconds(), rc.traced
	m := currentMeta(seed, seconds)
	fmt.Printf("# %s seed=%d seconds=%g trace=%t commit=%s %s nproc=%d GOMAXPROCS=%d; %s\n",
		workload, seed, seconds, traced, m.Commit, m.GoVersion, m.NumCPU, m.GOMAXPROCS, loadModel)
	if err := rc.run(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", workload, err)
		return 1
	}
	rc.res.print(os.Stdout, workload)
	if rc.rec != nil {
		rc.rec.printSelfTimes(os.Stdout, workload)
	}
	for _, n := range rc.notes {
		fmt.Printf("%-16s note: %s\n", workload, n)
	}
	rec := runRecord{Workload: workload, Trace: traced, Seed: seed, Seconds: seconds,
		Correct: rc.correct, Attempted: rc.attempted, Failed: rc.failed, Metrics: rc.res.m, Notes: rc.notes}
	if out != "" {
		if err := writeJSON(out, outFile{Meta: m, Runs: []runRecord{rec}}); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if traceout != "" && rc.rec != nil {
		if err := writeSpans(traceout, rc.rec, workload); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	fmt.Println(resultLine(rc))
	if !rc.valid() {
		fmt.Fprintf(os.Stderr, "bench: %s: run invalid: correct=%t failed=%d attempted=%d\n", workload, rc.correct, rc.failed, rc.attempted)
		return 1
	}
	return 0
}

func writeSpans(path string, rec *recorder, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeChrome(f, "bench "+workload); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// resultLine is the run's last line of output: one JSON object holding
// exactly the end-to-end metrics (untraced run) or exactly the per-layer
// metrics (traced run; a layer this workload does not exercise reads 0).
func resultLine(rc *runCtx) string {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	table := endToEnd
	if rc.traced {
		table = perLayer
	}
	metrics := make(map[string]val, len(table))
	for _, d := range table {
		v, _ := rc.res.get(d.Name)
		metrics[d.Name] = val{v, d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{rc.correct, rc.attempted, rc.failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// runAll runs every workload, each in a fresh child process, repeat times
// over; with traced set each workload runs untraced and then traced.
func runAll(seed uint64, seconds float64, traced bool, repeat int, out, traceout string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tmp, err := tmpDir(scratchRoot(), "all-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	all := outFile{Meta: currentMeta(seed, seconds)}
	status := 0
	for pass := 0; pass < repeat; pass++ {
		for _, w := range workloadNames {
			for t := 0; t <= 1; t++ {
				if t == 1 && !traced {
					continue
				}
				part := fmt.Sprintf("%s/%s.%d.json", tmp, w, t)
				args := []string{"-workload", w, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
					"-trace", fmt.Sprint(t), "-out", part}
				if t == 1 && traceout != "" {
					args = append(args, "-traceout", traceout+"."+w)
				}
				cmd := exec.Command(exe, args...)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					var ee *exec.ExitError
					if !errors.As(err, &ee) {
						fmt.Fprintln(os.Stderr, "bench:", err)
					}
					status = 1
				}
				var f outFile
				if b, err := os.ReadFile(part); err == nil && json.Unmarshal(b, &f) == nil {
					all.Runs = append(all.Runs, f.Runs...)
				}
			}
		}
	}
	if out != "" {
		if err := writeJSON(out, all); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if status != 0 {
		fmt.Fprintln(os.Stderr, "bench: at least one workload failed or returned wrong output")
	}
	return status
}
