// Command subpagesim runs the paper's experiments and ad-hoc simulations.
//
// Regenerate paper artifacts:
//
//	subpagesim -list
//	subpagesim -run table2
//	subpagesim -run all -scale 1.0        # full paper-scale traces
//	subpagesim -run all -j 8              # 8 parallel workers
//
// Ad-hoc simulation:
//
//	subpagesim -app render -mem 0.5 -policy pipelined -subpage 1024
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	gmsubpage "github.com/gms-sim/gmsubpage"
	"github.com/gms-sim/gmsubpage/internal/experiments"
	"github.com/gms-sim/gmsubpage/internal/par"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// allFlags lists every flag name in display order, so conflict errors
// name the offending flags deterministically.
var allFlags = []string{"list", "run", "scale", "j", "app", "trace", "mem",
	"policy", "subpage", "disk", "pal", "json", "traceout", "tracejsonl"}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("subpagesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list experiments and exit")
		runID    = fs.String("run", "", "experiment id to regenerate, or \"all\"")
		scale    = fs.Float64("scale", 0.25, "trace scale (1.0 = paper-sized traces)")
		workers  = fs.Int("j", 0, "parallel workers for -run (0 = GOMAXPROCS, 1 = sequential)")
		app      = fs.String("app", "", "run one simulation of this workload instead of an experiment")
		traceIn  = fs.String("trace", "", "simulate a trace file saved by tracegen instead of a workload")
		mem      = fs.Float64("mem", 1.0, "local memory as a fraction of the workload footprint")
		policy   = fs.String("policy", "eager", "transfer policy")
		subpage  = fs.Int("subpage", 1024, "subpage size in bytes")
		disk     = fs.Bool("disk", false, "serve faults from disk instead of network memory")
		pal      = fs.Bool("pal", false, "charge PALcode software valid-bit emulation costs")
		asJSON   = fs.Bool("json", false, "emit -app/-trace results as JSON")
		traceOut = fs.String("traceout", "", "write the run's fault timeline as a Chrome trace_event file (-app/-trace)")
		traceJL  = fs.String("tracejsonl", "", "write the run's fault timeline as JSONL, one span per line (-app/-trace)")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := conflictErr(set); err != nil {
		_, _ = fmt.Fprintln(stderr, "subpagesim:", err)
		return 2
	}
	if err := rangeErr(*scale, *mem); err != nil {
		_, _ = fmt.Fprintln(stderr, "subpagesim:", err)
		return 2
	}

	fail := func(err error) int {
		_, _ = fmt.Fprintln(stderr, "subpagesim:", err)
		return 1
	}
	switch {
	case *list:
		for _, id := range gmsubpage.Experiments() {
			_, _ = fmt.Fprintln(stdout, id)
		}
	case *runID != "":
		ids := []string{*runID}
		if *runID == "all" {
			ids = experiments.IDs()
		}
		for _, id := range ids {
			if _, ok := experiments.ByID(id); !ok {
				return fail(fmt.Errorf("unknown experiment %q (have %v)", id, experiments.IDs()))
			}
		}
		// One pool serves both levels of the fan-out: whole experiments
		// run concurrently, and the sweep cells inside each experiment
		// fan out onto the same workers. Results are collected by index,
		// so the printed output is identical at any -j width.
		pool := par.New(*workers)
		outs := make([]string, len(ids))
		pool.ForEach(len(ids), func(i int) {
			e, _ := experiments.ByID(ids[i])
			outs[i] = e.Run(experiments.Config{Scale: *scale, Pool: pool}).String()
		})
		for _, out := range outs {
			_, _ = fmt.Fprintln(stdout, out)
		}
	case *app != "" || *traceIn != "":
		cfg := gmsubpage.Config{
			Workload:       *app,
			Scale:          *scale,
			MemoryFraction: *mem,
			Policy:         gmsubpage.Policy(*policy),
			SubpageSize:    *subpage,
			DiskBacking:    *disk,
			PALEmulation:   *pal,
		}
		if *traceOut != "" || *traceJL != "" {
			node := *app
			if node == "" {
				node = *traceIn
			}
			cfg.FaultTrace = gmsubpage.NewFaultTrace(node)
		}
		var rep *gmsubpage.Report
		var err error
		if *traceIn != "" {
			rep, err = gmsubpage.SimulateTraceFile(*traceIn, cfg)
		} else {
			rep, err = gmsubpage.Simulate(cfg)
		}
		if err != nil {
			return fail(err)
		}
		if err := exportTrace(cfg.FaultTrace, *traceOut, *traceJL); err != nil {
			return fail(err)
		}
		if *asJSON {
			out, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				return fail(err)
			}
			_, _ = fmt.Fprintln(stdout, string(out))
			return 0
		}
		_, _ = fmt.Fprintf(stdout, "%s %s subpage=%d mem=%d pages\n", rep.Workload, rep.Policy,
			rep.SubpageSize, rep.MemoryPages)
		_, _ = fmt.Fprintf(stdout, "  runtime   %10.1f ms\n", rep.RuntimeMs)
		_, _ = fmt.Fprintf(stdout, "  exec      %10.1f ms\n", rep.ExecMs)
		_, _ = fmt.Fprintf(stdout, "  sp wait   %10.1f ms\n", rep.SubpageWaitMs)
		_, _ = fmt.Fprintf(stdout, "  page wait %10.1f ms\n", rep.PageWaitMs)
		_, _ = fmt.Fprintf(stdout, "  disk wait %10.1f ms\n", rep.DiskWaitMs)
		_, _ = fmt.Fprintf(stdout, "  faults    %10d (+%d subpage refetches)\n", rep.Faults, rep.SubpageFaults)
		_, _ = fmt.Fprintf(stdout, "  moved     %10.1f MB, io-overlap share %.0f%%\n",
			float64(rep.BytesMoved)/(1<<20), rep.IOOverlapShare*100)
	default:
		fs.Usage()
		return 2
	}
	return 0
}

// exportTrace writes the recorded fault timeline to the requested files.
// tr is nil when neither export flag was given.
func exportTrace(tr *gmsubpage.FaultTrace, chromePath, jsonlPath string) error {
	if tr == nil {
		return nil
	}
	write := func(path string, render func(io.Writer, ...*gmsubpage.FaultTrace) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := render(f, tr); err != nil {
			_ = f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(chromePath, gmsubpage.WriteTraceChrome); err != nil {
		return err
	}
	return write(jsonlPath, gmsubpage.WriteTraceJSONL)
}

// conflictErr rejects flag combinations that the command would otherwise
// silently ignore: each mode (-list, -run, -app/-trace) accepts only its
// own flags.
func conflictErr(set map[string]bool) error {
	others := func(allowed ...string) []string {
		ok := make(map[string]bool, len(allowed))
		for _, a := range allowed {
			ok[a] = true
		}
		var bad []string
		for _, f := range allFlags {
			if set[f] && !ok[f] {
				bad = append(bad, "-"+f)
			}
		}
		return bad
	}
	switch {
	case set["list"]:
		if bad := others("list"); len(bad) > 0 {
			return fmt.Errorf("-list takes no other flags (got %s)", strings.Join(bad, " "))
		}
	case set["run"]:
		if bad := others("run", "scale", "j"); len(bad) > 0 {
			return fmt.Errorf("-run regenerates experiments and ignores the single-simulation flags; drop %s or drop -run", strings.Join(bad, " "))
		}
	case set["app"] && set["trace"]:
		return fmt.Errorf("-app and -trace both name a reference stream; give exactly one")
	case set["app"]:
		if bad := others("app", "scale", "mem", "policy", "subpage", "disk", "pal", "json", "traceout", "tracejsonl"); len(bad) > 0 {
			return fmt.Errorf("%s only applies to -run; drop it or use -run", strings.Join(bad, " "))
		}
	case set["trace"]:
		if bad := others("trace", "mem", "policy", "subpage", "disk", "pal", "json", "traceout", "tracejsonl"); len(bad) > 0 {
			if set["scale"] {
				return fmt.Errorf("-scale does not apply to -trace: the file fixes the reference stream")
			}
			return fmt.Errorf("%s only applies to -run; drop it or use -run", strings.Join(bad, " "))
		}
	default:
		if len(set) > 0 {
			return fmt.Errorf("no mode selected: give -list, -run, -app or -trace")
		}
	}
	return nil
}

// rangeErr rejects a trace scale or memory fraction the simulator would
// otherwise quietly replace: a negative or NaN scale clamps every trace to
// its minimum size, and a negative fraction sizes memory at a page or two.
func rangeErr(scale, mem float64) error {
	if scale < 0 || math.IsNaN(scale) {
		return fmt.Errorf("-scale wants a non-negative trace scale, got %v", scale)
	}
	if mem < 0 || math.IsNaN(mem) {
		return fmt.Errorf("-mem wants a non-negative memory fraction, got %v", mem)
	}
	return nil
}
