package experiments

import (
	"fmt"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/par"
	"github.com/gms-sim/gmsubpage/internal/sim"
	"github.com/gms-sim/gmsubpage/internal/stats"
	"github.com/gms-sim/gmsubpage/internal/trace"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// The prefetch experiment evaluates the Leap-style learned prefetcher
// (core.Prefetcher) against the paper's static pipelining on the five
// application traces plus a strided synthetic the fixed +1/−1 window
// cannot cover: a 2.5 KB-stride sweep, the access shape of a large-row
// array walk, whose next touch is +10 blocks away — outside every paper
// variant's pipeline window but exactly what a majority-trend detector
// recovers.

// prefetchSubpage is the evaluation subpage size: the paper's 1 KB sweet
// spot.
const prefetchSubpage = 1024

// stridedApp builds the strided synthetic: repeated passes over a region
// about twice the 1/2-mem memory size, touching one word every 2.5 KB.
// Every page visit faults (LRU scan pathology), then touches two or three
// more subpages at +10-block strides.
func stridedApp(scale float64) *trace.App {
	pages := int(320*scale + 0.5)
	if pages < 16 {
		pages = 16
	}
	region := trace.Region{Base: 0, Pages: pages}
	const stride = 2560 // 10 blocks: not a multiple of any subpage size
	passes := int64(8)
	refs := int64(region.Bytes()/stride) * passes
	return trace.NewApp("strided", 0x57f1, pages, func() []trace.Phase {
		return []trace.Phase{
			{Name: "sweep", Refs: refs, Pattern: &trace.Seq{Region: region, Stride: stride}},
		}
	})
}

// prefetchPolicies returns the per-cell policy constructors. The
// prefetcher is built fresh per cell: it is stateful, and sharing one
// across concurrent cells would race and break run-to-run determinism.
var prefetchPolicies = []struct {
	name string
	mk   func() core.Policy
}{
	{"pipelined", func() core.Policy { return core.Pipelined{} }},
	{"pipelined-double", func() core.Policy { return core.Pipelined{DoubleFollowOn: true} }},
	{"prefetch", func() core.Policy { return core.NewPrefetcher() }},
}

// prefetchWorkloads is the evaluation set: the paper's five applications
// plus the strided synthetic.
func prefetchWorkloads(scale float64) []*trace.App {
	return append(trace.Apps(scale), stridedApp(scale))
}

// prefetchCells runs the full workload x policy grid at 1/2 memory,
// returning results indexed [workload][policy].
func prefetchCells(cfg Config) ([]*trace.App, [][]*sim.Result) {
	apps := prefetchWorkloads(cfg.Scale)
	np := len(prefetchPolicies)
	flat := par.Map(cfg.Pool, len(apps)*np, func(i int) *sim.Result {
		return sim.Run(sim.Config{
			App:           apps[i/np],
			MemFraction:   0.5,
			Policy:        prefetchPolicies[i%np].mk(),
			SubpageSize:   prefetchSubpage,
			TrackPrefetch: true,
		})
	})
	grid := make([][]*sim.Result, len(apps))
	for i := range grid {
		grid[i] = flat[i*np : (i+1)*np]
	}
	return apps, grid
}

// stallMs is the total transfer-stall time: faulted-subpage latency plus
// page waits (disk wait is zero in these warm-cache runs).
func stallMs(r *sim.Result) float64 {
	return (r.SpLatency + r.PageWait).Ms()
}

// coverage is the fraction of follow-on demand (blocks demanded after
// each fault's own subpage) that prefetching covered: used prefetched
// blocks over used plus the blocks refetched by subpage faults.
func coverage(r *sim.Result) float64 {
	refetched := r.SubpageFaults * int64(r.Subpage/units.MinSubpage)
	if r.PrefetchUsed+refetched == 0 {
		return 0
	}
	return float64(r.PrefetchUsed) / float64(r.PrefetchUsed+refetched)
}

// accuracy is the fraction of speculatively moved blocks the program went
// on to touch.
func accuracy(r *sim.Result) float64 {
	if r.PrefetchIssued == 0 {
		return 0
	}
	return float64(r.PrefetchUsed) / float64(r.PrefetchIssued)
}

// Prefetch is the learned-prefetcher evaluation (see ROADMAP: "Learned
// prefetching beyond the paper's static pipeline").
func Prefetch(cfg Config) *Result {
	cfg = cfg.withDefaults()
	apps, grid := prefetchCells(cfg)

	perf := &stats.Table{
		Title: fmt.Sprintf("Runtime and stall: learned prefetch vs. static pipelining (1/2-mem, %dB subpages)", prefetchSubpage),
		Header: []string{"workload", "faults", "pipe(ms)", "pipe2x(ms)", "pref(ms)",
			"pipe stall", "pref stall", "Δruntime"},
	}
	diag := &stats.Table{
		Title: "Prefetch diagnostics (speculative blocks beyond each fault's subpage)",
		Header: []string{"workload", "policy", "issued", "used", "accuracy", "coverage",
			"spfaults", "MB moved"},
	}
	var notes []string
	worstName, worstDelta := "", -1.0
	for ai, app := range apps {
		pipe, pipe2, pref := grid[ai][0], grid[ai][1], grid[ai][2]
		perf.AddRow(app.Name, fmt.Sprint(pipe.Faults),
			stats.F(pipe.RuntimeMs(), 1),
			stats.F(pipe2.RuntimeMs(), 1),
			stats.F(pref.RuntimeMs(), 1),
			stats.F(stallMs(pipe), 1),
			stats.F(stallMs(pref), 1),
			stats.Pct(improvement(pipe.Runtime, pref.Runtime)))
		for pi, r := range grid[ai] {
			diag.AddRow(app.Name, prefetchPolicies[pi].name,
				fmt.Sprint(r.PrefetchIssued), fmt.Sprint(r.PrefetchUsed),
				stats.Pct(accuracy(r)), stats.Pct(coverage(r)),
				fmt.Sprint(r.SubpageFaults),
				stats.F(float64(r.BytesMoved)/(1<<20), 1))
		}
		delta := float64(pref.Runtime-pipe.Runtime) / float64(pipe.Runtime)
		if delta > worstDelta {
			worstDelta, worstName = delta, app.Name
		}
		if app.Name == "strided" {
			notes = append(notes, fmt.Sprintf(
				"strided: stride detector cuts stall %.1fms -> %.1fms and bytes %.1fMB -> %.1fMB vs pipelined",
				stallMs(pipe), stallMs(pref),
				float64(pipe.BytesMoved)/(1<<20), float64(pref.BytesMoved)/(1<<20)))
		}
	}
	notes = append(notes, fmt.Sprintf(
		"gate: worst runtime delta vs pipelined is %+.1f%% (%s); the detector must win on strided and never lose the +1-dominated traces",
		100*worstDelta, worstName))
	return &Result{ID: "prefetch", Title: "Learned prefetching vs. the static pipeline",
		Tables: []*stats.Table{perf, diag}, Notes: notes}
}
