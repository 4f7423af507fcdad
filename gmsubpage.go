// Package gmsubpage reproduces "Reducing Network Latency Using Subpages in
// a Global Memory Environment" (Jamrozik et al., ASPLOS 1996).
//
// It provides three things:
//
//   - a calibrated trace-driven simulator of subpage transfer policies
//     (full-page, lazy, eager fullpage fetch, subpage pipelining) in a
//     global memory system, with the paper's five application workloads
//     (Simulate, Workloads), custom trace replay (SimulateTraceFile,
//     WriteWorkloadTrace), and a multi-node cluster mode with GMS's
//     epoch-based global replacement (SimulateCluster);
//   - the complete experiment harness regenerating every table and figure
//     of the paper's evaluation, plus ablations, validations and the
//     paper's future-work predictions (Experiments, RunExperiment);
//   - a real networked remote-memory prototype over TCP — directory, page
//     servers, and a faulting client with subpage valid bits, a learned
//     stride prefetcher, io.ReaderAt/io.WriterAt paging, and live workload
//     replay (StartDirectory, StartServer, DialClient).
//
// The simulator's latency model is calibrated to the paper's DEC Alpha
// 250 / AN2 ATM prototype: a 1 KB subpage fault completes in ~0.55 ms
// versus ~1.48 ms for a full 8 KB page.
package gmsubpage

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/experiments"
	"github.com/gms-sim/gmsubpage/internal/par"
	"github.com/gms-sim/gmsubpage/internal/sim"
	"github.com/gms-sim/gmsubpage/internal/trace"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// PageSize is the modelled full page size (8 KB, as on the Alpha).
const PageSize = units.PageSize

// Policy names a subpage transfer policy.
type Policy string

// The available policies.
const (
	// FullPage transfers the whole 8 KB page: the classical GMS baseline.
	FullPage Policy = "fullpage"
	// Lazy transfers only the faulted subpage; other subpages fault in
	// on demand (≈ small pages).
	Lazy Policy = "lazy"
	// Eager transfers the faulted subpage, restarts the program, and
	// sends the rest of the page as one follow-on message.
	Eager Policy = "eager"
	// Pipelined sends the faulted subpage, then the +1 and -1 neighbour
	// subpages, then the remainder, assuming an intelligent controller.
	Pipelined Policy = "pipelined"
	// PipelinedDouble doubles each pipelined follow-on transfer (§4.3).
	PipelinedDouble Policy = "pipelined-double"
	// PipelinedSW charges the receiving CPU per pipelined subpage,
	// modelling the AN2 prototype's interrupt costs.
	PipelinedSW Policy = "pipelined-sw"
	// WideFault doubles the initial transfer, picking the preceding or
	// following neighbour from the fault's offset (§4.3).
	WideFault Policy = "widefault"
	// Prefetch is the Leap-style learned prefetcher: a per-page-group
	// majority-vote stride detector over recent fault offsets emits a
	// confidence-scaled prefetch window, falling back to Pipelined when
	// no trend is confident. Stateful: each simulation run learns from
	// its own fault stream. Extension beyond the paper.
	Prefetch Policy = "prefetch"
)

// Policies lists every policy name.
func Policies() []Policy {
	return []Policy{FullPage, Lazy, Eager, Pipelined, PipelinedDouble, PipelinedSW, WideFault, Prefetch}
}

// Workloads lists the paper's five applications.
func Workloads() []string {
	names := make([]string, 0, 5)
	for _, a := range trace.Apps(1) {
		names = append(names, a.Name)
	}
	return names
}

// Config describes one simulation run.
type Config struct {
	// Workload is one of Workloads() (default "modula3").
	Workload string
	// Scale shrinks the trace and footprint proportionally; 1.0 is the
	// paper's full trace (default 0.25). Negative or NaN is an error.
	Scale float64
	// MemoryFraction sizes local memory relative to the workload's
	// footprint: 1, 0.5 or 0.25 in the paper (default 1). Negative or NaN
	// is an error.
	MemoryFraction float64
	// Policy selects the transfer policy (default Eager).
	Policy Policy
	// SubpageSize in bytes: a power of two in [256, 8192] (default 1024).
	SubpageSize int
	// DiskBacking serves all faults from disk instead of network memory
	// (the paper's disk_8192 baseline).
	DiskBacking bool
	// PALEmulation charges the prototype's software valid-bit costs
	// (Table 1) instead of assuming TLB hardware support.
	PALEmulation bool
	// TrackPerFault retains per-fault arrays (Figures 5-7) in the report.
	TrackPerFault bool
	// FaultTrace, when non-nil, records every fault's anatomy during the
	// run for export with WriteTraceChrome / WriteTraceJSONL. Tracing
	// never changes the simulated result.
	FaultTrace *FaultTrace
}

// Report is the outcome of a simulation run.
type Report struct {
	Workload    string
	Policy      Policy
	SubpageSize int
	MemoryPages int

	// RuntimeMs is the modelled execution time in milliseconds; the
	// next four fields decompose it.
	RuntimeMs     float64
	ExecMs        float64 // references executing (12 ns each)
	SubpageWaitMs float64 // stalls for the faulted subpage
	PageWaitMs    float64 // stalls for the rest of a page
	DiskWaitMs    float64

	Faults        int64
	SubpageFaults int64
	Evictions     int64
	BytesMoved    int64

	// IOOverlapShare is the fraction of the asynchronous-transfer
	// benefit attributable to overlapped I/O rather than overlapped
	// computation.
	IOOverlapShare float64

	// Per-fault data (TrackPerFault only).
	PerFaultWaitMs []float64
	FaultEvents    []int64
	// NextSubpageDistance[d] is the share of faults whose next access
	// on the page was d subpages away (Figure 7).
	NextSubpageDistance map[int]float64
}

// policyFor maps a Policy name to its implementation.
func policyFor(p Policy) (core.Policy, error) {
	if p == "" {
		p = Eager
	}
	return core.ByName(string(p))
}

// nonNegative rejects a negative or NaN trace scale or memory fraction,
// which would otherwise run silently on the smallest traces the
// generators clamp to, or on a memory of a page or two.
func nonNegative(field string, v float64) error {
	if v < 0 || math.IsNaN(v) {
		return fmt.Errorf("gmsubpage: %s must be a non-negative number, got %v", field, v)
	}
	return nil
}

// Simulate runs one configuration and reports the paging behaviour.
func Simulate(cfg Config) (*Report, error) {
	if err := errors.Join(nonNegative("Scale", cfg.Scale), nonNegative("MemoryFraction", cfg.MemoryFraction)); err != nil {
		return nil, err
	}
	if cfg.Workload == "" {
		cfg.Workload = "modula3"
	}
	if cfg.Scale == 0 {
		cfg.Scale = 0.25
	}
	if cfg.SubpageSize == 0 {
		cfg.SubpageSize = 1024
	}
	if cfg.MemoryFraction == 0 {
		cfg.MemoryFraction = 1
	}
	app := trace.ByName(cfg.Workload, cfg.Scale)
	if app == nil {
		return nil, fmt.Errorf("gmsubpage: unknown workload %q (have %v)", cfg.Workload, Workloads())
	}
	if !units.ValidSubpageSize(cfg.SubpageSize) {
		return nil, fmt.Errorf("gmsubpage: invalid subpage size %d", cfg.SubpageSize)
	}
	pol, err := policyFor(cfg.Policy)
	if err != nil {
		return nil, err
	}
	backing := sim.GlobalMemory
	if cfg.DiskBacking {
		backing = sim.Disk
	}
	r := sim.Run(sim.Config{
		App:           app,
		MemFraction:   cfg.MemoryFraction,
		Policy:        pol,
		SubpageSize:   cfg.SubpageSize,
		Backing:       backing,
		PALEmulation:  cfg.PALEmulation,
		TrackPerFault: cfg.TrackPerFault,
		Trace:         cfg.FaultTrace,
	})
	return reportFrom(r, cfg.TrackPerFault), nil
}

// reportFrom converts a simulator result to the public report shape.
func reportFrom(r *sim.Result, tracked bool) *Report {
	rep := &Report{
		Workload:       r.AppName,
		Policy:         Policy(r.Policy),
		SubpageSize:    r.Subpage,
		MemoryPages:    r.MemPages,
		RuntimeMs:      r.Runtime.Ms(),
		ExecMs:         units.Ticks(r.Events).Ms(),
		SubpageWaitMs:  r.SpLatency.Ms(),
		PageWaitMs:     r.PageWait.Ms(),
		DiskWaitMs:     r.DiskWait.Ms(),
		Faults:         r.Faults,
		SubpageFaults:  r.SubpageFaults,
		Evictions:      r.Evictions,
		BytesMoved:     r.BytesMoved,
		IOOverlapShare: r.IOOverlapShare,
	}
	if tracked {
		rep.PerFaultWaitMs = make([]float64, len(r.PerFaultWait))
		for i, w := range r.PerFaultWait {
			rep.PerFaultWaitMs[i] = w.Ms()
		}
		rep.FaultEvents = append(rep.FaultEvents, r.FaultEvents...)
		rep.NextSubpageDistance = make(map[int]float64)
		for _, k := range r.NextDistance.Keys() {
			rep.NextSubpageDistance[k] = r.NextDistance.Fraction(k)
		}
	}
	return rep
}

// Speedup returns how much faster this run is than other.
func (r *Report) Speedup(other *Report) float64 {
	if r.RuntimeMs == 0 {
		return 0
	}
	return other.RuntimeMs / r.RuntimeMs
}

// WriteWorkloadTrace serializes a built-in workload's reference trace to w
// in the tracegen file format, returning the number of references written.
// SimulateTraceFile replays such files.
func WriteWorkloadTrace(w io.Writer, workload string, scale float64) (int64, error) {
	if scale == 0 {
		scale = 0.25
	}
	app := trace.ByName(workload, scale)
	if app == nil {
		return 0, fmt.Errorf("gmsubpage: unknown workload %q (have %v)", workload, Workloads())
	}
	return trace.Write(w, app.NewReader())
}

// SimulateTraceFile runs the simulator over a reference trace previously
// saved with cmd/tracegen, instead of a built-in workload. Config's
// Workload and Scale fields are ignored; everything else applies.
func SimulateTraceFile(path string, cfg Config) (*Report, error) {
	if err := nonNegative("MemoryFraction", cfg.MemoryFraction); err != nil {
		return nil, err
	}
	// Profile once for the footprint (and to validate the file).
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	rd, err := trace.Open(f)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	prof := trace.ProfileOf(rd)
	_ = f.Close()
	if prof.Refs == 0 {
		return nil, fmt.Errorf("gmsubpage: trace %s is empty", path)
	}

	if cfg.SubpageSize == 0 {
		cfg.SubpageSize = 1024
	}
	if cfg.MemoryFraction == 0 {
		cfg.MemoryFraction = 1
	}
	if !units.ValidSubpageSize(cfg.SubpageSize) {
		return nil, fmt.Errorf("gmsubpage: invalid subpage size %d", cfg.SubpageSize)
	}
	pol, err := policyFor(cfg.Policy)
	if err != nil {
		return nil, err
	}
	backing := sim.GlobalMemory
	if cfg.DiskBacking {
		backing = sim.Disk
	}
	src := &sim.TraceSource{
		Name:  filepath.Base(path),
		Pages: prof.Pages,
		NewReader: func() trace.Reader {
			f, err := os.Open(path)
			if err != nil {
				return &trace.SliceReader{}
			}
			rd, err := trace.Open(f)
			if err != nil {
				_ = f.Close()
				return &trace.SliceReader{}
			}
			return &closingReader{r: rd, f: f}
		},
	}
	r := sim.Run(sim.Config{
		Source:        src,
		MemFraction:   cfg.MemoryFraction,
		Policy:        pol,
		SubpageSize:   cfg.SubpageSize,
		Backing:       backing,
		PALEmulation:  cfg.PALEmulation,
		TrackPerFault: cfg.TrackPerFault,
		Trace:         cfg.FaultTrace,
	})
	return reportFrom(r, cfg.TrackPerFault), nil
}

// closingReader closes the backing file when the stream ends.
type closingReader struct {
	r trace.Reader
	f *os.File
}

func (c *closingReader) Read(buf []trace.Ref) int {
	n := c.r.Read(buf)
	if n == 0 && c.f != nil {
		_ = c.f.Close()
		c.f = nil
	}
	return n
}

// Experiments lists the paper artifacts the harness can regenerate
// ("fig1" ... "fig10", "table1", "table2", plus ablations).
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one paper artifact at the given trace scale
// (0 means the fast default, 1.0 the paper's full traces; negative or NaN
// is an error) and returns its rendered tables.
func RunExperiment(id string, scale float64) (string, error) {
	return RunExperimentParallel(id, scale, 1)
}

// RunExperimentParallel is RunExperiment with the independent simulation
// cells inside the experiment fanned out onto a bounded worker pool of
// the given width (0 selects GOMAXPROCS, 1 is sequential). The rendered
// output is byte-identical at every width.
func RunExperimentParallel(id string, scale float64, workers int) (string, error) {
	if err := nonNegative("scale", scale); err != nil {
		return "", err
	}
	e, ok := experiments.ByID(id)
	if !ok {
		return "", fmt.Errorf("gmsubpage: unknown experiment %q (have %v)", id, Experiments())
	}
	return e.Run(experiments.Config{Scale: scale, Pool: par.New(workers)}).String(), nil
}
