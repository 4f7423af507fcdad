package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/rng"
	"github.com/gms-sim/gmsubpage/internal/sim"
	"github.com/gms-sim/gmsubpage/internal/trace"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// simCase is one cell of a simulator workload's matrix.
type simCase struct {
	group  string // what the per-layer numbers are grouped by: app or policy
	policy string
	cfg    sim.Config // Policy is filled per run: stateful policies must come back fresh
}

// digest is what two runs of one cell must agree on. There is no golden file:
// a legitimate model change moves sim.simulated_ms, and that is the signal.
type digest struct {
	runtime, spLatency, pageWait      units.Ticks
	faults, subpageFaults, bytesMoved int64
}

func digestOf(r *sim.Result) digest {
	return digest{r.Runtime, r.SpLatency, r.PageWait, r.Faults, r.SubpageFaults, r.BytesMoved}
}

// simWorkload is one simulator workload: set-up that builds its traces, the
// matrix, what counts as an op, and the kernels of the layers it leans on.
type simWorkload struct {
	setUpOnce bool
	// setUp builds the traces and returns the matrix; it is what setup_s times.
	setUp   func(rc *runCtx) ([]simCase, error)
	ops     func(r *sim.Result) int64
	kernels func(rc *runCtx) error
}

var simWorkloads = map[string]simWorkload{
	// One set-up: the trace memo is process-wide and cannot be dropped, so a
	// second generation of the same traces would time a cache hit.
	"sim-apps": {setUpOnce: true, setUp: simAppsSetUp,
		ops:     func(r *sim.Result) int64 { return r.Events },
		kernels: func(rc *runCtx) error { memKernels(rc); traceKernels(rc); return nil }},
	"sim-faultstorm": {setUp: stormSetUp,
		ops:     func(r *sim.Result) int64 { return r.Faults + r.SubpageFaults },
		kernels: func(rc *runCtx) error { modelKernels(rc); return coreKernels(rc) }},
}

// simAppsSetUp generates and memoizes the five paper apps' traces and
// footprints, and lays out apps x {fullpage, eager, pipelined} at half memory
// and 1 KB subpages: a hit-dominated replay.
func simAppsSetUp(rc *runCtx) ([]simCase, error) {
	var cases []simCase
	buf := make([]trace.Ref, 8192)
	for _, app := range trace.Apps(rc.sz.simScale) {
		rd := app.NewReader()
		for n := rd.Read(buf); n > 0; n = rd.Read(buf) {
			sinkInt += n
		}
		sinkInt += len(trace.TouchedPages(app))
		for _, pol := range []string{"fullpage", "eager", "pipelined"} {
			cases = append(cases, simCase{group: app.Name, policy: pol,
				cfg: sim.Config{App: app, MemFraction: 0.5, SubpageSize: 1024}})
		}
	}
	return cases, nil
}

// Fault-storm trace shape: random page visits of stormVisit references,
// stormStride bytes apart, over stormPages pages with stormMem resident — so
// nearly every visit faults, and a visit crosses several 512 B subpages.
const (
	stormPages  = 4096
	stormMem    = 256
	stormVisit  = 8
	stormStride = 264
)

// stormSetUp draws the synthetic fault-storm trace from the seed.
func stormSetUp(rc *runCtx) ([]simCase, error) {
	r := rng.New(rc.seed*2_000_003 + 17)
	refs := make([]uint32, 0, rc.sz.stormRefs)
	seen := make(map[uint64]struct{})
	for len(refs) < rc.sz.stormRefs {
		page := uint32(r.Intn(stormPages))
		seen[uint64(page)] = struct{}{}
		off := uint32(r.Intn(units.PageSize-stormVisit*stormStride)) &^ 7
		for k := uint32(0); k < stormVisit; k++ {
			refs = append(refs, page*units.PageSize+off+k*stormStride)
		}
	}
	touched := make([]uint64, 0, len(seen))
	for p := range seen {
		touched = append(touched, p)
	}
	sort.Slice(touched, func(i, j int) bool { return touched[i] < touched[j] })
	src := &sim.TraceSource{
		Name:      "faultstorm",
		Pages:     stormPages,
		NewReader: func() trace.Reader { return &stormReader{refs: refs} },
		Touched:   func() []uint64 { return touched },
	}
	var cases []simCase
	for _, c := range []struct {
		policy  string
		subpage int
	}{{"lazy", 512}, {"pipelined", 512}, {"prefetch", 1024}} {
		cases = append(cases, simCase{group: c.policy, policy: c.policy,
			cfg: sim.Config{Source: src, MemPages: stormMem, SubpageSize: c.subpage}})
	}
	return cases, nil
}

// stormReader replays the packed storm trace; every fourth reference stores.
type stormReader struct {
	refs []uint32
	pos  int
}

func (s *stormReader) Read(buf []trace.Ref) int {
	n := 0
	for ; n < len(buf) && s.pos < len(s.refs); n, s.pos = n+1, s.pos+1 {
		buf[n] = trace.Ref{Addr: uint64(s.refs[s.pos]), Store: s.pos&3 == 3}
	}
	return n
}

// simWindow is one measurement window over a matrix: whole passes until the
// window has elapsed, at least two, so every cell runs twice and its digests
// can be compared.
type simWindow struct {
	whole    []float64 // host ns per op, one sample per sim.Run
	ops      int64
	wall     time.Duration
	mem      memDelta
	passes   int
	passRate []float64     // ops per host second, one per pass
	passCPU  []float64     // CPU microseconds per op, one per pass
	passP50  []float64     // host microseconds per op of the pass's median cell
	passP99  []float64     // host microseconds per op of the pass's slowest cell
	first    []*sim.Result // the first pass's results, in matrix order
	byGroup  map[string]*groupTotals
	mismatch int
}

type groupTotals struct {
	events int64
	host   time.Duration
	runs   []float64 // host ms per sim.Run
}

func (sw simWorkload) window(rc *runCtx, cases []simCase, d time.Duration, l *lane) (*simWindow, error) {
	w := &simWindow{byGroup: make(map[string]*groupTotals)}
	var want []digest
	runtime.GC()
	mem0 := markMem()
	start := now()
	for w.passes < 2 || since(start) < d {
		passStart, passCPU, passOps := now(), cpuTime(), w.ops
		for i, c := range cases {
			pol, err := core.ByName(c.policy)
			if err != nil {
				return nil, err
			}
			cfg := c.cfg
			cfg.Policy = pol
			sp := l.begin("sim.Run." + c.group)
			t0 := now()
			r := sim.Run(cfg)
			host := since(t0)
			l.end(sp)
			ops := sw.ops(r)
			if ops <= 0 {
				return nil, fmt.Errorf("%s/%s: simulated no ops", c.group, c.policy)
			}
			w.ops += ops
			w.whole = append(w.whole, float64(host)/float64(ops))
			g := w.byGroup[c.group]
			if g == nil {
				g = &groupTotals{}
				w.byGroup[c.group] = g
			}
			g.events += r.Events
			g.host += host
			g.runs = append(g.runs, ms(host))
			if w.passes == 0 {
				w.first = append(w.first, r)
				want = append(want, digestOf(r))
			} else if digestOf(r) != want[i] {
				w.mismatch++
				rc.notef("%s/%s: run %d disagrees with run 1: %+v vs %+v", c.group, c.policy, w.passes+1, digestOf(r), want[i])
			}
		}
		w.passes++
		n := float64(w.ops - passOps)
		w.passRate = append(w.passRate, n/since(passStart).Seconds())
		w.passCPU = append(w.passCPU, us(cpuTime()-passCPU)/n)
		cells := sortedNs(append([]float64(nil), w.whole[len(w.whole)-len(cases):]...))
		w.passP50 = append(w.passP50, pct(cells, 50)/1e3)
		w.passP99 = append(w.passP99, pct(cells, 99)/1e3)
	}
	w.wall = since(start)
	w.mem = mem0.since()
	rc.attempted += w.ops
	if w.mismatch > 0 {
		rc.correct = false
	}
	return w, nil
}

func (w *simWindow) opsPerS() float64 { return float64(w.ops) / w.wall.Seconds() }

func (sw simWorkload) run(rc *runCtx) error {
	var cases []simCase
	setups, err := timeSetUps(sw.setUpOnce || rc.traced, func() (err error) {
		cases, err = sw.setUp(rc)
		return err
	}, func() {})
	if err != nil {
		return err
	}
	if !rc.traced {
		w, err := sw.window(rc, cases, rc.window, nil)
		if err != nil {
			return err
		}
		// A pass is to a simulator window what a slice is to a prototype
		// window: every timing is the median over passes. Within a pass the
		// samples are its cells' host time per op, so p50 is the median cell
		// and p99 (of a dozen cells) the slowest one.
		// A simulated op has no parts: its first-bytes latency is its latency.
		rc.endToEnd(e2eSamples{rate: w.passRate, p50: w.passP50, p99: w.passP99, first: w.passP50,
			cpu: w.passCPU, setups: setups}, w.ops, int64(len(w.whole)))
		return nil
	}

	base, err := sw.window(rc, cases, rc.window/3, nil)
	if err != nil {
		return err
	}
	rc.rec = newRecorder(1)
	w, err := sw.window(rc, cases, rc.window/3, rc.rec.lane(0))
	if err != nil {
		return err
	}
	rc.res.set("trace_overhead_pct", 100*(base.opsPerS()/w.opsPerS()-1), w.ops)
	for group, g := range w.byGroup {
		switch group {
		case "lazy", "pipelined", "prefetch":
			rc.res.set("sim.run_ms."+group, median(g.runs), int64(len(g.runs)))
		default:
			rc.res.set("sim.replay_mrefs_per_s."+group, float64(g.events)/1e6/g.host.Seconds(), g.events)
		}
	}
	// Exact counts of one pass over the matrix: two commits compare exactly.
	var events, faults, subFaults, moved int64
	var simMs float64
	for _, r := range w.first {
		events += r.Events
		faults += r.Faults
		subFaults += r.SubpageFaults
		moved += r.BytesMoved
		simMs += r.RuntimeMs()
	}
	cells := int64(len(w.first))
	rc.res.set("sim.events", float64(events), cells)
	rc.res.set("sim.faults", float64(faults), cells)
	rc.res.set("sim.subpage_faults", float64(subFaults), cells)
	rc.res.set("sim.bytes_moved", float64(moved), cells)
	rc.res.set("sim.simulated_ms", simMs, cells)
	rc.res.set("sim.faults_per_kref", 1e3*float64(faults+subFaults)/float64(events), events)
	rc.procLayer(w.mem, w.ops)
	return sw.kernels(rc)
}
