package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/obs"
	"github.com/gms-sim/gmsubpage/internal/trace"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// readOnly hides everything but Read, so run takes the per-reference loop.
type readOnly struct{ r trace.Reader }

func (o readOnly) Read(buf []trace.Ref) int { return o.r.Read(buf) }

// perRef is cfg.App's own memoized stream behind a reader without NextRun.
func perRef(cfg Config) Config {
	app := cfg.App
	cfg.Source = &TraceSource{
		Name:      app.Name,
		Pages:     app.TotalPages,
		NewReader: func() trace.Reader { return readOnly{app.NewReader()} },
		Touched:   func() []uint64 { return trace.TouchedPages(app) },
	}
	return cfg
}

var replayPolicies = []string{"fullpage", "eager", "pipelined", "lazy", "widefault", "prefetch"}

var replayVariants = []struct {
	name string
	set  func(*Config)
}{
	{"default", func(*Config) {}},
	// A TLB over pages smaller than the VM page misses inside a page run.
	{"tlb", func(c *Config) { c.TLBEntries, c.TLBPageSize = 32, 1024 }},
	{"pal", func(c *Config) { c.PALEmulation = true }},
	{"trackprefetch", func(c *Config) { c.TrackPrefetch = true }},
	{"trackperfault", func(c *Config) { c.TrackPerFault = true }},
	{"coldstart", func(c *Config) { c.ColdStart = true }},
	{"disk", func(c *Config) { c.Backing = Disk }},
	// The smallest subpage: a run's blocks spread over the most subpages.
	{"sub256", func(c *Config) { c.SubpageSize, c.TrackPerFault = 256, true }},
	{"sub4096", func(c *Config) { c.SubpageSize = 4096 }},
}

// TestRunReplayMatchesPerRef: walking page runs must be indistinguishable
// from stepping every reference — the whole Result and, traced, both trace
// exports — for every app, policy and mode that changes what step does on a
// hit, traced and untraced (a traced run must not be what keeps the two
// equal). -short takes two apps and adds the untraced run only to the
// widefault, sub256 and sub4096 cells.
func TestRunReplayMatchesPerRef(t *testing.T) {
	apps := trace.Apps(0.02)
	tracing := func(pol, variant string) []bool { return []bool{true, false} }
	if testing.Short() {
		apps = []*trace.App{trace.Modula3(0.02), trace.Gdb(0.02)}
		tracing = func(pol, variant string) []bool {
			if pol == "widefault" || variant == "sub256" || variant == "sub4096" {
				return []bool{true, false}
			}
			return []bool{true}
		}
	}
	for _, app := range apps {
		if _, ok := app.NewReader().(runReader); !ok {
			t.Fatalf("%s: memoized reader has no NextRun; the test would compare the per-reference loop with itself", app.Name)
		}
		for _, pol := range replayPolicies {
			for _, v := range replayVariants {
				for _, traced := range tracing(pol, v.name) {
					run := func(per bool) (*Result, []byte) {
						p, err := core.ByName(pol)
						if err != nil {
							t.Fatal(err)
						}
						cfg := Config{App: app, MemFraction: 0.5, Policy: p, SubpageSize: 1024}
						var tr *obs.SimTrace
						if traced {
							tr = &obs.SimTrace{}
							cfg.Trace = tr
						}
						v.set(&cfg)
						if per {
							cfg = perRef(cfg)
						}
						res := Run(cfg)
						if !traced {
							return res, nil
						}
						var out bytes.Buffer
						if err := obs.WriteJSONL(&out, tr); err != nil {
							t.Fatal(err)
						}
						if err := obs.WriteChromeTrace(&out, tr); err != nil {
							t.Fatal(err)
						}
						return res, out.Bytes()
					}
					name := fmt.Sprintf("%s/%s/%s/traced=%v", app.Name, pol, v.name, traced)
					want, wantTrace := run(true)
					got, gotTrace := run(false)
					if want.Events != app.TotalRefs() {
						t.Fatalf("%s: per-reference path executed %d of %d references", name, want.Events, app.TotalRefs())
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: run replay diverged\n run: %+v\n ref: %+v", name, got, want)
					}
					if !bytes.Equal(gotTrace, wantTrace) {
						t.Errorf("%s: trace exports differ (%d vs %d bytes)", name, len(gotTrace), len(wantTrace))
					}
				}
			}
		}
	}
}

// TestReplayArrivalBoundary: a run that comes back to a page whose transfer
// is in flight is charged from the index only for what has landed by each
// reference's tick, and the transfer finishes at the tick step would have
// finished it. The return is swept across the tick the page's remainder
// lands, for a run whose first reference needs the remainder and for one
// that first reads the faulted subpage for three ticks.
func TestReplayArrivalBoundary(t *testing.T) {
	const p, q = 1, 2 // q faults and completes first, then p faults
	at := func(page, off uint64) trace.Ref { return trace.Ref{Addr: page*units.PageSize + off} }
	tails := map[string][]trace.Ref{
		"remainder-first": {at(p, 4096), at(p, 4104)},
		"subpage-first":   {at(p, 8), at(p, 16), at(p, 24), at(p, 4096)},
	}
	run := func(tail string, gap int, per bool) (*Result, []byte) {
		refs := []trace.Ref{at(q, 0), at(q, 4096), at(p, 0)}
		for i := 0; i < gap; i++ {
			refs = append(refs, at(q, 8))
		}
		tr := &obs.SimTrace{}
		cfg := Config{App: appFromRefs(tail, append(refs, tails[tail]...), 3), MemPages: 4,
			Policy: core.Eager{}, SubpageSize: 1024, Trace: tr}
		if per {
			cfg = perRef(cfg)
		}
		res := Run(cfg)
		var out bytes.Buffer
		if err := obs.WriteJSONL(&out, tr); err != nil {
			t.Fatal(err)
		}
		return res, out.Bytes()
	}
	// With no gap p's remainder lands wait ticks after p's return.
	none, _ := run("remainder-first", 0, true)
	long, _ := run("remainder-first", 1<<17, true)
	wait := int(none.PageWait - long.PageWait)
	if wait < 8 {
		t.Fatalf("p's remainder lands %d ticks after the return: the sweep needs a gap to move", wait)
	}
	for tail := range tails {
		for gap := wait - 5; gap <= wait+1; gap++ {
			want, wantTrace := run(tail, gap, true)
			got, gotTrace := run(tail, gap, false)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s, return %d ticks before the remainder: run replay diverged\n run: %+v\n ref: %+v",
					tail, wait-gap, got, want)
			}
			if !bytes.Equal(gotTrace, wantTrace) {
				t.Errorf("%s, return %d ticks before the remainder: trace exports differ", tail, wait-gap)
			}
		}
	}
}

// BenchmarkSimReplay: the reference loop's speed per app at half memory,
// over page runs (what App-backed runs take) and per reference (what every
// other reader takes). Read refs/s; allocs/op is per sim.Run.
func BenchmarkSimReplay(b *testing.B) {
	for _, app := range trace.Apps(0.02) {
		cfg := Config{App: app, MemFraction: 0.5, Policy: core.Pipelined{}, SubpageSize: 1024}
		for _, path := range []struct {
			name string
			cfg  Config
		}{{"runs", cfg}, {"perref", perRef(cfg)}} {
			b.Run(app.Name+"/"+path.name, func(b *testing.B) {
				Run(path.cfg) // synthesize and memoize outside the timing
				b.ReportAllocs()
				b.ResetTimer()
				var refs int64
				for i := 0; i < b.N; i++ {
					refs += Run(path.cfg).Events
				}
				b.ReportMetric(float64(refs)/b.Elapsed().Seconds(), "refs/s")
			})
		}
	}
}

// BenchmarkSimApps is the sim-apps matrix of the gate's benchmark in-package:
// the five paper apps at scale 0.1 x {fullpage, eager, pipelined}, half
// memory, 1 KB subpages — hit-dominated replay over page runs. One op is the
// whole matrix; read Mrefs/s, and allocs/run per sim.Run.
func BenchmarkSimApps(b *testing.B) {
	type cell struct {
		app    *trace.App
		policy string
	}
	var cells []cell
	for _, app := range trace.Apps(0.1) {
		trace.TouchedPages(app) // synthesize and memoize outside the timing
		for _, pol := range []string{"fullpage", "eager", "pipelined"} {
			cells = append(cells, cell{app, pol})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var refs int64
	var allocs uint64
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			p, err := core.ByName(c.policy)
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{App: c.app, MemFraction: 0.5, Policy: p, SubpageSize: 1024}
			allocs += mallocs(func() { refs += Run(cfg).Events })
		}
	}
	b.ReportMetric(float64(refs)/1e6/b.Elapsed().Seconds(), "Mrefs/s")
	b.ReportMetric(float64(allocs)/float64(b.N*len(cells)), "allocs/run")
}
