package sim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/obs"
	"github.com/gms-sim/gmsubpage/internal/trace"
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

var replayPolicies = []string{"fullpage", "eager", "pipelined", "lazy", "prefetch"}

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
}

// TestRunReplayMatchesPerRef: walking page runs must be indistinguishable
// from stepping every reference — the whole Result and both trace exports —
// for every app, policy and mode that changes what step does on a hit.
func TestRunReplayMatchesPerRef(t *testing.T) {
	apps := trace.Apps(0.02)
	if testing.Short() {
		apps = []*trace.App{trace.Modula3(0.02), trace.Gdb(0.02)}
	}
	for _, app := range apps {
		if _, ok := app.NewReader().(runReader); !ok {
			t.Fatalf("%s: memoized reader has no NextRun; the test would compare the per-reference loop with itself", app.Name)
		}
		for _, pol := range replayPolicies {
			for _, v := range replayVariants {
				run := func(per bool) (*Result, []byte) {
					p, err := core.ByName(pol)
					if err != nil {
						t.Fatal(err)
					}
					tr := &obs.SimTrace{}
					cfg := Config{App: app, MemFraction: 0.5, Policy: p, SubpageSize: 1024, Trace: tr}
					v.set(&cfg)
					if per {
						cfg = perRef(cfg)
					}
					res := Run(cfg)
					var out bytes.Buffer
					if err := obs.WriteJSONL(&out, tr); err != nil {
						t.Fatal(err)
					}
					if err := obs.WriteChromeTrace(&out, tr); err != nil {
						t.Fatal(err)
					}
					return res, out.Bytes()
				}
				name := fmt.Sprintf("%s/%s/%s", app.Name, pol, v.name)
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
