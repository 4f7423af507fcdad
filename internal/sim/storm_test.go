package sim

import (
	"runtime"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/rng"
	"github.com/gms-sim/gmsubpage/internal/trace"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// Fault-storm shape: random page visits of stormVisit references, stormStride
// bytes apart, over stormPages pages with stormMem resident. Nearly every
// visit faults, and a visit crosses several 512 B subpages: the fault-dense
// opposite of the paper apps' hit-dominated replay.
const (
	stormPages  = 4096
	stormMem    = 256
	stormVisit  = 8
	stormStride = 264
)

// stormSource draws refs references of the storm shape from seed; every
// fourth reference stores. A longer stream from the same seed extends a
// shorter one.
func stormSource(seed uint64, refs int) *TraceSource {
	r := rng.New(seed)
	out := make([]trace.Ref, 0, refs)
	var seen [stormPages]bool
	for len(out) < refs {
		page := uint64(r.Intn(stormPages))
		seen[page] = true
		off := uint64(r.Intn(units.PageSize-stormVisit*stormStride)) &^ 7
		for k := uint64(0); k < stormVisit; k++ {
			out = append(out, trace.Ref{Addr: page*units.PageSize + off + k*stormStride, Store: len(out)&3 == 3})
		}
	}
	var touched []uint64
	for p, ok := range seen {
		if ok {
			touched = append(touched, uint64(p))
		}
	}
	return &TraceSource{
		Name:      "faultstorm",
		Pages:     stormPages,
		NewReader: func() trace.Reader { return &trace.SliceReader{Refs: out} },
		Touched:   func() []uint64 { return touched },
	}
}

// stormCases are the storm's policy x subpage cells.
var stormCases = []struct {
	policy  string
	subpage int
}{{"lazy", 512}, {"pipelined", 512}, {"prefetch", 1024}}

func stormConfig(t testing.TB, src *TraceSource, policy string, subpage int) Config {
	p, err := core.ByName(policy)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Source: src, MemPages: stormMem, Policy: p, SubpageSize: subpage}
}

// mallocs returns the heap objects f allocates.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSimFaultAllocs: once the run is warm, a simulated fault allocates at
// most its policy's plan. Two runs over a short and a long stream of the same
// seed share their set-up and warm-up, so the difference in allocations over
// the difference in faults is the steady-state cost of one fault. The
// runtime's own background allocations (a handful per run) are forgiven.
func TestSimFaultAllocs(t *testing.T) {
	short, long := stormSource(1, 1<<17), stormSource(1, 1<<19)
	for _, pol := range []string{"fullpage", "eager", "lazy", "pipelined"} {
		var rs, rl *Result
		ms := mallocs(func() { rs = Run(stormConfig(t, short, pol, 512)) })
		ml := mallocs(func() { rl = Run(stormConfig(t, long, pol, 512)) })
		faults := (rl.Faults + rl.SubpageFaults) - (rs.Faults + rs.SubpageFaults)
		if faults < 40_000 {
			t.Fatalf("%s: only %d more faults in the long run", pol, faults)
		}
		if extra := int64(ml) - int64(ms) - faults; extra > 16 {
			t.Errorf("%s: %.3f allocations per fault after warm-up, want 1 (the plan): %d over %d faults",
				pol, float64(faults+extra)/float64(faults), extra, faults)
		}
	}
}

// BenchmarkSimFaultStorm times sim.Run on the fault storm per policy cell.
// Read ns/fault and allocs/fault; the default per-op figures are per sim.Run.
func BenchmarkSimFaultStorm(b *testing.B) {
	src := stormSource(1, 1<<17)
	for _, c := range stormCases {
		b.Run(c.policy, func(b *testing.B) {
			b.ReportAllocs()
			var faults int64
			var allocs uint64
			for i := 0; i < b.N; i++ {
				cfg := stormConfig(b, src, c.policy, c.subpage) // a fresh stateful policy per run
				allocs += mallocs(func() {
					r := Run(cfg)
					faults += r.Faults + r.SubpageFaults
				})
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(faults), "ns/fault")
			b.ReportMetric(float64(allocs)/float64(faults), "allocs/fault")
		})
	}
}
