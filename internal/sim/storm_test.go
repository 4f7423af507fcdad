package sim

import (
	"reflect"
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

// TestSimFaultAllocs: once the run is warm, a simulated fault allocates
// nothing. Two runs over a short and a long stream of the same seed share
// their set-up and warm-up, so the difference in allocations is what the
// extra faults cost. The runtime's own background allocations (a handful per
// run) are forgiven, and the best of five runs of each length forgives one
// that found the runner pool empty: a collection can empty it, and under the
// race detector sync.Pool drops a quarter of what is put back.
func TestSimFaultAllocs(t *testing.T) {
	short, long := stormSource(1, 1<<17), stormSource(1, 1<<19)
	for _, c := range []struct {
		policy  string
		subpage int
	}{{"fullpage", 512}, {"eager", 512}, {"lazy", 512}, {"pipelined", 512}, {"prefetch", 1024}} {
		best := func(src *TraceSource) (m uint64, r *Result) {
			m = ^uint64(0)
			for k := 0; k < 5; k++ {
				m = min(m, mallocs(func() { r = Run(stormConfig(t, src, c.policy, c.subpage)) }))
			}
			return m, r
		}
		ms, rs := best(short)
		ml, rl := best(long)
		faults := (rl.Faults + rl.SubpageFaults) - (rs.Faults + rs.SubpageFaults)
		if faults < 40_000 {
			t.Fatalf("%s: only %d more faults in the long run", c.policy, faults)
		}
		if extra := int64(ml) - int64(ms); extra > 16 {
			t.Errorf("%s: %.3f allocations per fault after warm-up, want 0: %d over %d faults",
				c.policy, float64(extra)/float64(faults), extra, faults)
		}
	}
}

// TestStormResultsPinned holds the three storm cells, whose faults mostly
// find no trend for the prefetcher's vote, to every Result field they had
// before the prefetcher's history moved into a slab and its fallback into
// the engine's plan table.
func TestStormResultsPinned(t *testing.T) {
	want := map[string]Result{
		"lazy": {AppName: "faultstorm", Policy: "lazy", Subpage: 512, MemPages: 256, Events: 131072,
			SpLatency: 2965598625, Runtime: 2965729697, Faults: 15409, SubpageFaults: 58500,
			RemoteFaults: 15409, Evictions: 15153, BytesMoved: 37841408},
		"pipelined": {AppName: "faultstorm", Policy: "pipelined", Subpage: 512, MemPages: 256, Events: 131072,
			SpLatency: 618286125, PageWait: 914770238, Runtime: 1533187435, Faults: 15409,
			RemoteFaults: 15409, Evictions: 15153, CompOverlap: 52811, BytesMoved: 126230528},
		"prefetch": {AppName: "faultstorm", Policy: "prefetch", Subpage: 1024, MemPages: 256, Events: 131072,
			SpLatency: 734227112, PageWait: 531289533, Runtime: 1265647717, Faults: 15409,
			RemoteFaults: 15409, Evictions: 15153, Canceled: 2830, IOOverlap: 133506559, CompOverlap: 99420,
			IOOverlapShare: 0.999255871625326, BytesMoved: 126230528, PrefetchIssued: 431452, PrefetchUsed: 117480},
	}
	src := stormSource(1, 1<<17)
	for _, c := range stormCases {
		got := *Run(stormConfig(t, src, c.policy, c.subpage))
		if w := want[c.policy]; !reflect.DeepEqual(got, w) {
			t.Errorf("%s:\n got %+v\nwant %+v", c.policy, got, w)
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
