package sim

import (
	"reflect"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/trace"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// turnRefsFromBytes decodes a fuzz input into references, two bytes each:
// the first picks one of eight pages (its low three bits), a store (bit 3)
// and the offset's low bits, the second the offset's high bits.
func turnRefsFromBytes(data []byte) []trace.Ref {
	var refs []trace.Ref
	for ; len(data) >= 2; data = data[2:] {
		page, off := uint64(data[0]&7), uint64(data[1])<<5|uint64(data[0]>>4)
		refs = append(refs, trace.Ref{Addr: page*units.PageSize + off, Store: data[0]&8 != 0})
	}
	return refs
}

// maxTurnRefs and maxTurnBudgets cut FuzzTurnSplit's inputs. Go's minimizer
// tries every pair of cut points in an input that found new coverage, and
// each try here is two simulations: a short input keeps that bounded. Eight
// pages in two frames fault every few references, so a short stream already
// splits runs with transfers in flight.
const (
	maxTurnRefs    = 96
	maxTurnBudgets = 8
)

// FuzzTurnSplit: a stream replayed in RunCluster's turns — cut into page runs
// from what it reads (runsOf), each turn's budget drawn from the input, a run
// split wherever a budget ends and its tail replayed by the next turn with
// the whole run's blocks — gives the Result that the per-reference loop gives
// the unsplit stream, under every policy and subpage size and with per-fault
// tracking, usage tracking or PAL emulation.
func FuzzTurnSplit(f *testing.F) {
	f.Add([]byte{0, 1, 0, 9, 0, 200, 1, 3, 1, 3, 0, 40, 2, 255, 2, 0}, []byte{2, 0, 5}, uint8(0))
	f.Add([]byte{8, 0, 24, 16, 8, 32, 9, 0, 8, 48, 8, 64, 10, 7}, []byte{0}, uint8(37))
	f.Add([]byte{3, 3, 3, 99, 4, 4, 3, 100, 5, 5, 3, 101, 6, 6}, []byte{1, 1}, uint8(95))
	f.Fuzz(func(t *testing.T, data, budgets []byte, knobs uint8) {
		data, budgets = data[:min(len(data), 2*maxTurnRefs)], budgets[:min(len(budgets), maxTurnBudgets)]
		refs := turnRefsFromBytes(data)
		if len(refs) == 0 {
			return
		}
		policy := replayPolicies[int(knobs)%len(replayPolicies)]
		subpage := 256 << (int(knobs) / len(replayPolicies) % 5)
		mode := int(knobs) / (5 * len(replayPolicies)) % 4
		cfg := func() Config {
			p, err := core.ByName(policy)
			if err != nil {
				t.Fatal(err)
			}
			return Config{
				Source: &TraceSource{Name: "turns", Pages: 8,
					NewReader: func() trace.Reader { return &trace.SliceReader{Refs: refs} }},
				MemPages: 2, Policy: p, SubpageSize: subpage,
				TrackPerFault: mode == 1, TrackPrefetch: mode == 2, PALEmulation: mode == 3,
			}
		}
		want := Run(cfg())

		n := &clusterNode{r: newRunner(cfg()), rd: runsOf(&trace.SliceReader{Refs: refs})}
		budget := func(i int) int {
			if len(budgets) == 0 {
				return 4096
			}
			return 1 + int(budgets[i%len(budgets)])
		}
		for i := 0; n.turn(budget(i)); i++ {
		}
		n.r.finishRun()
		if got := n.r.res; !reflect.DeepEqual(*got, *want) {
			t.Fatalf("%s/%d mode %d, budgets %v:\n turns %+v\n whole %+v", policy, subpage, mode, budgets, *got, *want)
		}
	})
}

// TestRunClusterUnmemoizedMatches: a node whose app the trace cache does not
// hold replays its generator's stream, cut into page runs as it is read, to
// the Result a memoized copy of the same app gives.
func TestRunClusterUnmemoizedMatches(t *testing.T) {
	memo := trace.Gdb(0.02)
	plain := *memo
	plain.Name = "gdb-unmemoized" // a cache entry of its own, refused below
	prev := trace.SetCacheBudget(0)
	if _, ok := plain.NewReader().(runReader); ok {
		t.Fatal("the app was memoized; the test would not reach the reader without a page-run index")
	}
	trace.SetCacheBudget(prev)
	if _, ok := memo.NewReader().(runReader); !ok {
		t.Fatal("the reference app is not memoized")
	}
	cfg := func(app *trace.App) ClusterConfig {
		return ClusterConfig{Apps: []*trace.App{app, app}, MemFraction: 0.25, Policy: core.Eager{},
			SubpageSize: 1024, IdleNodes: 2, GlobalPagesPerIdle: app.TotalPages / 2, UseEpoch: true, BatchRefs: 1000}
	}
	got, want := RunCluster(cfg(&plain)), RunCluster(cfg(memo))
	for i, n := range got.Nodes {
		n.AppName = want.Nodes[i].AppName
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unmemoized:\n got %+v\nwant %+v", *got, *want)
	}
	if want.Discards == 0 || want.GlobalHits == 0 {
		t.Fatalf("the run made no discards or hits: %+v", *want)
	}
}

// BenchmarkRunCluster is the Cluster experiment in-package at scale 0.1: 1, 2
// and 4 active modula3 nodes x {fullpage 8K, eager 1K}, half memory each,
// two donors each giving a workload's footprint, epoch placement. One op is
// the whole matrix; read Mrefs/s over every node's references, and
// allocs/run per RunCluster.
func BenchmarkRunCluster(b *testing.B) {
	app := trace.Modula3(0.1)
	trace.TouchedPages(app) // synthesize and memoize outside the timing
	type cell struct {
		active int
		policy core.Policy
		sub    int
	}
	var cells []cell
	for _, active := range []int{1, 2, 4} {
		cells = append(cells, cell{active, core.FullPage{}, 8192}, cell{active, core.Eager{}, 1024})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var refs int64
	var allocs uint64
	for i := 0; i < b.N; i++ {
		for _, c := range cells {
			apps := make([]*trace.App, c.active)
			for j := range apps {
				apps[j] = app
			}
			cfg := ClusterConfig{Apps: apps, MemFraction: 0.5, Policy: c.policy, SubpageSize: c.sub,
				IdleNodes: 2, GlobalPagesPerIdle: app.TotalPages, UseEpoch: true}
			allocs += mallocs(func() {
				for _, r := range RunCluster(cfg).Nodes {
					refs += r.Events
				}
			})
		}
	}
	b.ReportMetric(float64(refs)/1e6/b.Elapsed().Seconds(), "Mrefs/s")
	b.ReportMetric(float64(allocs)/float64(b.N*len(cells)), "allocs/run")
}
