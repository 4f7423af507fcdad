package sim

import (
	"reflect"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/gms"
	"github.com/gms-sim/gmsubpage/internal/trace"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// reuseConfigs is a mixed sequence of differently shaped runs: memory size,
// donor nodes and their capacity, subpage size, backing, cold start,
// per-fault tracking, the policy (a stateful one among them) and a source
// without a page-run index.
func reuseConfigs(t *testing.T) []Config {
	small, big := trace.Gdb(0.02), trace.Modula3(0.02)
	pol := func(name string) core.Policy {
		p, err := core.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return []Config{
		{App: big, MemFraction: 0.5, Policy: pol("pipelined"), SubpageSize: 1024},
		{App: small, MemPages: 7, Policy: pol("lazy"), SubpageSize: 256, TrackPerFault: true},
		{App: big, MemFraction: 0.25, Policy: pol("eager"), SubpageSize: 2048,
			Cluster: gms.Config{Nodes: 3, GlobalPagesPerNode: 40}},
		{App: small, MemFraction: 0.5, Policy: pol("pipelined"), SubpageSize: 1024, Backing: Disk},
		{App: big, MemPages: 300, Policy: pol("prefetch"), SubpageSize: 1024, TrackPerFault: true},
		{App: small, MemFraction: 0.5, Policy: pol("widefault"), SubpageSize: 512, ColdStart: true,
			Cluster: gms.Config{Nodes: 1}},
		{Source: stormSource(2, 1<<14), MemPages: 64, Policy: pol("pipelined"), SubpageSize: 512},
		{App: big, MemFraction: 1, Policy: pol("fullpage"), SubpageSize: units.PageSize, PALEmulation: true},
		{App: small, MemFraction: 0.5, Policy: pol("pipelined"), SubpageSize: 1024},
	}
}

// TestRunReuseMatchesFresh: a run on a reused runner — page table, engine
// and cluster left over from differently shaped runs — returns exactly the
// Result of the same run on a new one, in either order of the sequence.
func TestRunReuseMatchesFresh(t *testing.T) {
	// Each pass builds its configs anew: a stateful policy must not carry
	// one pass's history into the next.
	var want []*Result
	for _, cfg := range reuseConfigs(t) {
		want = append(want, new(runner).runOnce(cfg))
	}
	for _, order := range []string{"forward", "backward"} {
		r := new(runner)
		cfgs := reuseConfigs(t)
		for k := range cfgs {
			i := k
			if order == "backward" {
				i = len(cfgs) - 1 - k
			}
			if got := r.runOnce(cfgs[i]); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s, run %d (%s/%s): reused runner diverged\n got: %+v\nwant: %+v",
					order, i, got.AppName, got.Policy, got, want[i])
			}
		}
	}
}

// TestSimRunAllocs: a warmed sim.Run of a memoised app at half memory takes
// its page table, engine and cluster from the last run, so it allocates a
// handful of objects — the Result and the trace reader among them — however
// many pages and faults it has. That is what keeps peak memory at the live
// heap: sim-apps' hundreds of runs fit between two collections (its heap
// goal is twice the live trace memo), so the garbage a run leaves is not
// reclaimed inside the measured window and adds to the process's peak RSS.
// The best of three forgives a collection that empties the runner pool.
func TestSimRunAllocs(t *testing.T) {
	for _, pol := range []string{"fullpage", "eager", "pipelined"} {
		p, err := core.ByName(pol)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{App: trace.Ld(0.05), MemFraction: 0.5, Policy: p, SubpageSize: 1024}
		res := Run(cfg)
		best := ^uint64(0)
		for k := 0; k < 3; k++ {
			best = min(best, mallocs(func() { Run(cfg) }))
		}
		t.Logf("%s: %d allocations per warmed Run, %d faults", pol, best, res.Faults)
		if best > 64 {
			t.Errorf("%s: a warmed Run allocates %d objects (%d faults), want at most 64", pol, best, res.Faults)
		}
	}
}
