package experiments

import (
	"strings"
	"testing"
)

// TestPrefetchGate pins the prefetch experiment's acceptance shape at small
// scale: the stride detector must beat static pipelining on the strided
// synthetic (stall time and bytes moved) while never degrading the paper's
// +1-dominated application traces beyond noise. If a detector change trips
// this, it is either prefetching junk on the apps or has lost the stride.
func TestPrefetchGate(t *testing.T) {
	apps, grid := prefetchCells(Config{Scale: 0.05})
	var sawStrided bool
	for ai, app := range apps {
		pipe, pref := grid[ai][0], grid[ai][2]
		if app.Name == "strided" {
			sawStrided = true
			if stallMs(pref) >= stallMs(pipe) {
				t.Errorf("strided: prefetch stall %.1fms not better than pipelined %.1fms",
					stallMs(pref), stallMs(pipe))
			}
			if pref.BytesMoved >= pipe.BytesMoved {
				t.Errorf("strided: prefetch moved %d bytes, pipelined %d — no bandwidth win",
					pref.BytesMoved, pipe.BytesMoved)
			}
			if acc := accuracy(pref); acc <= accuracy(pipe) {
				t.Errorf("strided: prefetch accuracy %.3f not better than pipelined %.3f",
					acc, accuracy(pipe))
			}
			continue
		}
		// Application traces: the detector must fall back to (or match)
		// pipelined behaviour; allow 1% runtime noise from the occasional
		// confident-but-harmless plan.
		delta := float64(pref.Runtime-pipe.Runtime) / float64(pipe.Runtime)
		if delta > 0.01 {
			t.Errorf("%s: prefetch runtime %.1fms is %+.2f%% vs pipelined %.1fms — degrades the paper baseline",
				app.Name, pref.RuntimeMs(), 100*delta, pipe.RuntimeMs())
		}
	}
	if !sawStrided {
		t.Fatal("strided workload missing from prefetch grid")
	}
}

// TestPrefetchResultRenders guards the rendered artifact: both tables and the
// gate note must appear so `subpagesim -run prefetch` stays reviewable.
func TestPrefetchResultRenders(t *testing.T) {
	out := Prefetch(Config{Scale: 0.05}).String()
	for _, want := range []string{
		"Runtime and stall: learned prefetch",
		"Prefetch diagnostics",
		"strided",
		"note: gate: worst runtime delta vs pipelined",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered prefetch result missing %q:\n%s", want, out)
		}
	}
}
