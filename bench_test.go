// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the index). Each benchmark runs the
// corresponding experiment end to end on reduced-scale traces; per-run
// metrics that correspond to paper numbers are reported alongside ns/op.
//
//	go test -bench=. -benchmem
//
// For paper-scale numbers run the harness directly:
//
//	go run ./cmd/subpagesim -run all -scale 1.0
package gmsubpage_test

import (
	"testing"

	gmsubpage "github.com/gms-sim/gmsubpage"
)

// benchScale keeps each experiment iteration fast while preserving every
// shape the paper reports.
const benchScale = 0.05

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := gmsubpage.RunExperiment(id, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

// Figure 1: latency vs. page size for disks and networks.
func BenchmarkFig1LatencyVsPageSize(b *testing.B) { benchExperiment(b, "fig1") }

// Table 1: PALcode load/store emulation performance.
func BenchmarkTable1PALEmulation(b *testing.B) { benchExperiment(b, "table1") }

// Table 2: page-fault latencies for eager fullpage fetch.
func BenchmarkTable2FaultLatency(b *testing.B) { benchExperiment(b, "table2") }

// Figure 2: remote page fetch timelines.
func BenchmarkFig2Timeline(b *testing.B) { benchExperiment(b, "fig2") }

// Figure 3: subpage performance for three memory sizes (Modula-3).
func BenchmarkFig3EagerMemSizes(b *testing.B) { benchExperiment(b, "fig3") }

// Figure 4: runtime decomposition at 1/2 memory.
func BenchmarkFig4RuntimeBreakdown(b *testing.B) { benchExperiment(b, "fig4") }

// Figure 5: sorted per-fault waiting times.
func BenchmarkFig5PerFaultWait(b *testing.B) { benchExperiment(b, "fig5") }

// Figure 6: temporal clustering of page faults (Modula-3).
func BenchmarkFig6FaultClustering(b *testing.B) { benchExperiment(b, "fig6") }

// Figure 7: distance to the next accessed subpage.
func BenchmarkFig7SubpageDistance(b *testing.B) { benchExperiment(b, "fig7") }

// Figure 8: eager fullpage fetch vs. subpage pipelining.
func BenchmarkFig8Pipelining(b *testing.B) { benchExperiment(b, "fig8") }

// Figure 9: speedups for all five applications at 1/2-mem, 1K subpages.
func BenchmarkFig9AllApps(b *testing.B) { benchExperiment(b, "fig9") }

// Figure 10: fault clustering, gdb vs. Atom.
func BenchmarkFig10GdbVsAtom(b *testing.B) { benchExperiment(b, "fig10") }

// Ablation (§2.1): small pages / lazy subpage fetch lose.
func BenchmarkAblationSmallPages(b *testing.B) { benchExperiment(b, "smallpage") }

// Ablation (§4.3): pipelining variants.
func BenchmarkAblationPipelineVariants(b *testing.B) { benchExperiment(b, "pipevariants") }

// Methodology (§3.2): cache-hierarchy replay deriving the event clock.
func BenchmarkEventTimeDerivation(b *testing.B) { benchExperiment(b, "eventtime") }

// BenchmarkFig9Parallel8 runs the widest sweep (5 apps × 3 policies) on
// an 8-wide worker pool; against BenchmarkFig9AllApps it measures what
// the parallel engine buys (or costs, on one core) per experiment. The
// output is byte-identical to the sequential run at any width.
func BenchmarkFig9Parallel8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := gmsubpage.RunExperimentParallel("fig9", benchScale, 8)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty experiment output")
		}
	}
}

// BenchmarkSimulatorThroughput measures raw trace-replay speed: references
// simulated per second, the figure that bounds paper-scale runs.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := gmsubpage.Config{
		Workload:       "modula3",
		Scale:          0.1,
		MemoryFraction: 0.5,
		Policy:         gmsubpage.Eager,
		SubpageSize:    1024,
	}
	// One warm-up run to size the per-iteration work.
	rep, err := gmsubpage.Simulate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	refsPerRun := rep.ExecMs * 1e6 / 12 // events = exec ns / 12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gmsubpage.Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(refsPerRun*float64(b.N)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkPrototypeFault measures a live remote-memory fault over
// loopback TCP: one 1K-subpage eager fault per operation (§3.1's headline
// measurement; the paper's AN2 prototype took 0.52 ms).
func BenchmarkPrototypeFault(b *testing.B) {
	dir, err := gmsubpage.StartDirectory("127.0.0.1:0", gmsubpage.DirectoryOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer dir.Close()
	srv, err := gmsubpage.StartServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.StoreRange(0, b.N+1)
	if err := srv.Register(dir.Addr()); err != nil {
		b.Fatal(err)
	}
	c, err := gmsubpage.DialClient(dir.Addr(), gmsubpage.ClientOptions{
		CachePages:  b.N + 2,
		SubpageSize: 1024,
		Policy:      gmsubpage.Eager,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	var buf [64]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Read(buf[:], uint64(i)*gmsubpage.PageSize+4000); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := c.Stats()
	if st.SubpageLatencyUs > 0 {
		b.ReportMetric(st.SubpageLatencyUs, "subpage-us")
	}
	if st.FullLatencyUs > 0 {
		b.ReportMetric(st.FullLatencyUs, "fullpage-us")
	}
}

// BenchmarkPrototypeFullPageFault is the full-page baseline for
// BenchmarkPrototypeFault (the paper's 1.48 ms on AN2).
func BenchmarkPrototypeFullPageFault(b *testing.B) {
	dir, err := gmsubpage.StartDirectory("127.0.0.1:0", gmsubpage.DirectoryOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer dir.Close()
	srv, err := gmsubpage.StartServer("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	srv.StoreRange(0, b.N+1)
	if err := srv.Register(dir.Addr()); err != nil {
		b.Fatal(err)
	}
	c, err := gmsubpage.DialClient(dir.Addr(), gmsubpage.ClientOptions{
		CachePages: b.N + 2,
		Policy:     gmsubpage.FullPage,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	var buf [64]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Read(buf[:], uint64(i)*gmsubpage.PageSize+4000); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension: multi-node global memory under load.
func BenchmarkClusterUnderLoad(b *testing.B) { benchExperiment(b, "cluster") }

// Validation: simulator against closed-form bounds.
func BenchmarkAnalyticBounds(b *testing.B) { benchExperiment(b, "bounds") }

// Extension: the paper's closing prediction — faster networks shrink the
// optimal subpage size.
func BenchmarkFutureNetworks(b *testing.B) { benchExperiment(b, "future") }

// Motivation (§1): TLB coverage vs. page size.
func BenchmarkTLBCoverage(b *testing.B) { benchExperiment(b, "tlbcover") }
