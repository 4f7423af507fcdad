// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the index). BenchmarkExperiment/<id>
// runs one experiment end to end on reduced-scale traces; the others time
// the simulator's throughput and a live fault, reporting the metrics that
// correspond to paper numbers alongside ns/op.
//
//	go test -run '^$' -bench . -benchmem
//	go test -run '^$' -bench 'Experiment/fig9' .
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

// BenchmarkExperiment runs every experiment gmsubpage.Experiments()
// lists, one sub-benchmark each (BenchmarkExperiment/fig9 and so on), end
// to end on reduced-scale traces.
func BenchmarkExperiment(b *testing.B) {
	for _, id := range gmsubpage.Experiments() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := gmsubpage.RunExperiment(id, benchScale)
				if err != nil {
					b.Fatal(err)
				}
				if len(out) == 0 {
					b.Fatal("empty experiment output")
				}
			}
		})
	}
}

// BenchmarkFig9Parallel8 runs the widest sweep (5 apps × 3 policies) on
// an 8-wide worker pool; against BenchmarkExperiment/fig9 it measures what
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
