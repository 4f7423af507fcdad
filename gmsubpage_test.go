package gmsubpage_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	gmsubpage "github.com/gms-sim/gmsubpage"
)

func TestWorkloadsAndPolicies(t *testing.T) {
	w := gmsubpage.Workloads()
	if len(w) != 5 || w[0] != "modula3" || w[4] != "gdb" {
		t.Fatalf("Workloads = %v", w)
	}
	pols := gmsubpage.Policies()
	if len(pols) != 8 || pols[len(pols)-1] != gmsubpage.Prefetch {
		t.Fatalf("Policies = %v", pols)
	}
}

func TestSimulateDefaults(t *testing.T) {
	rep, err := gmsubpage.Simulate(gmsubpage.Config{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "modula3" || rep.Policy != "eager" || rep.SubpageSize != 1024 {
		t.Fatalf("defaults not applied: %+v", rep)
	}
	if rep.RuntimeMs <= 0 || rep.Faults == 0 {
		t.Fatalf("implausible report: %+v", rep)
	}
	// The decomposition adds up.
	sum := rep.ExecMs + rep.SubpageWaitMs + rep.PageWaitMs + rep.DiskWaitMs
	if diff := rep.RuntimeMs - sum; diff > 0.01 || diff < -0.01 {
		t.Fatalf("runtime %v != decomposition %v", rep.RuntimeMs, sum)
	}
}

func TestSimulateHeadlineResult(t *testing.T) {
	// The paper's headline: memory-intensive applications run faster
	// with 1K subpages than with full 8K pages, and much faster than
	// with disk backing.
	base := gmsubpage.Config{Workload: "modula3", Scale: 0.1, MemoryFraction: 0.25}

	diskCfg := base
	diskCfg.DiskBacking = true
	diskCfg.Policy = gmsubpage.FullPage
	disk, err := gmsubpage.Simulate(diskCfg)
	if err != nil {
		t.Fatal(err)
	}

	fullCfg := base
	fullCfg.Policy = gmsubpage.FullPage
	fullCfg.SubpageSize = gmsubpage.PageSize
	full, err := gmsubpage.Simulate(fullCfg)
	if err != nil {
		t.Fatal(err)
	}

	eagerCfg := base
	eagerCfg.Policy = gmsubpage.Eager
	eager, err := gmsubpage.Simulate(eagerCfg)
	if err != nil {
		t.Fatal(err)
	}

	if s := eager.Speedup(full); s < 1.05 || s > 2.2 {
		t.Errorf("eager vs fullpage speedup = %.2f, want within the paper's band (up to ~1.8)", s)
	}
	if s := eager.Speedup(disk); s < 1.5 || s > 6 {
		t.Errorf("eager vs disk speedup = %.2f, want roughly 2-4x", s)
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := gmsubpage.Simulate(gmsubpage.Config{Workload: "nope"}); err == nil {
		t.Error("unknown workload should fail")
	}
	if _, err := gmsubpage.Simulate(gmsubpage.Config{SubpageSize: 100, Scale: 0.05}); err == nil {
		t.Error("bad subpage size should fail")
	}
	if _, err := gmsubpage.Simulate(gmsubpage.Config{Policy: "warp", Scale: 0.05}); err == nil {
		t.Error("bad policy should fail")
	}
}

// TestNegativeScaleAndMemoryRejected pins that every simulator entry point
// refuses a negative or NaN trace scale or memory fraction. They used to
// run: a negative scale on the smallest traces the generators clamp to, a
// negative fraction on a memory of a page or two.
func TestNegativeScaleAndMemoryRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gdb.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gmsubpage.WriteWorkloadTrace(f, "gdb", 0.05); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	calls := []struct {
		name, field string
		run         func() error
	}{
		{"Simulate scale", "Scale", func() error {
			_, err := gmsubpage.Simulate(gmsubpage.Config{Workload: "gdb", Scale: -1})
			return err
		}},
		{"Simulate NaN scale", "Scale", func() error {
			_, err := gmsubpage.Simulate(gmsubpage.Config{Workload: "gdb", Scale: nan})
			return err
		}},
		{"Simulate memory", "MemoryFraction", func() error {
			_, err := gmsubpage.Simulate(gmsubpage.Config{Workload: "gdb", Scale: 0.05, MemoryFraction: -1})
			return err
		}},
		{"SimulateTraceFile memory", "MemoryFraction", func() error {
			_, err := gmsubpage.SimulateTraceFile(path, gmsubpage.Config{MemoryFraction: -0.5})
			return err
		}},
		{"SimulateTraceFile NaN memory", "MemoryFraction", func() error {
			_, err := gmsubpage.SimulateTraceFile(path, gmsubpage.Config{MemoryFraction: nan})
			return err
		}},
		{"SimulateCluster scale", "Scale", func() error {
			_, err := gmsubpage.SimulateCluster(gmsubpage.ClusterConfig{Workloads: []string{"gdb"}, Scale: -1})
			return err
		}},
		{"SimulateCluster memory", "MemoryFraction", func() error {
			_, err := gmsubpage.SimulateCluster(gmsubpage.ClusterConfig{Workloads: []string{"gdb"}, Scale: 0.05, MemoryFraction: -1})
			return err
		}},
		{"RunExperimentParallel scale", "scale", func() error {
			_, err := gmsubpage.RunExperimentParallel("fig6", -1, 1)
			return err
		}},
		{"RunExperiment NaN scale", "scale", func() error {
			_, err := gmsubpage.RunExperiment("fig6", nan)
			return err
		}},
	}
	for _, c := range calls {
		err := c.run()
		if err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: err = %v, want one naming %s", c.name, err, c.field)
		}
	}
}

func TestPerFaultTracking(t *testing.T) {
	rep, err := gmsubpage.Simulate(gmsubpage.Config{
		Scale: 0.05, MemoryFraction: 0.5, TrackPerFault: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerFaultWaitMs) == 0 || len(rep.FaultEvents) == 0 {
		t.Fatal("per-fault arrays missing")
	}
	if len(rep.NextSubpageDistance) == 0 {
		t.Fatal("distance distribution missing")
	}
	if rep.NextSubpageDistance[1] < 0.3 {
		t.Errorf("+1 distance share = %v, should dominate", rep.NextSubpageDistance[1])
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := gmsubpage.Experiments()
	if len(ids) < 14 {
		t.Fatalf("Experiments = %v", ids)
	}
	out, err := gmsubpage.RunExperiment("table2", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"table2", "fullpage", "1.48"} {
		if !strings.Contains(out, want) {
			t.Errorf("table2 output missing %q:\n%s", want, out)
		}
	}
	if _, err := gmsubpage.RunExperiment("nope", 0); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestRemotePrototypeEndToEnd(t *testing.T) {
	dir, err := gmsubpage.StartDirectory("127.0.0.1:0", gmsubpage.DirectoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()

	srv, err := gmsubpage.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.StoreRange(0, 16)
	if err := srv.Register(dir.Addr()); err != nil {
		t.Fatal(err)
	}
	if dir.Pages() != 16 {
		t.Fatalf("directory pages = %d", dir.Pages())
	}

	c, err := gmsubpage.DialClient(dir.Addr(), gmsubpage.ClientOptions{
		Policy: gmsubpage.Pipelined, SubpageSize: 1024, CachePages: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	msg := []byte("global memory says hello")
	if err := c.Write(msg, 3*gmsubpage.PageSize+500); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := c.Read(got, 3*gmsubpage.PageSize+500); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read back %q", got)
	}
	st := c.Stats()
	if st.Faults == 0 || st.BytesIn == 0 {
		t.Fatalf("no faults recorded: %+v", st)
	}
}

func TestDialClientRejectsUnsupportedPolicy(t *testing.T) {
	if _, err := gmsubpage.DialClient("127.0.0.1:1", gmsubpage.ClientOptions{
		Policy: gmsubpage.WideFault,
	}); err == nil {
		t.Fatal("widefault is not a wire policy")
	}
}

func TestFacadePager(t *testing.T) {
	dir, err := gmsubpage.StartDirectory("127.0.0.1:0", gmsubpage.DirectoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	srv, err := gmsubpage.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.StoreRange(0, 8)
	if err := srv.Register(dir.Addr()); err != nil {
		t.Fatal(err)
	}
	c, err := gmsubpage.DialClient(dir.Addr(), gmsubpage.ClientOptions{CachePages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pg, err := c.NewPager(0, 4*gmsubpage.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("through the pager")
	if _, err := pg.WriteAt(msg, 2*gmsubpage.PageSize+17); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := pg.ReadAt(got, 2*gmsubpage.PageSize+17); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("pager round trip: %q", got)
	}
}

func TestSimulateCluster(t *testing.T) {
	rep, err := gmsubpage.SimulateCluster(gmsubpage.ClusterConfig{
		Workloads:           []string{"gdb", "gdb"},
		Scale:               1.0,
		MemoryFraction:      0.5,
		IdleNodes:           2,
		DonatedPagesPerIdle: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Nodes) != 2 {
		t.Fatalf("nodes = %d", len(rep.Nodes))
	}
	if rep.MakespanMs <= 0 || rep.GlobalHits == 0 {
		t.Fatalf("implausible cluster report: %+v", rep)
	}
	if rep.Epochs == 0 {
		t.Fatal("epoch replacement should have run")
	}
	for _, n := range rep.Nodes {
		if n.Faults == 0 {
			t.Fatalf("idle node in %+v", n)
		}
	}
}

func TestSimulateClusterNoIdleNodes(t *testing.T) {
	// The all-disk baseline must be expressible: zero idle nodes, no
	// global hits, every refault falls through to disk.
	base := gmsubpage.ClusterConfig{
		Workloads:      []string{"gdb"},
		Scale:          0.5,
		MemoryFraction: 0.5,
	}
	cfg := base
	cfg.NoIdleNodes = true
	rep, err := gmsubpage.SimulateCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GlobalHits != 0 {
		t.Fatalf("no-idle cluster hit network memory: %+v", rep)
	}
	if rep.DiskFaults == 0 {
		t.Fatal("no-idle cluster should fault to disk")
	}
	// IdleNodes: -1 is the equivalent spelling.
	cfg = base
	cfg.IdleNodes = -1
	neg, err := gmsubpage.SimulateCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if neg.GlobalHits != 0 || neg.DiskFaults != rep.DiskFaults {
		t.Fatalf("IdleNodes:-1 should match NoIdleNodes: %+v vs %+v", neg, rep)
	}
	// The zero value still means "default donors", not "none".
	def, err := gmsubpage.SimulateCluster(base)
	if err != nil {
		t.Fatal(err)
	}
	if def.GlobalHits == 0 {
		t.Fatalf("default cluster should use network memory: %+v", def)
	}
	if def.MakespanMs >= rep.MakespanMs {
		t.Fatalf("network memory (%.1fms) should beat all-disk (%.1fms)",
			def.MakespanMs, rep.MakespanMs)
	}
}

func TestSimulateClusterErrors(t *testing.T) {
	if _, err := gmsubpage.SimulateCluster(gmsubpage.ClusterConfig{}); err == nil {
		t.Error("empty cluster should fail")
	}
	if _, err := gmsubpage.SimulateCluster(gmsubpage.ClusterConfig{
		Workloads: []string{"nope"},
	}); err == nil {
		t.Error("unknown workload should fail")
	}
	if _, err := gmsubpage.SimulateCluster(gmsubpage.ClusterConfig{
		Workloads: []string{"gdb"}, SubpageSize: 100,
	}); err == nil {
		t.Error("bad subpage size should fail")
	}
	if _, err := gmsubpage.SimulateCluster(gmsubpage.ClusterConfig{
		Workloads: []string{"gdb"}, NoIdleNodes: true,
		NodeFailures: []gmsubpage.FailureEvent{{Node: 0}},
	}); err == nil {
		t.Error("NodeFailures without idle nodes should fail")
	}
	if _, err := gmsubpage.SimulateCluster(gmsubpage.ClusterConfig{
		Workloads: []string{"gdb"}, IdleNodes: 2,
		NodeFailures: []gmsubpage.FailureEvent{{Node: 5}},
	}); err == nil {
		t.Error("out-of-range failure node should fail")
	}
	if _, err := gmsubpage.SimulateCluster(gmsubpage.ClusterConfig{
		Workloads: []string{"gdb"}, IdleNodes: 2,
		NodeFailures: []gmsubpage.FailureEvent{{Node: 0, AtMs: -1}},
	}); err == nil {
		t.Error("negative failure time should fail")
	}
}

func TestSimulateClusterNodeFailures(t *testing.T) {
	base := gmsubpage.ClusterConfig{
		Workloads:      []string{"gdb", "gdb"},
		Scale:          0.5,
		MemoryFraction: 0.5,
		IdleNodes:      2,
	}
	healthy, err := gmsubpage.SimulateCluster(base)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.DroppedPages != 0 {
		t.Fatalf("healthy run dropped pages: %+v", healthy)
	}

	cfg := base
	cfg.NodeFailures = []gmsubpage.FailureEvent{{Node: 0, AtMs: healthy.MakespanMs / 2}}
	degraded, err := gmsubpage.SimulateCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if degraded.DroppedPages == 0 {
		t.Fatalf("failure should drop the dead donor's pages: %+v", degraded)
	}
	if degraded.MakespanMs <= healthy.MakespanMs {
		t.Fatalf("losing a donor mid-run should cost time: %.1fms vs healthy %.1fms",
			degraded.MakespanMs, healthy.MakespanMs)
	}
}

func TestSimulateTraceFile(t *testing.T) {
	// Round trip: save a workload's trace, replay it through the
	// simulator, and match the in-memory run exactly.
	dir := t.TempDir()
	path := dir + "/gdb.trace"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	app := gmsubpage.Config{Workload: "gdb", Scale: 0.5, MemoryFraction: 0.5}
	inMem, err := gmsubpage.Simulate(app)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := gmsubpage.WriteWorkloadTrace(f, "gdb", 0.5); err != nil || n == 0 {
		t.Fatalf("WriteWorkloadTrace: %d, %v", n, err)
	}
	f.Close()

	rep, err := gmsubpage.SimulateTraceFile(path, gmsubpage.Config{MemoryFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != inMem.Faults || rep.RuntimeMs != inMem.RuntimeMs {
		t.Fatalf("trace replay differs: %+v vs %+v", rep, inMem)
	}
	if rep.Workload != "gdb.trace" {
		t.Fatalf("Workload = %q", rep.Workload)
	}
	if _, err := gmsubpage.SimulateTraceFile(dir+"/missing", gmsubpage.Config{}); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestReplayWorkloadLive(t *testing.T) {
	dir, err := gmsubpage.StartDirectory("127.0.0.1:0", gmsubpage.DirectoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	srv, err := gmsubpage.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	pages, err := gmsubpage.WorkloadPages("gdb", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	srv.StoreRange(0, pages+4)
	if err := srv.Register(dir.Addr()); err != nil {
		t.Fatal(err)
	}
	c, err := gmsubpage.DialClient(dir.Addr(), gmsubpage.ClientOptions{
		CachePages:  pages / 2, // run the debugger in half its memory
		SubpageSize: 1024,
		Policy:      gmsubpage.Eager,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rep, err := c.ReplayWorkload("gdb", 0.3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Refs == 0 || rep.Faults == 0 {
		t.Fatalf("empty replay: %+v", rep)
	}
	// Half-memory gdb refaults: more faults than its footprint.
	if rep.Faults <= int64(pages) {
		t.Errorf("faults %d should exceed footprint %d at half memory", rep.Faults, pages)
	}
	if rep.Evictions == 0 {
		t.Error("half-memory replay should evict")
	}
	if rep.FaultsPerSecond() <= 0 {
		t.Error("fault rate should be positive")
	}
	if _, err := c.ReplayWorkload("nope", 1, 0); err == nil {
		t.Error("unknown workload should fail")
	}
}

// TestFacadeDurableDirectoryAndDrain exercises the durability surface the
// gmsnode CLI exposes: a journaled directory recovers its registrations
// across a restart, and DrainServer decommissions a page server over the
// wire without losing its sole-copy pages.
func TestFacadeDurableDirectoryAndDrain(t *testing.T) {
	jdir := t.TempDir()
	opts := gmsubpage.DirectoryOptions{JournalDir: jdir, Fsync: "always"}
	dir, err := gmsubpage.StartDirectory("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	if _, err := gmsubpage.StartDirectory("127.0.0.1:0", gmsubpage.DirectoryOptions{JournalDir: jdir, Fsync: "sometimes"}); err == nil {
		t.Fatal("bad fsync policy accepted")
	}

	srcSrv, err := gmsubpage.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srcSrv.Close()
	srcSrv.StoreRange(0, 8)
	if err := srcSrv.Register(dir.Addr()); err != nil {
		t.Fatal(err)
	}
	dstSrv, err := gmsubpage.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dstSrv.Close()
	if err := dstSrv.Register(dir.Addr()); err != nil {
		t.Fatal(err)
	}

	// Restart the directory from its journal: the registrations must be
	// there before any heartbeat lands.
	addr := dir.Addr()
	if err := dir.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		dir, err = gmsubpage.StartDirectory(addr, opts)
		if err == nil {
			break
		}
		if i == 40 {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer dir.Close()
	if n := dir.RecoveredServers(); n != 2 {
		t.Fatalf("recovered %d registrations, want 2", n)
	}
	if dir.Pages() != 8 {
		t.Fatalf("recovered directory pages = %d, want 8", dir.Pages())
	}

	// Drain the sole holder over the wire: its 8 pages move to dstSrv and
	// a client can still read them.
	moved, err := gmsubpage.DrainServer(dir.Addr(), srcSrv.Addr(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 8 || dstSrv.Pages() != 8 {
		t.Fatalf("drain moved %d pages, dest holds %d, want 8/8", moved, dstSrv.Pages())
	}
	c, err := gmsubpage.DialClient(dir.Addr(), gmsubpage.ClientOptions{CachePages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 32)
	for p := uint64(0); p < 8; p++ {
		if err := c.Read(buf, p*gmsubpage.PageSize); err != nil {
			t.Fatalf("read page %d after drain: %v", p, err)
		}
	}
}
