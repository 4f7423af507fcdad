package sim

import (
	"strings"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/netmodel"
	"github.com/gms-sim/gmsubpage/internal/rng"
	"github.com/gms-sim/gmsubpage/internal/trace"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// seqTrace builds a trace touching pages 0..pages-1, refsPerPage references
// each, walking forward within each page by stride.
func seqTrace(pages, refsPerPage int, stride uint64) *trace.SliceReader {
	var refs []trace.Ref
	for p := 0; p < pages; p++ {
		off := uint64(0)
		for i := 0; i < refsPerPage; i++ {
			refs = append(refs, trace.Ref{Addr: uint64(p)*units.PageSize + off})
			off = (off + stride) % units.PageSize
		}
	}
	return &trace.SliceReader{Refs: refs}
}

// appFromRefs wraps fixed references into an App for the simulator.
func appFromRefs(name string, refs []trace.Ref, totalPages int) *trace.App {
	return trace.NewApp(name, 1, totalPages, func() []trace.Phase {
		return []trace.Phase{{Name: "fixed", Refs: int64(len(refs)), Pattern: &replay{refs: refs}}}
	})
}

// replay is a Pattern that replays a fixed slice.
type replay struct {
	refs []trace.Ref
	pos  int
}

func (r *replay) Fill(_ *rng.Rand, dst []trace.Ref) {
	r.pos += copy(dst, r.refs[r.pos:])
}

func seqApp(pages, refsPerPage int, stride uint64) *trace.App {
	sr := seqTrace(pages, refsPerPage, stride)
	return appFromRefs("seq", sr.Refs, pages)
}

func runCfg(t *testing.T, cfg Config) *Result {
	t.Helper()
	res := Run(cfg)
	// Universal invariant: the runtime decomposes exactly.
	sum := units.Ticks(res.Events) + res.SpLatency + res.PageWait +
		res.DiskWait + res.PALTicks + res.TLBTicks
	if res.Runtime != sum {
		t.Fatalf("runtime %d != decomposition %d (%+v)", res.Runtime, sum, res)
	}
	return res
}

func TestFullPageColdSequential(t *testing.T) {
	app := seqApp(10, 100, 64)
	res := runCfg(t, Config{
		App:    app,
		Policy: core.FullPage{},
	})
	if res.Faults != 10 {
		t.Fatalf("Faults = %d, want 10", res.Faults)
	}
	if res.RemoteFaults != 10 || res.DiskFaults != 0 {
		t.Fatalf("remote/disk = %d/%d, want 10/0", res.RemoteFaults, res.DiskFaults)
	}
	if res.Events != 1000 {
		t.Fatalf("Events = %d, want 1000", res.Events)
	}
	// Each full-page fault stalls ~1.48 ms.
	wantSp := 10 * netmodel.AN2ATM().FetchLatency(units.PageSize).ToTicks()
	if diff := abs(res.SpLatency - wantSp); diff*10 > wantSp {
		t.Fatalf("SpLatency = %d, want ~%d", res.SpLatency, wantSp)
	}
	if res.PageWait != 0 {
		t.Fatalf("full pages never page-wait, got %d", res.PageWait)
	}
}

func abs(t units.Ticks) units.Ticks {
	if t < 0 {
		return -t
	}
	return t
}

func TestDiskBackingSlower(t *testing.T) {
	app := seqApp(10, 100, 64)
	remote := runCfg(t, Config{App: app, Policy: core.FullPage{}})
	diskRes := runCfg(t, Config{App: app, Policy: core.FullPage{}, Backing: Disk})
	if diskRes.DiskFaults != 10 || diskRes.RemoteFaults != 0 {
		t.Fatalf("disk run faults: %+v", diskRes)
	}
	if diskRes.Runtime <= remote.Runtime {
		t.Fatalf("disk %d should be slower than remote %d", diskRes.Runtime, remote.Runtime)
	}
}

func TestEagerBeatsFullPageOnSparseAccess(t *testing.T) {
	// Touch each page briefly within one subpage: eager resumes after the
	// subpage and never needs the rest before moving on.
	app := seqApp(50, 20, 8) // 20 refs x 8B = 160 bytes per page
	full := runCfg(t, Config{App: app, Policy: core.FullPage{}, SubpageSize: units.PageSize})
	eager := runCfg(t, Config{App: app, Policy: core.Eager{}, SubpageSize: 1024})
	if eager.Runtime >= full.Runtime {
		t.Fatalf("eager %d should beat fullpage %d", eager.Runtime, full.Runtime)
	}
	if eager.Faults != full.Faults {
		t.Fatalf("same trace, different faults: %d vs %d", eager.Faults, full.Faults)
	}
}

func TestEagerPageWaitOnDenseAccess(t *testing.T) {
	// Stride crosses subpages quickly: the program catches up with the
	// rest-of-page transfer and must page-wait.
	app := seqApp(20, 64, 1024) // jumps a 1K subpage every ref
	eager := runCfg(t, Config{App: app, Policy: core.Eager{}, SubpageSize: 1024})
	if eager.PageWait == 0 {
		t.Fatal("dense access should produce page waits")
	}
}

func TestLazySubpageFaults(t *testing.T) {
	// Touch two subpages per page: lazy pays two full faults.
	var refs []trace.Ref
	for p := 0; p < 10; p++ {
		refs = append(refs,
			trace.Ref{Addr: uint64(p) * units.PageSize},
			trace.Ref{Addr: uint64(p)*units.PageSize + 4096},
		)
	}
	app := appFromRefs("twosub", refs, 10)
	lazy := runCfg(t, Config{App: app, Policy: core.Lazy{}, SubpageSize: 1024})
	if lazy.Faults != 10 {
		t.Fatalf("page faults = %d, want 10", lazy.Faults)
	}
	if lazy.SubpageFaults != 10 {
		t.Fatalf("subpage faults = %d, want 10", lazy.SubpageFaults)
	}
	// Eager moves the whole page; lazy moves only what is touched.
	eager := runCfg(t, Config{App: app, Policy: core.Eager{}, SubpageSize: 1024})
	if lazy.BytesMoved >= eager.BytesMoved {
		t.Fatalf("lazy bytes %d should be below eager %d", lazy.BytesMoved, eager.BytesMoved)
	}
}

func TestCapacityMissesAtReducedMemory(t *testing.T) {
	// Two passes over 40 pages with memory for 20: the second pass
	// faults again (LRU thrashes on a scan).
	var refs []trace.Ref
	for pass := 0; pass < 2; pass++ {
		for p := 0; p < 40; p++ {
			for i := 0; i < 10; i++ {
				refs = append(refs, trace.Ref{Addr: uint64(p)*units.PageSize + uint64(i*8)})
			}
		}
	}
	app := appFromRefs("twopass", refs, 40)
	full := runCfg(t, Config{App: app, Policy: core.FullPage{}, MemPages: 40})
	half := runCfg(t, Config{App: app, Policy: core.FullPage{}, MemPages: 20})
	if full.Faults != 40 {
		t.Fatalf("full-mem faults = %d, want 40", full.Faults)
	}
	if half.Faults != 80 {
		t.Fatalf("half-mem faults = %d, want 80 (LRU scan thrash)", half.Faults)
	}
	if half.Evictions == 0 {
		t.Fatal("half-mem run should evict")
	}
	// Evicted pages went back to global memory, not disk.
	if half.DiskFaults != 0 {
		t.Fatalf("refaults should hit network memory, got %d disk faults", half.DiskFaults)
	}
}

func TestColdStartFallsToDisk(t *testing.T) {
	app := seqApp(10, 50, 64)
	cold := runCfg(t, Config{App: app, Policy: core.FullPage{}, ColdStart: true})
	if cold.DiskFaults != 10 {
		t.Fatalf("cold start should disk-fault all pages, got %d", cold.DiskFaults)
	}
}

func TestPerFaultTracking(t *testing.T) {
	app := seqApp(10, 100, 64)
	res := runCfg(t, Config{
		App: app, Policy: core.Eager{}, SubpageSize: 1024, TrackPerFault: true,
	})
	if len(res.FaultEvents) != int(res.Faults) {
		t.Fatalf("FaultEvents has %d entries, faults = %d", len(res.FaultEvents), res.Faults)
	}
	if len(res.PerFaultWait) != int(res.Faults) {
		t.Fatalf("PerFaultWait has %d entries, faults = %d", len(res.PerFaultWait), res.Faults)
	}
	for i := 1; i < len(res.FaultEvents); i++ {
		if res.FaultEvents[i] < res.FaultEvents[i-1] {
			t.Fatal("fault events not monotone")
		}
	}
	// Sequential within-page access: the distance histogram is dominated
	// by +1.
	if res.NextDistance.Total() == 0 {
		t.Fatal("no distance samples")
	}
	if res.NextDistance.Fraction(1) < 0.9 {
		t.Fatalf("+1 fraction = %.2f, want ~1 for a pure sequential walk",
			res.NextDistance.Fraction(1))
	}
}

func TestPALEmulationChargesOverhead(t *testing.T) {
	app := seqApp(10, 200, 256)
	plain := runCfg(t, Config{App: app, Policy: core.Eager{}, SubpageSize: 1024})
	pal := runCfg(t, Config{App: app, Policy: core.Eager{}, SubpageSize: 1024, PALEmulation: true})
	if pal.PALTicks == 0 || pal.EmulatedOps == 0 {
		t.Fatalf("PAL emulation recorded nothing: %+v", pal)
	}
	// Emulation time largely substitutes for page-wait stalls (the page
	// is incomplete in exactly the window the program would otherwise
	// wait in), so runtime grows at most slightly — the paper found <1%
	// overall slowdown.
	if pal.Runtime < plain.Runtime {
		t.Fatal("PAL emulation cannot make the run faster")
	}
	if ratio := float64(pal.Runtime) / float64(plain.Runtime); ratio > 1.10 {
		t.Fatalf("PAL emulation overhead ratio %.3f too large", ratio)
	}
}

func TestTLBModelCharges(t *testing.T) {
	app := seqApp(64, 10, 512)
	res := runCfg(t, Config{
		App: app, Policy: core.Eager{}, SubpageSize: 1024,
		TLBEntries: 8, TLBPageSize: units.PageSize,
	})
	if res.TLBMisses == 0 || res.TLBTicks == 0 {
		t.Fatalf("TLB should miss on 64 pages with 8 entries: %+v", res)
	}
}

func TestRuntimeDeterminism(t *testing.T) {
	app := trace.Gdb(0.5)
	a := runCfg(t, Config{App: app, Policy: core.Pipelined{}, SubpageSize: 1024, MemFraction: 0.5})
	b := runCfg(t, Config{App: app, Policy: core.Pipelined{}, SubpageSize: 1024, MemFraction: 0.5})
	if a.Runtime != b.Runtime || a.Faults != b.Faults {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestMemFractionSizing(t *testing.T) {
	app := seqApp(100, 10, 64)
	half := runCfg(t, Config{App: app, Policy: core.FullPage{}, MemFraction: 0.5})
	if half.MemPages != 50 {
		t.Fatalf("MemPages = %d, want 50", half.MemPages)
	}
}

func TestResultString(t *testing.T) {
	app := seqApp(4, 50, 64)
	res := runCfg(t, Config{App: app, Policy: core.Eager{}, SubpageSize: 1024})
	s := res.String()
	for _, want := range []string{"seq", "eager", "sub=1024", "faults=4"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q: %s", want, s)
		}
	}
}

func TestSpeedup(t *testing.T) {
	a := &Result{Runtime: 100}
	b := &Result{Runtime: 200}
	if a.Speedup(b) != 2 {
		t.Fatalf("Speedup = %v", a.Speedup(b))
	}
	zero := &Result{}
	if zero.Speedup(a) != 0 {
		t.Fatal("zero-runtime speedup should be 0")
	}
}

func TestEvictionsCancelInflightTransfers(t *testing.T) {
	// A tiny memory forces eviction of pages whose transfers are still
	// in flight; the canceled count must be consistent and the run must
	// still decompose exactly (checked by runCfg).
	var refs []trace.Ref
	for p := 0; p < 50; p++ {
		refs = append(refs, trace.Ref{Addr: uint64(p) * units.PageSize})
	}
	app := appFromRefs("churn", refs, 50)
	res := runCfg(t, Config{App: app, Policy: core.Eager{}, SubpageSize: 1024, MemPages: 2})
	if res.Evictions == 0 {
		t.Fatal("expected evictions")
	}
	if res.Canceled == 0 {
		t.Fatal("back-to-back faults with 2 frames should cancel in-flight transfers")
	}
}

func TestWarmCacheServesEvictedPagesRemotely(t *testing.T) {
	// After eviction, a page refaults from network memory (putpage put
	// it back), never from disk.
	var refs []trace.Ref
	for pass := 0; pass < 3; pass++ {
		for p := 0; p < 6; p++ {
			for i := 0; i < 50; i++ {
				refs = append(refs, trace.Ref{Addr: uint64(p)*units.PageSize + uint64(i*8)})
			}
		}
	}
	app := appFromRefs("revisit", refs, 6)
	res := runCfg(t, Config{App: app, Policy: core.Eager{}, SubpageSize: 1024, MemPages: 3})
	if res.DiskFaults != 0 {
		t.Fatalf("disk faults = %d; evicted pages should return to global memory", res.DiskFaults)
	}
	if res.Faults <= 6 {
		t.Fatal("expected refaults beyond first touch")
	}
}
