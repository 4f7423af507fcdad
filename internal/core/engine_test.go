package core

import (
	"reflect"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/netmodel"
	"github.com/gms-sim/gmsubpage/internal/rng"
	"github.com/gms-sim/gmsubpage/internal/units"
)

func newTestEngine(p Policy, subpage int) *Engine {
	return NewEngine(netmodel.AN2ATM(), p, subpage)
}

func TestStartFaultEagerTimes(t *testing.T) {
	e := newTestEngine(Eager{}, 1024)
	tr := e.StartFault(0, 42, 0)
	if tr.Page != 42 || tr.FaultIdx != 0 {
		t.Fatalf("bad transfer identity: %+v", tr)
	}
	// Times should match the netmodel's Table 2 values (±10%).
	sub, rest := netmodel.AN2ATM().EagerLatencies(1024)
	if got, want := tr.FirstArrival, sub.ToTicks(); absDiff(got, want)*10 > want {
		t.Errorf("FirstArrival = %d ticks, want ~%d", got, want)
	}
	if got, want := tr.CompleteAt, rest.ToTicks(); absDiff(got, want)*10 > want {
		t.Errorf("CompleteAt = %d ticks, want ~%d", got, want)
	}
}

func absDiff(a, b units.Ticks) units.Ticks {
	if a > b {
		return a - b
	}
	return b - a
}

func TestArrivalCovering(t *testing.T) {
	e := newTestEngine(Eager{}, 1024)
	tr := e.StartFault(0, 1, 2048) // fault in subpage 2
	// The faulted subpage arrives first.
	at, ok := tr.ArrivalCovering(2100)
	if !ok || at != tr.FirstArrival {
		t.Fatalf("faulted subpage arrival = %d, %v", at, ok)
	}
	// Another subpage arrives with the rest.
	at, ok = tr.ArrivalCovering(0)
	if !ok || at != tr.CompleteAt {
		t.Fatalf("other subpage arrival = %d, %v (complete %d)", at, ok, tr.CompleteAt)
	}
}

func TestLazyDoesNotCoverOtherSubpages(t *testing.T) {
	e := newTestEngine(Lazy{}, 1024)
	tr := e.StartFault(0, 1, 0)
	if _, ok := tr.ArrivalCovering(4096); ok {
		t.Fatal("lazy transfer should not cover other subpages")
	}
	if tr.Covered().Full() {
		t.Fatal("lazy covers the full page?")
	}
}

func TestApplyArrivedProgression(t *testing.T) {
	e := newTestEngine(Eager{}, 1024)
	tr := e.StartFault(0, 1, 0)
	if got := tr.ApplyArrived(tr.FirstArrival - 1); got != 0 {
		t.Fatalf("nothing should have arrived yet, got %s", got)
	}
	first := tr.ApplyArrived(tr.FirstArrival)
	if !first.Has(0) || first.Full() {
		t.Fatalf("first arrival should be just the subpage: %s", first)
	}
	if tr.Done() {
		t.Fatal("transfer not done after first message")
	}
	rest := tr.ApplyArrived(tr.CompleteAt)
	if first|rest != 0xFFFFFFFF {
		t.Fatalf("arrivals should cover the page: %s", first|rest)
	}
	if !tr.Done() {
		t.Fatal("transfer should be done")
	}
	// Re-applying yields nothing.
	if tr.ApplyArrived(tr.CompleteAt+1000) != 0 {
		t.Fatal("already-applied messages reapplied")
	}
}

func TestConcurrentFaultsContend(t *testing.T) {
	e := newTestEngine(Eager{}, 1024)
	a := e.StartFault(0, 1, 0)
	b := e.StartFault(0, 2, 0)
	if b.FirstArrival <= a.FirstArrival {
		t.Fatalf("second concurrent fault should land later: %d vs %d",
			b.FirstArrival, a.FirstArrival)
	}
	// But engine state resets per engine: a fresh engine sees no queue.
	e2 := newTestEngine(Eager{}, 1024)
	c := e2.StartFault(0, 1, 0)
	if c.FirstArrival != a.FirstArrival {
		t.Fatalf("fresh engine should match first fault: %d vs %d",
			c.FirstArrival, a.FirstArrival)
	}
}

func TestArrivalsNeverAtOrBeforeStart(t *testing.T) {
	e := newTestEngine(Pipelined{}, 256)
	now := units.Ticks(12345)
	tr := e.StartFault(now, 1, 0)
	if tr.FirstArrival <= now || tr.CompleteAt < tr.FirstArrival {
		t.Fatalf("bad arrival ordering: start %d first %d complete %d",
			now, tr.FirstArrival, tr.CompleteAt)
	}
}

func TestOverlapAttributionIO(t *testing.T) {
	// Two faults back to back: while A's rest is in flight, the program
	// stalls on B's subpage. That stall is I/O overlap for A.
	e := newTestEngine(Eager{}, 1024)
	a := e.StartFault(0, 1, 0)
	nowAfterA := a.FirstArrival
	b := e.StartFault(nowAfterA, 2, 0)
	e.NoteStall(nowAfterA, b.FirstArrival, b, true)
	e.FinishTransfer(a, a.CompleteAt)
	if e.IOOverlap == 0 {
		t.Fatal("stall on B during A's window should count as I/O overlap")
	}
}

func TestOverlapAttributionComp(t *testing.T) {
	// One fault, program executes through the whole window: all benefit
	// is computational.
	e := newTestEngine(Eager{}, 1024)
	a := e.StartFault(0, 1, 0)
	e.FinishTransfer(a, a.CompleteAt+1000)
	if e.IOOverlap != 0 {
		t.Fatalf("no other I/O: IOOverlap = %d", e.IOOverlap)
	}
	if want := a.CompleteAt - a.FirstArrival; e.CompOverlap != want {
		t.Fatalf("CompOverlap = %d, want %d", e.CompOverlap, want)
	}
}

func TestOverlapAttributionSelfWaitIsNotBenefit(t *testing.T) {
	// The program immediately stalls for the rest of its own page: no
	// overlap benefit at all.
	e := newTestEngine(Eager{}, 1024)
	a := e.StartFault(0, 1, 0)
	e.NoteStall(a.FirstArrival, a.CompleteAt, a, false)
	e.FinishTransfer(a, a.CompleteAt)
	if e.IOOverlap != 0 || e.CompOverlap != 0 {
		t.Fatalf("self-wait should give no overlap: io=%d comp=%d",
			e.IOOverlap, e.CompOverlap)
	}
	if a.PageWait != a.CompleteAt-a.FirstArrival {
		t.Fatalf("PageWait = %d", a.PageWait)
	}
}

func TestIOOverlapShare(t *testing.T) {
	e := newTestEngine(Eager{}, 1024)
	if e.IOOverlapShare() != 0 {
		t.Fatal("empty engine share should be 0")
	}
	e.IOOverlap = 30
	e.CompOverlap = 70
	if got := e.IOOverlapShare(); got != 0.3 {
		t.Fatalf("share = %v, want 0.3", got)
	}
}

func TestFinishTransferClampsToNow(t *testing.T) {
	// Trace ends before the transfer completes: window clamps.
	e := newTestEngine(Eager{}, 1024)
	a := e.StartFault(0, 1, 0)
	mid := (a.FirstArrival + a.CompleteAt) / 2
	e.FinishTransfer(a, mid)
	if e.CompOverlap != mid-a.FirstArrival {
		t.Fatalf("clamped CompOverlap = %d, want %d", e.CompOverlap, mid-a.FirstArrival)
	}
}

func TestNoteStallIgnoresEmpty(t *testing.T) {
	e := newTestEngine(Eager{}, 1024)
	e.NoteStall(100, 100, nil, true)
	e.NoteStall(100, 50, nil, true)
	if e.cumStall != 0 {
		t.Fatal("empty stalls should be ignored")
	}
}

func TestBytesMovedAccounting(t *testing.T) {
	e := newTestEngine(Eager{}, 1024)
	e.StartFault(0, 1, 0)
	if e.BytesMoved != units.PageSize {
		t.Fatalf("BytesMoved = %d, want %d", e.BytesMoved, units.PageSize)
	}
	eLazy := newTestEngine(Lazy{}, 1024)
	eLazy.StartFault(0, 1, 0)
	if eLazy.BytesMoved != 1024 {
		t.Fatalf("lazy BytesMoved = %d, want 1024", eLazy.BytesMoved)
	}
}

// TestEngineFaultAllocs holds a steady-state fault — plan and schedule, stall
// to the faulted subpage, apply what arrived, attribute the overlap — to no
// allocation: the engine keeps a stateless policy's plans and the
// prefetcher's fallback plans, the prefetcher plans into a buffer it reuses,
// and transfers, their slices, the netmodel scratch and the stall log are
// all reused. The "strided" stream walks every page in 1 KB steps, a trend
// the prefetcher's vote locks onto, so its confident plans are measured too.
func TestEngineFaultAllocs(t *testing.T) {
	scattered := func(i int) (memmodel.PageID, int) { return memmodel.PageID(i & 4095), (i * 264) & (units.PageSize - 1) }
	strided := func(i int) (memmodel.PageID, int) { return memmodel.PageID(i >> 3 & 4095), (i & 7) * 1024 }
	for _, c := range []struct {
		p      Policy
		stream string
		at     func(i int) (memmodel.PageID, int)
	}{
		{FullPage{}, "scattered", scattered}, {Lazy{}, "scattered", scattered}, {Eager{}, "scattered", scattered},
		{Pipelined{}, "scattered", scattered}, {WideFault{}, "scattered", scattered},
		{NewPrefetcher(), "scattered", scattered}, {NewPrefetcher(), "strided", strided},
	} {
		e := newTestEngine(c.p, 512)
		tr := e.StartFault(0, 0, 0)
		i := 0
		fault := func() {
			e.NoteStall(tr.Started, tr.FirstArrival, tr, true)
			at := tr.CompleteAt
			tr.ApplyArrived(at)
			e.FinishTransfer(tr, at)
			i++
			page, off := c.at(i)
			tr = e.StartFault(at, page, off)
		}
		for k := 0; k < 1000; k++ {
			fault()
		}
		got := testing.AllocsPerRun(1000, fault)
		if got != 0 {
			t.Errorf("%s on the %s stream: %v allocations per fault, want 0", c.p.Name(), c.stream, got)
		}
		if pf, ok := c.p.(*Prefetcher); ok && c.stream == "strided" && pf.Confident < pf.Fallbacks {
			t.Errorf("strided stream: %d confident plans, %d fallbacks; the vote should lock on", pf.Confident, pf.Fallbacks)
		}
	}
}

// TestUnconfidentPrefetcherIsPipelined: a prefetcher whose vote never
// finds an in-page trend plans every fault from its fallback, so its engine
// schedules exactly what a Pipelined engine does — every message's blocks
// and arrival, the bytes moved and the blocks issued beyond the demand.
func TestUnconfidentPrefetcherIsPipelined(t *testing.T) {
	for _, sub := range testSubpageSizes {
		pf := NewPrefetcher()
		ep, ew := newTestEngine(pf, sub), newTestEngine(Pipelined{}, sub)
		r := rng.New(uint64(sub))
		now := units.Ticks(0)
		for i := 0; i < 5000; i++ {
			page, off := memmodel.PageID(r.Intn(4096)), r.Intn(units.PageSize)
			a, b := ep.StartFault(now, page, off), ew.StartFault(now, page, off)
			if !reflect.DeepEqual(a.covers, b.covers) || !reflect.DeepEqual(a.arrivals, b.arrivals) {
				t.Fatalf("%d B, fault %d: prefetch planned %v at %v, pipelined %v at %v",
					sub, i, a.covers, a.arrivals, b.covers, b.arrivals)
			}
			now = a.CompleteAt
			ep.FinishTransfer(a, now)
			ew.FinishTransfer(b, now)
		}
		if pf.Confident != 0 {
			t.Fatalf("%d B: %d confident plans on a random stream; the test needs none", sub, pf.Confident)
		}
		if ep.BytesMoved != ew.BytesMoved || ep.PrefetchIssued != ew.PrefetchIssued {
			t.Fatalf("%d B: prefetch moved %d B and issued %d blocks, pipelined %d B and %d blocks",
				sub, ep.BytesMoved, ep.PrefetchIssued, ew.BytesMoved, ew.PrefetchIssued)
		}
	}
}

// TestEngineResetMatchesNew: an engine Reset after a run of one shape times
// and attributes a run of another exactly as a new engine does, whether the
// reset keeps its plans (same policy and size) or drops them.
func TestEngineResetMatchesNew(t *testing.T) {
	type shape struct {
		p   Policy
		sub int
	}
	run := func(e *Engine) (out []units.Ticks) {
		now := units.Ticks(0)
		var open []*Transfer
		for i := 0; i < 500; i++ {
			tr := e.StartFault(now, memmodel.PageID(i), (i*264)&(units.PageSize-1))
			e.NoteStall(now, tr.FirstArrival, tr, true)
			now = tr.FirstArrival + units.Ticks(i%97)
			out = append(out, tr.FirstArrival, tr.CompleteAt)
			open = append(open, tr)
			if len(open) > 4 {
				old := open[0]
				old.ApplyArrived(now)
				e.FinishTransfer(old, now)
				open = open[1:]
			}
		}
		return append(out, e.IOOverlap, e.CompOverlap, units.Ticks(e.BytesMoved), units.Ticks(e.PrefetchIssued))
	}
	shapes := []shape{{Pipelined{}, 512}, {Pipelined{}, 512}, {Eager{}, 1024}, {Pipelined{DoubleFollowOn: true}, 512}, {WideFault{}, 256}, {Lazy{}, 256}}
	reused := newTestEngine(FullPage{}, units.PageSize)
	run(reused) // leaves transfers live: Reset must recycle them
	for _, s := range shapes {
		want := run(newTestEngine(s.p, s.sub))
		reused.Reset(netmodel.AN2ATM(), s.p, s.sub)
		if got := run(reused); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%d: reset engine diverges from a new one", s.p.Name(), s.sub)
		}
	}
}

// TestStallLogBoundedByLiveWindow runs 100k faults with up to 256 transfers
// live at once, finished oldest first: the stall log must stay within a
// small multiple of the live window however many faults went by.
func TestStallLogBoundedByLiveWindow(t *testing.T) {
	const window = 256
	e := newTestEngine(Pipelined{}, 512)
	now := units.Ticks(0)
	var open []*Transfer
	longest := 0
	for i := 0; i < 100_000; i++ {
		tr := e.StartFault(now, memmodel.PageID(i), (i*264)&(units.PageSize-1))
		e.NoteStall(now, tr.FirstArrival, tr, true)
		now = tr.FirstArrival + units.Ticks(i%97)
		if i%3 == 0 {
			// A page wait on an older transfer still in flight.
			old := open[len(open)/2:]
			if len(old) > 0 && old[0].CompleteAt > now {
				e.NoteStall(now, old[0].CompleteAt, old[0], false)
				now = old[0].CompleteAt
			}
		}
		open = append(open, tr)
		if len(open) == window {
			e.FinishTransfer(open[0], now)
			open = append(open[:0], open[1:]...)
		}
		longest = max(longest, len(e.stallEnd))
	}
	// Each fault adds at most two stalls, and the log trims once it has
	// doubled since the last trim.
	if bound := 2*(2*window) + 64; longest > bound {
		t.Fatalf("stall log reached %d intervals over 100k faults, want <= %d", longest, bound)
	}
	if len(e.Live()) != window-1 {
		t.Fatalf("%d live transfers, want %d", len(e.Live()), window-1)
	}
}

func TestInvalidSubpagePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEngine with bad subpage size should panic")
		}
	}()
	NewEngine(netmodel.AN2ATM(), Eager{}, 100)
}
