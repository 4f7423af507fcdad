package core

import (
	"testing"
	"testing/quick"

	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/netmodel"
	"github.com/gms-sim/gmsubpage/internal/rng"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// Property tests over the fault engine: random interleavings of faults
// must preserve the structural invariants the simulator relies on.

func TestQuickTransfersAlwaysCoverFault(t *testing.T) {
	f := func(polIdx, sizeIdx uint8, rawOff uint16, rawNow uint32) bool {
		p := allPolicies[int(polIdx)%len(allPolicies)]
		sub := testSubpageSizes[int(sizeIdx)%len(testSubpageSizes)]
		off := int(rawOff) % units.PageSize
		now := units.Ticks(rawNow)
		e := NewEngine(netmodel.AN2ATM(), p, sub)
		tr := e.StartFault(now, 1, off)
		// The faulted byte is always covered, and arrives first.
		at, ok := tr.ArrivalCovering(off)
		if !ok || at != tr.FirstArrival {
			return false
		}
		// Arrivals are strictly after issue and complete no earlier
		// than the first arrival.
		return tr.FirstArrival > now && tr.CompleteAt >= tr.FirstArrival
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickApplyArrivedConvergesToCovered(t *testing.T) {
	f := func(polIdx, sizeIdx uint8, rawOff uint16) bool {
		p := allPolicies[int(polIdx)%len(allPolicies)]
		sub := testSubpageSizes[int(sizeIdx)%len(testSubpageSizes)]
		off := int(rawOff) % units.PageSize
		e := NewEngine(netmodel.AN2ATM(), p, sub)
		tr := e.StartFault(0, 1, off)
		covered := tr.Covered()
		// Applying at CompleteAt yields exactly the covered bits, once.
		got := tr.ApplyArrived(tr.CompleteAt)
		if got != covered || !tr.Done() {
			return false
		}
		return tr.ApplyArrived(tr.CompleteAt+1) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickConcurrentFaultsFIFOPerEngine(t *testing.T) {
	// Issuing faults in time order on a shared engine must produce
	// non-decreasing first arrivals (the network link is FIFO).
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 || len(offsets) > 24 {
			return true
		}
		e := NewEngine(netmodel.AN2ATM(), Eager{}, 1024)
		now := units.Ticks(0)
		prevArrival := units.Ticks(0)
		for i, raw := range offsets {
			tr := e.StartFault(now, memmodel.PageID(i), int(raw)%units.PageSize)
			if tr.FirstArrival < prevArrival {
				return false
			}
			prevArrival = tr.FirstArrival
			now += units.Ticks(raw % 1000)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// fullStallLog is the overlap attribution of an engine that never trims its
// stall log: every interval is kept and every query scans them all. It is
// the oracle the trimmed log is held to.
type fullStallLog struct {
	from, to               []units.Ticks
	ioOverlap, compOverlap units.Ticks
}

func (l *fullStallLog) note(from, to units.Ticks) {
	if to > from {
		l.from = append(l.from, from)
		l.to = append(l.to, to)
	}
}

// finish attributes a transfer's window, read from the transfer before the
// engine under test recycles it.
func (l *fullStallLog) finish(tr *Transfer, now units.Ticks) {
	a, b := tr.FirstArrival, min(tr.CompleteAt, now)
	if b <= a {
		return
	}
	var stalled units.Ticks
	for i := range l.from {
		if lo, hi := max(l.from[i], a), min(l.to[i], b); hi > lo {
			stalled += hi - lo
		}
	}
	stalled = min(stalled, b-a)
	l.ioOverlap += max(stalled-tr.PageWait, 0)
	l.compOverlap += b - a - stalled
}

// TestQuickStallLogMatchesUntrimmed drives an engine with long random
// interleavings of faults, initial stalls, page waits on any live transfer,
// execution and out-of-order finishes, and holds its overlap attribution to
// an untrimmed log's. The program's clock only moves forward and runs to the
// end of every stall, as in the simulator.
func TestQuickStallLogMatchesUntrimmed(t *testing.T) {
	f := func(seed uint64, polIdx, sizeIdx uint8, rawOps uint16) bool {
		p := allPolicies[int(polIdx)%len(allPolicies)]
		if _, ok := p.(StatefulPolicy); ok {
			p = NewPrefetcher() // history must not leak between cases
		}
		sub := testSubpageSizes[int(sizeIdx)%len(testSubpageSizes)]
		e := NewEngine(netmodel.AN2ATM(), p, sub)
		var ref fullStallLog
		r := rng.New(seed)
		now := units.Ticks(0)
		stall := func(to units.Ticks, tr *Transfer, initial bool) {
			e.NoteStall(now, to, tr, initial)
			ref.note(now, to)
			now = max(now, to)
		}
		finish := func(tr *Transfer) {
			ref.finish(tr, now)
			e.FinishTransfer(tr, now)
		}
		for i := 0; i < 500+int(rawOps)%3000; i++ {
			live := e.Live()
			switch k := r.Intn(8); {
			case k < 3 || len(live) == 0:
				tr := e.StartFault(now, memmodel.PageID(r.Intn(64)), r.Intn(units.PageSize))
				if r.Intn(8) != 0 {
					stall(tr.FirstArrival, tr, true)
				}
			case k < 5:
				tr := live[r.Intn(len(live))]
				if at, ok := tr.ArrivalCovering(r.Intn(units.PageSize)); ok && at > now {
					stall(at, tr, false)
				} else {
					stall(tr.CompleteAt, tr, false)
				}
			case k < 6:
				now += units.Ticks(r.Intn(20_000))
			default:
				finish(live[r.Intn(len(live))])
			}
		}
		for live := e.Live(); len(live) > 0; live = e.Live() {
			finish(live[0])
		}
		return e.IOOverlap == ref.ioOverlap && e.CompOverlap == ref.compOverlap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOverlapNeverNegative(t *testing.T) {
	f := func(gaps []uint16) bool {
		if len(gaps) == 0 || len(gaps) > 16 {
			return true
		}
		e := NewEngine(netmodel.AN2ATM(), Eager{}, 1024)
		now := units.Ticks(0)
		var open []*Transfer
		for i, g := range gaps {
			tr := e.StartFault(now, memmodel.PageID(i), 0)
			e.NoteStall(now, tr.FirstArrival, tr, true)
			now = tr.FirstArrival + units.Ticks(g)
			open = append(open, tr)
		}
		for _, tr := range open {
			e.FinishTransfer(tr, now+1_000_000)
		}
		return e.IOOverlap >= 0 && e.CompOverlap >= 0 &&
			e.IOOverlapShare() >= 0 && e.IOOverlapShare() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
