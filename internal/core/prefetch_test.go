package core

import (
	"reflect"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/rng"

	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// feed records a sequence of (page, byte-offset) faults.
func feed(p *Prefetcher, faults [][2]int) {
	for _, f := range faults {
		p.Record(uint64(f[0]), f[1])
	}
}

// strideFaults builds a fault sequence walking positions by a fixed block
// stride from block position start, n faults long.
func strideFaults(start, strideBlocks, n int) [][2]int {
	out := make([][2]int, n)
	pos := start
	for i := range out {
		out[i] = [2]int{pos / units.ValidBitsPerPage,
			(pos % units.ValidBitsPerPage) * units.MinSubpage}
		pos += strideBlocks
	}
	return out
}

func TestPrefetcherColdStartFallsBack(t *testing.T) {
	p := NewPrefetcher()
	if plan := p.PlanPage(7, 1024, 3*1024); plan != nil {
		t.Fatalf("cold start has no history to plan from, got %+v", plan)
	}
	plan, want := p.Plan(1024, 3*1024), Pipelined{}.Plan(1024, 3*1024)
	if !reflect.DeepEqual(plan, want) {
		t.Fatalf("the fallback plan should be pipelined's:\n got %+v\nwant %+v", plan, want)
	}
	if p.Fallbacks != 1 || p.Confident != 0 {
		t.Fatalf("counters: fallbacks=%d confident=%d", p.Fallbacks, p.Confident)
	}
}

func TestPrefetcherLearnsInPageStride(t *testing.T) {
	p := NewPrefetcher()
	// Stride of 10 blocks (2.5 KB), like a strided array sweep. 16
	// faults make the trend unanimous at every vote window and leave the
	// next fault at the start of a page (block 160 = page 5, block 0).
	faults := strideFaults(0, 10, 16)
	feed(p, faults)
	// Next fault continues the walk: position of the 17th element.
	pos := 16 * 10
	page, off := pos/units.ValidBitsPerPage, (pos%units.ValidBitsPerPage)*units.MinSubpage
	mask, ok := p.Predict(uint64(page), 1024, off)
	if !ok {
		t.Fatal("unanimous stride history should predict")
	}
	// With a 1 KB subpage, predictions land at +10, +20 and +30 blocks
	// from the fault (the +40 step leaves the page).
	blk := pos % units.ValidBitsPerPage
	var want memmodel.Bitmap
	for _, d := range []int{10, 20, 30} {
		if blk+d < units.ValidBitsPerPage {
			want |= memmodel.MaskFor(1024, (blk+d)*units.MinSubpage/1024)
		}
	}
	want &^= memmodel.MaskFor(1024, off/1024)
	if mask != want {
		t.Fatalf("predicted %s, want %s (fault blk %d)", mask, want, blk)
	}

	plan := p.PlanPage(uint64(page), 1024, off)
	if len(plan) < 2 {
		t.Fatalf("confident plan should prefetch: %+v", plan)
	}
	checkPlan(t, "prefetch", plan, 1024, off)
	var got memmodel.Bitmap
	for _, m := range plan[1:] {
		if m.Deliver {
			t.Fatalf("prefetched subpages are controller-deposited: %+v", m)
		}
		got |= m.Covers
	}
	if got != mask {
		t.Fatalf("plan covers %s beyond the fault, Predict said %s", got, mask)
	}
	// No remainder message: everything not predicted stays unfetched.
	if all := plan[0].Covers | got; all == memmodel.FullBitmap {
		t.Fatal("a targeted prediction should not cover the whole page")
	}
}

func TestPrefetcherWholePageStrideFallsBack(t *testing.T) {
	p := NewPrefetcher()
	// Stride of exactly one page: every next position is off-page, so the
	// trend says nothing about the faulted page.
	feed(p, strideFaults(0, units.ValidBitsPerPage, 12))
	pos := 12 * units.ValidBitsPerPage
	if plan := p.PlanPage(uint64(pos/units.ValidBitsPerPage), 1024, 0); plan != nil {
		t.Fatalf("whole-page stride should fall back, got %+v", plan)
	}
	if p.Fallbacks != 1 || p.Confident != 0 {
		t.Fatalf("counters: fallbacks=%d confident=%d", p.Fallbacks, p.Confident)
	}
}

func TestPrefetcherNoMajorityFallsBack(t *testing.T) {
	p := NewPrefetcher()
	// Alternating +3/+7 deltas: no strict majority at any window size.
	pos := 0
	for i := 0; i < 20; i++ {
		p.Record(uint64(pos/units.ValidBitsPerPage),
			(pos%units.ValidBitsPerPage)*units.MinSubpage)
		if i%2 == 0 {
			pos += 3
		} else {
			pos += 7
		}
	}
	if _, ok := p.Predict(uint64(pos/units.ValidBitsPerPage), 1024,
		(pos%units.ValidBitsPerPage)*units.MinSubpage); ok {
		t.Fatal("alternating deltas must not produce a confident prediction")
	}
}

func TestPrefetcherConfidenceScalesWindow(t *testing.T) {
	// A unanimous ring predicts the full MaxPrefetch window; a bare
	// majority predicts a single stride.
	p := NewPrefetcher()
	p.MaxPrefetch = 3
	feed(p, strideFaults(0, 1, 20)) // unanimous +1 blocks
	mask, ok := p.Predict(0, 256, 0)
	if !ok {
		t.Fatal("unanimous history should predict")
	}
	if got := mask.Count(); got != 3 {
		t.Fatalf("unanimous vote should predict MaxPrefetch=3 subpages, got %d (%s)", got, mask)
	}

	// 5 of 8 recent deltas are +1 (the other 3 are +9): majority but far
	// from unanimous, so the window shrinks.
	p2 := NewPrefetcher()
	p2.MaxPrefetch = 3
	p2.MinSamples = 8
	pos := 0
	deltas := []int{1, 9, 1, 9, 1, 9, 1, 1, 1}
	for _, d := range deltas {
		p2.Record(uint64(pos/units.ValidBitsPerPage),
			(pos%units.ValidBitsPerPage)*units.MinSubpage)
		pos += d
	}
	mask, ok = p2.Predict(0, 256, 0)
	if !ok {
		t.Fatal("5/8 majority should predict")
	}
	if got := mask.Count(); got >= 3 {
		t.Fatalf("a slim majority should predict a smaller window, got %d subpages", got)
	}
}

func TestPrefetcherGroupsIsolateStreams(t *testing.T) {
	p := NewPrefetcher() // GroupShift 4: pages 0-15 vs 1000+ are distinct groups
	feed(p, strideFaults(0, 10, 12))
	// A page in a far-away group has no history: no prediction.
	if _, ok := p.Predict(1000, 1024, 0); ok {
		t.Fatal("an untouched group must not inherit another group's trend")
	}
}

func TestPrefetcherGroupBoundEvictsOldest(t *testing.T) {
	p := NewPrefetcher()
	p.MaxGroups = 8
	p.GroupShift = 0
	// Every page walks a unanimous stride of 4 blocks from block 0, so a
	// tracked page predicts at block 20 and an evicted one cannot.
	for page := 0; page < 100; page++ {
		feed(p, strideFaults(page*units.ValidBitsPerPage, 4, 5))
	}
	tracked := func(page int) bool {
		_, ok := p.Predict(uint64(page), 1024, 20*units.MinSubpage)
		return ok
	}
	for page := 0; page < 100; page++ {
		if want := page >= 92; tracked(page) != want {
			t.Fatalf("page %d tracked=%v, want %v: the 8 newest groups and only they survive",
				page, !want, want)
		}
	}
	// A group made again starts with no history.
	p.Record(0, 0)
	if tracked(0) {
		t.Fatal("an evicted group came back with its old history")
	}
	if tracked(92) || !tracked(93) {
		t.Fatal("making a group should evict exactly the oldest one")
	}
}

// TestPrefetcherPlanPageInvariants drives random fault streams through the
// stateful planner and checks every emitted plan against the same
// invariants the stateless policies satisfy.
func TestPrefetcherPlanPageInvariants(t *testing.T) {
	rnd := rng.New(42)
	for trial := 0; trial < 50; trial++ {
		p := NewPrefetcher()
		sub := testSubpageSizes[rnd.Intn(len(testSubpageSizes))]
		stride := rnd.Intn(65) - 32 // block stride in [-32, 32]
		pos := rnd.Intn(64 * units.ValidBitsPerPage)
		for i := 0; i < 200; i++ {
			if rnd.Intn(4) == 0 { // noise: jump somewhere else
				pos = rnd.Intn(64 * units.ValidBitsPerPage)
			} else {
				pos += stride
				if pos < 0 {
					pos += 64 * units.ValidBitsPerPage
				}
			}
			page := uint64(pos / units.ValidBitsPerPage)
			off := (pos % units.ValidBitsPerPage) * units.MinSubpage
			p.Record(page, off)
			plan := p.PlanPage(page, sub, off)
			if plan == nil {
				plan = p.Plan(sub, off)
			}
			checkPlan(t, "prefetch", plan, sub, off)
		}
	}
}

// TestPrefetcherDeterministic pins that two prefetchers fed the same
// stream plan identically (no map-order or clock dependence).
func TestPrefetcherDeterministic(t *testing.T) {
	mk := func() []([]PlannedMessage) {
		p := NewPrefetcher()
		rnd := rng.New(7)
		var plans [][]PlannedMessage
		for i := 0; i < 500; i++ {
			pos := rnd.Intn(256 * units.ValidBitsPerPage)
			page := uint64(pos / units.ValidBitsPerPage)
			off := (pos % units.ValidBitsPerPage) * units.MinSubpage
			p.Record(page, off)
			// A plan is only valid until the next PlanPage: keep a copy.
			plans = append(plans, append([]PlannedMessage(nil), p.PlanPage(page, 1024, off)...))
		}
		return plans
	}
	if !reflect.DeepEqual(mk(), mk()) {
		t.Fatal("identical fault streams must produce identical plans")
	}
}

func TestPrefetcherFullPageSubpageDegenerates(t *testing.T) {
	p := NewPrefetcher()
	feed(p, strideFaults(0, 1, 12))
	if plan := p.PlanPage(0, units.PageSize, 100); plan != nil {
		t.Fatalf("an 8K subpage leaves nothing to predict in the page, got %+v", plan)
	}
	plan := p.Plan(units.PageSize, 100)
	if len(plan) != 1 || plan[0].Bytes != units.PageSize {
		t.Fatalf("8K subpage should degenerate to fullpage: %+v", plan)
	}
}
