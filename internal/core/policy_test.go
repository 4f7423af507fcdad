package core

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/units"
)

var allPolicies = []Policy{
	FullPage{}, Lazy{}, Eager{},
	Pipelined{}, Pipelined{DoubleFollowOn: true}, Pipelined{SoftwareDelivery: true},
	Pipelined{Neighbors: 2}, WideFault{}, NewPrefetcher(),
}

var testSubpageSizes = []int{256, 512, 1024, 2048, 4096}

// checkPlanInvariants verifies the properties every plan must satisfy.
func checkPlanInvariants(t *testing.T, p Policy, subpage, off int) {
	t.Helper()
	checkPlan(t, p.Name(), p.Plan(subpage, off), subpage, off)
}

// checkPlan verifies an already-produced plan (PlanPage plans included).
func checkPlan(t *testing.T, name string, plan []PlannedMessage, subpage, off int) {
	t.Helper()
	if len(plan) == 0 {
		t.Fatalf("%s: empty plan", name)
	}
	if !plan[0].Covers.Has(off) {
		t.Fatalf("%s(sub=%d, off=%d): first message does not cover the fault",
			name, subpage, off)
	}
	if !plan[0].Deliver {
		t.Fatalf("%s: first message must be CPU-delivered (it resumes the program)", name)
	}
	var union memmodel.Bitmap
	totalBytes := 0
	for i, m := range plan {
		if m.Bytes <= 0 || m.Bytes > units.PageSize {
			t.Fatalf("%s: message %d has %d bytes", name, i, m.Bytes)
		}
		if m.Covers == 0 {
			t.Fatalf("%s: message %d covers nothing", name, i)
		}
		if union&m.Covers != 0 {
			t.Fatalf("%s: message %d re-covers bits", name, i)
		}
		if want := m.Covers.Count() * units.MinSubpage; want != m.Bytes {
			t.Fatalf("%s: message %d has %d bytes but covers %d bytes",
				name, i, m.Bytes, want)
		}
		union |= m.Covers
		totalBytes += m.Bytes
	}
	if totalBytes > units.PageSize {
		t.Fatalf("%s: plan moves %d bytes > page size", name, totalBytes)
	}
}

func TestPlanInvariantsExhaustive(t *testing.T) {
	for _, p := range allPolicies {
		for _, sub := range testSubpageSizes {
			for off := 0; off < units.PageSize; off += 128 {
				checkPlanInvariants(t, p, sub, off)
			}
			// Edge offsets.
			for _, off := range []int{0, sub - 1, units.PageSize - 1} {
				checkPlanInvariants(t, p, sub, off)
			}
		}
	}
}

func TestFullPageCoversEverythingInOneMessage(t *testing.T) {
	plan := FullPage{}.Plan(1024, 5000)
	if len(plan) != 1 || !plan[0].Covers.Full() || plan[0].Bytes != units.PageSize {
		t.Fatalf("bad fullpage plan: %+v", plan)
	}
}

func TestLazyCoversExactlyOneSubpage(t *testing.T) {
	for _, sub := range testSubpageSizes {
		plan := Lazy{}.Plan(sub, sub+1) // inside subpage 1
		if len(plan) != 1 {
			t.Fatalf("lazy plan has %d messages", len(plan))
		}
		if plan[0].Bytes != sub {
			t.Fatalf("lazy bytes = %d, want %d", plan[0].Bytes, sub)
		}
		if plan[0].Covers != memmodel.MaskFor(sub, 1) {
			t.Fatalf("lazy covers %s", plan[0].Covers)
		}
	}
}

func TestEagerCoversWholePageInTwoMessages(t *testing.T) {
	for _, sub := range testSubpageSizes {
		plan := Eager{}.Plan(sub, 0)
		if len(plan) != 2 {
			t.Fatalf("eager(%d) plan has %d messages", sub, len(plan))
		}
		if plan[0].Bytes != sub || plan[1].Bytes != units.PageSize-sub {
			t.Fatalf("eager(%d) sizes: %d + %d", sub, plan[0].Bytes, plan[1].Bytes)
		}
		if plan[0].Covers|plan[1].Covers != memmodel.FullBitmap {
			t.Fatal("eager should cover the whole page")
		}
		if !plan[1].Deliver {
			t.Fatal("eager rest-of-page is a normal CPU-delivered message")
		}
	}
}

func TestEagerFullPageSizeDegenerates(t *testing.T) {
	plan := Eager{}.Plan(units.PageSize, 100)
	if len(plan) != 1 || plan[0].Bytes != units.PageSize {
		t.Fatalf("eager at 8K should degenerate to fullpage: %+v", plan)
	}
}

func TestPipelinedOrderAndDelivery(t *testing.T) {
	// Fault in subpage 3 of 8 (1K subpages): expect subpage 3, then +1
	// (4), then -1 (2), then the remainder, with follow-ons
	// controller-delivered.
	plan := Pipelined{}.Plan(1024, 3*1024+100)
	if len(plan) != 4 {
		t.Fatalf("plan has %d messages: %+v", len(plan), plan)
	}
	if plan[1].Covers != memmodel.MaskFor(1024, 4) {
		t.Fatalf("second message should be the +1 subpage, covers %s", plan[1].Covers)
	}
	if plan[2].Covers != memmodel.MaskFor(1024, 2) {
		t.Fatalf("third message should be the -1 subpage, covers %s", plan[2].Covers)
	}
	for i, m := range plan {
		wantDeliver := i == 0
		if m.Deliver != wantDeliver {
			t.Errorf("message %d Deliver = %v", i, m.Deliver)
		}
	}
	rest := plan[3]
	if rest.Bytes != units.PageSize-3*1024 {
		t.Errorf("remainder = %d bytes", rest.Bytes)
	}
}

func TestPipelinedAtPageEdges(t *testing.T) {
	// Fault in subpage 0: no -1 neighbour exists.
	plan := Pipelined{}.Plan(1024, 0)
	if len(plan) != 3 {
		t.Fatalf("edge plan has %d messages: %+v", len(plan), plan)
	}
	// Fault in last subpage: no +1 neighbour.
	plan = Pipelined{}.Plan(1024, units.PageSize-1)
	if len(plan) != 3 {
		t.Fatalf("edge plan has %d messages: %+v", len(plan), plan)
	}
}

func TestPipelinedDoubleFollowOn(t *testing.T) {
	// 512B subpages, fault in subpage 4: the +1 transfer is 1K (subpages
	// 5 and 6).
	plan := Pipelined{DoubleFollowOn: true}.Plan(512, 4*512)
	if plan[1].Bytes != 1024 {
		t.Fatalf("doubled follow-on = %d bytes, want 1024", plan[1].Bytes)
	}
	want := memmodel.MaskFor(512, 5) | memmodel.MaskFor(512, 6)
	if plan[1].Covers != want {
		t.Fatalf("doubled follow-on covers %s, want %s", plan[1].Covers, want)
	}
}

func TestPipelinedSoftwareDelivery(t *testing.T) {
	plan := Pipelined{SoftwareDelivery: true}.Plan(1024, 0)
	for i, m := range plan {
		if !m.Deliver {
			t.Errorf("software delivery: message %d should be CPU-delivered", i)
		}
	}
}

func TestPipelinedTwoNeighbors(t *testing.T) {
	plan := Pipelined{Neighbors: 2}.Plan(1024, 4*1024)
	// subpage 4, then 5, 3, 6, 2, rest.
	wantOrder := []int{4, 5, 3, 6, 2}
	if len(plan) != 6 {
		t.Fatalf("plan has %d messages", len(plan))
	}
	for i, idx := range wantOrder {
		if plan[i].Covers != memmodel.MaskFor(1024, idx) {
			t.Errorf("message %d covers %s, want subpage %d", i, plan[i].Covers, idx)
		}
	}
}

func TestWideFaultDirection(t *testing.T) {
	// Fault early in subpage 3 (a forward walk starts here) -> include
	// subpage 4.
	plan := WideFault{}.Plan(1024, 3*1024+10)
	want := memmodel.MaskFor(1024, 3) | memmodel.MaskFor(1024, 4)
	if plan[0].Covers != want {
		t.Fatalf("early fault: first covers %s, want %s", plan[0].Covers, want)
	}
	// Fault late in subpage 3 (landed mid-object) -> include subpage 2.
	plan = WideFault{}.Plan(1024, 3*1024+900)
	want = memmodel.MaskFor(1024, 3) | memmodel.MaskFor(1024, 2)
	if plan[0].Covers != want {
		t.Fatalf("late fault: first covers %s, want %s", plan[0].Covers, want)
	}
	if plan[0].Bytes != 2048 {
		t.Fatalf("initial transfer = %d bytes, want 2048", plan[0].Bytes)
	}
}

func TestWideFaultAtEdges(t *testing.T) {
	// Late fault in subpage 0 has no preceding neighbour.
	plan := WideFault{}.Plan(1024, 1000)
	if plan[0].Bytes != 1024 {
		t.Fatalf("edge initial = %d bytes, want 1024", plan[0].Bytes)
	}
	// Early fault in the last subpage has no following neighbour.
	plan = WideFault{}.Plan(1024, units.PageSize-1000)
	if plan[0].Bytes != 1024 {
		t.Fatalf("edge initial = %d bytes, want 1024", plan[0].Bytes)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"fullpage", "lazy", "eager", "pipelined", "widefault", "prefetch"} {
		p, err := ByName(name)
		if err != nil || p.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName(bogus) should fail")
	}
}

// The wire-policy table: every byte it holds resolves to a policy ByName
// also builds under the same name, names map back to their byte, and
// anything else — a simulator-only policy, a byte past the table — fails
// with the typed error rather than leaking through as a bogus byte.
func TestWirePolicyTable(t *testing.T) {
	for b, name := range []string{"fullpage", "lazy", "eager", "pipelined"} {
		p, err := WirePolicy(uint8(b))
		if err != nil || p.Name() != name {
			t.Fatalf("WirePolicy(%d) = %v, %v; want %s", b, p, err, name)
		}
		if q, err := ByName(name); err != nil || q != p {
			t.Errorf("ByName(%q) = %v, %v; want the table's %v", name, q, err, p)
		}
		if back, err := WireByte(name); err != nil || int(back) != b {
			t.Errorf("WireByte(%q) = %d, %v; want %d", name, back, err, b)
		}
	}
	if b, err := WireByte(""); err != nil || wirePolicies[b] != (Eager{}) {
		t.Errorf("the empty name should select eager: %d, %v", b, err)
	}
	var ue *UnknownPolicyError
	for _, name := range []string{"prefetch", "widefault", "pipelined-double", "bogus"} {
		if _, err := WireByte(name); !errors.As(err, &ue) {
			t.Errorf("WireByte(%q) error = %v, want *UnknownPolicyError", name, err)
		}
	}
	for _, b := range []uint8{uint8(len(wirePolicies)), 200, 255} {
		if _, err := WirePolicy(b); !errors.As(err, &ue) {
			t.Errorf("WirePolicy(%d) error = %v, want *UnknownPolicyError", b, err)
		}
	}
}

func TestPlanInvariantsQuick(t *testing.T) {
	f := func(polIdx, sizeIdx uint8, rawOff uint16) bool {
		p := allPolicies[int(polIdx)%len(allPolicies)]
		sub := testSubpageSizes[int(sizeIdx)%len(testSubpageSizes)]
		off := int(rawOff) % units.PageSize
		plan := p.Plan(sub, off)
		if len(plan) == 0 || !plan[0].Covers.Has(off) {
			return false
		}
		var union memmodel.Bitmap
		for _, m := range plan {
			if union&m.Covers != 0 {
				return false
			}
			union |= m.Covers
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// A plan is one slice, sized before it is filled: planning allocates once
// per fault whatever the policy, the subpage size or where in the page the
// fault lies — the live server plans every get, the simulator every fault.
func TestPlanAllocatesOnce(t *testing.T) {
	for _, p := range allPolicies {
		if _, stateful := p.(*Prefetcher); stateful {
			continue // its plans depend on the faults before them
		}
		for _, sub := range testSubpageSizes {
			for _, off := range []int{0, sub - 1, units.PageSize / 2, units.PageSize - 1} {
				if n := testing.AllocsPerRun(50, func() { _ = p.Plan(sub, off) }); n != 1 {
					t.Fatalf("%s.Plan(%d, %d) allocates %v times, want 1", p.Name(), sub, off, n)
				}
			}
		}
	}
}

// TestPlanConstantOverGranule: the Engine caches a stateless policy's plans
// by faultOff>>planShift, which is right only if every offset of a 128-byte
// granule gets the plan of the granule's first byte — for every stateless
// policy, subpage size and offset.
func TestPlanConstantOverGranule(t *testing.T) {
	for _, p := range allPolicies {
		if _, stateful := p.(StatefulPolicy); stateful {
			continue
		}
		for _, sub := range append(testSubpageSizes, units.PageSize) {
			for off := 0; off < units.PageSize; off++ {
				base := off &^ (1<<planShift - 1)
				if got, want := p.Plan(sub, off), p.Plan(sub, base); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s.Plan(%d, %d) = %+v, Plan(%d, %d) = %+v", p.Name(), sub, off, got, sub, base, want)
				}
			}
		}
	}
}
