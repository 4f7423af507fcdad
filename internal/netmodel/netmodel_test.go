package netmodel

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/gms-sim/gmsubpage/internal/units"
)

// Table 2 of the paper: page-fault latencies (ms) for eager fullpage fetch
// on the Alpha/AN2 prototype. The model must reproduce these within
// tolerance.
var paperTable2 = []struct {
	subpage int
	subMs   float64
	restMs  float64
}{
	{256, 0.45, 1.49},
	{512, 0.47, 1.46},
	{1024, 0.52, 1.38},
	{2048, 0.66, 1.25},
	{4096, 0.94, 1.23},
	{units.PageSize, 1.48, 1.48}, // full page: 1.48 ms
}

func TestCalibrationAgainstPaperTable2(t *testing.T) {
	p := AN2ATM()
	const tol = 0.08 // 8% relative error allowed
	for _, row := range paperTable2 {
		sub, rest := p.EagerLatencies(row.subpage)
		if rel := math.Abs(sub.Ms()-row.subMs) / row.subMs; rel > tol {
			t.Errorf("subpage %d: model subpage latency %.3f ms, paper %.2f ms (%.1f%% off)",
				row.subpage, sub.Ms(), row.subMs, rel*100)
		}
		if rel := math.Abs(rest.Ms()-row.restMs) / row.restMs; rel > tol {
			t.Errorf("subpage %d: model rest latency %.3f ms, paper %.2f ms (%.1f%% off)",
				row.subpage, rest.Ms(), row.restMs, rel*100)
		}
	}
}

func TestOneKilobyteFaultIsAThirdOfFullPage(t *testing.T) {
	// Abstract: "our prototype is able to satisfy a fault on a 1K subpage
	// stored in remote memory in 0.5 milliseconds, one third the time of a
	// full page."
	p := AN2ATM()
	sub, _ := p.EagerLatencies(1024)
	full := p.FetchLatency(units.PageSize)
	ratio := float64(sub) / float64(full)
	if ratio < 0.28 || ratio > 0.45 {
		t.Fatalf("1K/full ratio = %.2f, want roughly 1/3", ratio)
	}
}

func TestSenderPipeliningAnomalies(t *testing.T) {
	p := AN2ATM()
	// Splitting the page (4K first) completes the whole page sooner than
	// one 8K message (Table 2: 1.23 vs 1.48).
	_, rest4k := p.EagerLatencies(4096)
	full := p.FetchLatency(units.PageSize)
	if rest4k >= full {
		t.Errorf("4K-first rest %.3f ms should beat full page %.3f ms", rest4k.Ms(), full.Ms())
	}
	// The 1K case completes the total operation later than the 2K case
	// (Figure 2 discussion: the small first message leaves a wire gap).
	_, rest1k := p.EagerLatencies(1024)
	_, rest2k := p.EagerLatencies(2048)
	if rest1k <= rest2k {
		t.Errorf("1K rest %.3f ms should be later than 2K rest %.3f ms", rest1k.Ms(), rest2k.Ms())
	}
}

func TestSubpageLatencyMonotonicInSize(t *testing.T) {
	p := AN2ATM()
	prev := units.Nanos(0)
	for _, s := range []int{256, 512, 1024, 2048, 4096, 8192} {
		sub, _ := p.EagerLatencies(s)
		if sub <= prev {
			t.Errorf("subpage latency not increasing at %d: %v <= %v", s, sub, prev)
		}
		prev = sub
	}
}

func TestOverlapPotentialShape(t *testing.T) {
	p := AN2ATM()
	// Overlapped-execution potential shrinks as subpages grow; sender
	// pipelining gain grows (Table 2 columns).
	oePrev, spPrev := p.OverlapPotential(256)
	for _, s := range []int{512, 1024, 2048, 4096} {
		oe, sp := p.OverlapPotential(s)
		if oe > oePrev {
			t.Errorf("overlap potential should shrink with size: %v at %d > %v", oe, s, oePrev)
		}
		if sp < spPrev {
			t.Errorf("sender pipelining should grow with size: %v at %d < %v", sp, s, spPrev)
		}
		oePrev, spPrev = oe, sp
	}
	oe256, sp256 := p.OverlapPotential(256)
	if oe256 < 0.35 {
		t.Errorf("256B overlap potential %.2f, paper reports ~50%%", oe256)
	}
	if sp256 > 0.05 {
		t.Errorf("256B sender pipelining %.2f, paper reports ~0%%", sp256)
	}
}

func TestTransferArrivalsOrderedAndPositive(t *testing.T) {
	p := AN2ATM()
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 || len(sizes) > 16 {
			return true
		}
		msgs := make([]Message, len(sizes))
		for i, s := range sizes {
			msgs[i] = Message{Bytes: int(s%8192) + 1, Deliver: i%2 == 0}
		}
		arr := p.Transfer(0, nil, msgs)
		prevDMA := units.Nanos(0)
		for i, a := range arr {
			if a.At <= 0 || a.SrvEnd <= a.SrvStart || a.WireEnd <= a.SrvEnd || a.DMAEnd <= a.WireEnd {
				return false
			}
			if a.At < a.DMAEnd {
				return false
			}
			if a.DMAEnd <= prevDMA { // per-resource FIFO ordering
				return false
			}
			prevDMA = a.DMAEnd
			if i > 0 && a.SrvStart != arr[i-1].SrvEnd {
				return false // server DMA is back-to-back within a transfer
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMoreBytesNeverArriveEarlier(t *testing.T) {
	p := AN2ATM()
	prev := units.Nanos(0)
	for n := 256; n <= 8192; n += 256 {
		l := p.FetchLatency(n)
		if l <= prev {
			t.Fatalf("FetchLatency(%d) = %v not greater than FetchLatency(%d) = %v", n, l, n-256, prev)
		}
		prev = l
	}
}

func TestCongestionDelaysSecondTransfer(t *testing.T) {
	p := AN2ATM()
	var res Resources
	msg := []Message{{Bytes: 8192, Deliver: true}}
	first := p.Transfer(0, &res, msg)
	second := p.Transfer(0, &res, msg)
	if second[0].At <= first[0].At {
		t.Fatalf("concurrent transfer should queue: %v vs %v", second[0].At, first[0].At)
	}
	// But it should still beat two fully serialized transfers.
	serial := 2 * p.FetchLatency(8192)
	if second[0].At >= serial {
		t.Fatalf("overlapped transfers %v should beat serialized %v", second[0].At, serial)
	}
}

// TestAppendTransferReusesBuffer: the appending form schedules exactly what
// Transfer does, after whatever dst already holds, without allocating once
// dst has room.
func TestAppendTransferReusesBuffer(t *testing.T) {
	p := AN2ATM()
	msgs := []Message{{Bytes: 512, Deliver: true}, {Bytes: 512}, {Bytes: 7168, Deliver: true}}
	var r1, r2 Resources
	want := p.Transfer(100, &r1, msgs)
	dst := make([]Arrival, 1, 8)
	got := p.AppendTransfer(dst, 100, &r2, msgs)
	if len(got) != 1+len(msgs) || &got[0] != &dst[0] {
		t.Fatalf("AppendTransfer returned %d arrivals in a new array", len(got))
	}
	for i := range want {
		if got[1+i] != want[i] {
			t.Fatalf("arrival %d: %+v, want %+v", i, got[1+i], want[i])
		}
	}
	if r1 != r2 {
		t.Fatalf("resources %+v, want %+v", r2, r1)
	}
	if n := testing.AllocsPerRun(100, func() { dst = p.AppendTransfer(dst[:0], 0, &r2, msgs) }); n != 0 {
		t.Fatalf("AppendTransfer into a roomy buffer allocates %v objects", n)
	}
}

func TestIdleResourcesDoNotDelay(t *testing.T) {
	p := AN2ATM()
	var res Resources
	a := p.Transfer(0, &res, []Message{{Bytes: 1024, Deliver: true}})
	b := p.Transfer(0, nil, []Message{{Bytes: 1024, Deliver: true}})
	if a[0].At != b[0].At {
		t.Fatalf("fresh Resources should equal nil Resources: %v vs %v", a[0].At, b[0].At)
	}
}

func TestFigure1NetworkOrdering(t *testing.T) {
	atm := AN2ATM()
	eth := Ethernet10()
	loaded := LoadedEthernet10()
	// For an 8K page: ATM < Ethernet < loaded Ethernet.
	pageSizes := []int{1024, 4096, 8192}
	for _, n := range pageSizes {
		a, e, l := atm.FetchLatency(n), eth.FetchLatency(n), loaded.FetchLatency(n)
		if !(a < e && e < l) {
			t.Errorf("size %d: want ATM < Ethernet < loaded, got %.2f %.2f %.2f ms",
				n, a.Ms(), e.Ms(), l.Ms())
		}
	}
}

func TestPipelinedMessagesSkipDeliverCost(t *testing.T) {
	p := AN2ATM()
	withCPU := p.Transfer(0, nil, []Message{
		{Bytes: 1024, Deliver: true}, {Bytes: 1024, Deliver: true},
	})
	withCtrl := p.Transfer(0, nil, []Message{
		{Bytes: 1024, Deliver: true}, {Bytes: 1024, Deliver: false},
	})
	if withCtrl[1].At >= withCPU[1].At {
		t.Fatalf("controller delivery %v should beat CPU delivery %v",
			withCtrl[1].At, withCPU[1].At)
	}
}

func TestTimelineRendering(t *testing.T) {
	p := AN2ATM()
	spans := p.Timeline([]Message{
		{Bytes: 2048, Deliver: true},
		{Bytes: 6144, Deliver: true},
	})
	if len(spans) < 7 {
		t.Fatalf("expected request + per-message spans, got %d", len(spans))
	}
	out := RenderTimeline("2K eager", spans, 72)
	if !strings.Contains(out, "Wire") || !strings.Contains(out, "Srv-DMA") {
		t.Fatalf("timeline missing resources:\n%s", out)
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("span %v ends before start", s)
		}
	}
}

// TestTimelineRequestSpansTile pins the request-phase geometry: the
// fault+request, request-msg, and process-request spans must tile
// [0, p.Request] contiguously — no gap or overlap — even when Request
// is not divisible by 4, with the server span absorbing the remainder.
func TestTimelineRequestSpansTile(t *testing.T) {
	for _, request := range []units.Nanos{270000, 270001, 270002, 270003, 10, 7, 5, 4, 3} {
		p := AN2ATM()
		p.Request = request
		spans := p.Timeline([]Message{{Bytes: 1024, Deliver: true}})
		if len(spans) < 3 {
			t.Fatalf("Request=%d: expected at least 3 spans, got %d", request, len(spans))
		}
		req := spans[:3]
		if req[0].Start != 0 {
			t.Errorf("Request=%d: first span starts at %d, want 0", request, req[0].Start)
		}
		for i := 1; i < 3; i++ {
			if req[i].Start != req[i-1].End {
				t.Errorf("Request=%d: span %d starts at %d but span %d ends at %d",
					request, i, req[i].Start, i-1, req[i-1].End)
			}
		}
		if req[2].End != request {
			t.Errorf("Request=%d: last request span ends at %d, want %d",
				request, req[2].End, request)
		}
		// The intended split: half requester CPU, a quarter wire.
		if req[0].End != request/2 {
			t.Errorf("Request=%d: requester span ends at %d, want %d",
				request, req[0].End, request/2)
		}
		if got := req[1].End - req[1].Start; got != request/4 {
			t.Errorf("Request=%d: wire span is %d wide, want %d", request, got, request/4)
		}
	}
}

func TestStageCost(t *testing.T) {
	s := Stage{Fixed: 100, PerKiB: 1024}
	if got := s.Cost(0); got != 100 {
		t.Errorf("Cost(0) = %d", got)
	}
	if got := s.Cost(units.KiB); got != 100+1024 {
		t.Errorf("Cost(1KiB) = %d", got)
	}
	if got := s.Cost(512); got != 100+512 {
		t.Errorf("Cost(512) = %d", got)
	}
}
