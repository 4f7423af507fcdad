package core

import (
	"sort"

	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/netmodel"
	"github.com/gms-sim/gmsubpage/internal/obs"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// Transfer is one in-flight remote fetch: the messages planned by the
// policy plus their scheduled arrival times on the simulator clock.
//
// A transfer is dead once passed to Engine.FinishTransfer: the engine
// recycles it for a later fault, so the owner reads what it needs first and
// drops every reference to it.
type Transfer struct {
	Page     memmodel.PageID
	FaultIdx int // subpage index of the faulted word

	// FirstArrival is when the faulted subpage is usable and the program
	// resumes; CompleteAt is when the last message lands.
	Started      units.Ticks
	FirstArrival units.Ticks
	CompleteAt   units.Ticks

	// PageWait accumulates stalls on this page after the program first
	// resumed (waits for not-yet-arrived subpages).
	PageWait units.Ticks

	covers   []memmodel.Bitmap
	arrivals []units.Ticks
	next     units.Ticks     // earliest arrival not yet applied; 0 once none is left
	demand   memmodel.Bitmap // the faulted subpage's blocks
	pending  int             // messages not yet applied to the frame
	traceID  int64           // span id in the engine's tracer; 0 when untraced
	slot     int             // index in the engine's live list; -1 once finished
}

// Demand returns the blocks of the faulted subpage — the part of the
// transfer the program demanded, as opposed to what the policy chose to
// send speculatively alongside it.
func (t *Transfer) Demand() memmodel.Bitmap { return t.demand }

// TraceID returns the transfer's span id in the engine's tracer (0 when
// tracing is disabled). The runner uses it to reclassify or cancel spans.
func (t *Transfer) TraceID() int64 { return t.traceID }

// ArrivalCovering returns when the byte at offset off becomes valid, and
// false if no planned message covers it (lazy fetch).
func (t *Transfer) ArrivalCovering(off int) (units.Ticks, bool) {
	best := units.Ticks(0)
	found := false
	for i, c := range t.covers {
		if !c.Has(off) {
			continue
		}
		if !found || t.arrivals[i] < best {
			best = t.arrivals[i]
			found = true
		}
	}
	return best, found
}

// ApplyArrived returns the valid bits of all messages that have landed by
// now and marks them applied. Done reports completion afterwards.
func (t *Transfer) ApplyArrived(now units.Ticks) memmodel.Bitmap {
	if debugEnabled {
		debugAssert(t.slot >= 0, "ApplyArrived on a finished transfer")
	}
	if now < t.next {
		return 0 // nothing has landed since the last call
	}
	var got memmodel.Bitmap
	t.next = 0
	for i, at := range t.arrivals {
		switch {
		case at == 0: // already applied
		case at <= now:
			got |= t.covers[i]
			t.arrivals[i] = 0
			t.pending--
		case t.next == 0 || at < t.next:
			t.next = at
		}
	}
	return got
}

// Done reports whether every message has been applied.
func (t *Transfer) Done() bool { return t.pending == 0 }

// Covered returns the union of all planned valid bits (what the transfer
// will eventually deliver).
func (t *Transfer) Covered() memmodel.Bitmap {
	var all memmodel.Bitmap
	for _, c := range t.covers {
		all |= c
	}
	return all
}

// Engine schedules fault transfers for one faulting node, models contention
// on its network resources, and attributes overlap benefit.
type Engine struct {
	net     *netmodel.Params
	policy  Policy
	sp      StatefulPolicy // policy, when it keeps history; else nil
	subpage int
	res     netmodel.Resources

	// Stall bookkeeping for overlap attribution: the disjoint, ordered
	// stall intervals of the (serial) program, with a prefix sum of
	// durations for O(log n) window queries. Only intervals a live
	// transfer's window can reach are kept (see trimStalls).
	stallStart []units.Ticks
	stallEnd   []units.Ticks
	stallSum   []units.Ticks // stallSum[i] = total stall before interval i
	cumStall   units.Ticks
	trimAt     int // log length at which NoteStall next trims

	// live holds the unfinished transfers, each at its slot; free holds
	// finished ones for reuse. msgs and arr are StartFault's scratch.
	live []*Transfer
	free []*Transfer
	msgs []netmodel.Message
	arr  []netmodel.Arrival

	// plans is the table of the policy's stateless Plan: every fault's plan
	// for a stateless policy, the fallback's for a stateful one. tables
	// keeps the table of every built-in policy value and subpage size the
	// engine has run, for Reset to take up again. Only those are kept, so
	// there are no more than the configurations run.
	plans  *planTable
	tables []*planTable

	// Aggregate overlap attribution (see FinishTransfer).
	IOOverlap   units.Ticks
	CompOverlap units.Ticks
	Faults      int64
	BytesMoved  int64

	// PrefetchIssued counts the MinSubpage blocks transferred beyond each
	// fault's demanded subpage — the speculative part of every plan,
	// whatever the policy (an eager remainder and a stride prediction both
	// count). The runner pairs it with the used-block count to report
	// prefetch accuracy.
	PrefetchIssued int64

	// trace, when non-nil, records every fault's anatomy (transfer plan,
	// stall re-entries, close-out attribution) on the event clock.
	trace *obs.SimTrace
}

// NewEngine returns an engine for the given network, policy and subpage
// size. SubpageSize must be a valid subpage size.
func NewEngine(net *netmodel.Params, policy Policy, subpageSize int) *Engine {
	if !units.ValidSubpageSize(subpageSize) {
		panic("core: invalid subpage size")
	}
	e := &Engine{net: net, policy: policy, subpage: subpageSize}
	e.sp, _ = policy.(StatefulPolicy)
	e.plans = e.planTable()
	return e
}

// planTable holds a policy's stateless plans at one subpage size by
// faultOff>>planShift, each made on the first fault in its granule: Policy
// lets a plan depend on the offset no more finely.
type planTable struct {
	policy  Policy
	subpage int
	plans   [units.PageSize >> planShift][]PlannedMessage
}

// Reset readies the engine for a new run, as NewEngine(net, policy,
// subpageSize) would, keeping what it has allocated: recycled transfers,
// scratch, the stall log's capacity and the plans of built-in policies.
// Transfers still live are recycled; the owner must hold none.
func (e *Engine) Reset(net *netmodel.Params, policy Policy, subpageSize int) {
	if !units.ValidSubpageSize(subpageSize) {
		panic("core: invalid subpage size")
	}
	for _, t := range e.live {
		t.slot = -1
		e.free = append(e.free, t)
	}
	old := *e
	*e = Engine{
		net: net, policy: policy, subpage: subpageSize,
		stallStart: old.stallStart[:0], stallEnd: old.stallEnd[:0], stallSum: old.stallSum[:0],
		live: old.live[:0], free: old.free, msgs: old.msgs[:0], arr: old.arr[:0],
		tables: old.tables,
	}
	e.sp, _ = policy.(StatefulPolicy)
	e.plans = e.planTable()
}

// planTable returns the table for the engine's policy and subpage size: a
// kept one when the policy is a built-in stateless value the engine has run
// at this size, else a new one, kept if the policy is built in.
func (e *Engine) planTable() *planTable {
	builtin := false
	switch e.policy.(type) {
	case FullPage, Lazy, Eager, Pipelined, WideFault: // comparable values
		builtin = true
		for _, t := range e.tables {
			if t.subpage == e.subpage && t.policy == e.policy {
				return t
			}
		}
	}
	t := &planTable{policy: e.policy, subpage: e.subpage}
	if builtin {
		e.tables = append(e.tables, t)
	}
	return t
}

// SubpageSize returns the configured subpage size.
func (e *Engine) SubpageSize() int { return e.subpage }

// Policy returns the configured policy.
func (e *Engine) Policy() Policy { return e.policy }

// SetTrace attaches a fault tracer. A nil tracer (the default) disables
// tracing; the only residual cost is one nil check per hook.
func (e *Engine) SetTrace(t *obs.SimTrace) { e.trace = t }

// StartFault plans and schedules the transfer for a fault at byte offset
// faultOff of page, issued at time now. The returned transfer's
// FirstArrival is when the program may resume; it stays live until
// FinishTransfer. now must not precede the end of a stall already noted:
// the program does not fault while it is stalled.
func (e *Engine) StartFault(now units.Ticks, page memmodel.PageID, faultOff int) *Transfer {
	if debugEnabled && len(e.stallEnd) > 0 {
		debugAssert(now >= e.stallEnd[len(e.stallEnd)-1], "fault issued inside a recorded stall")
	}
	var plan []PlannedMessage
	if e.sp != nil {
		e.sp.Record(uint64(page), faultOff)
		plan = e.sp.PlanPage(uint64(page), e.subpage, faultOff)
	}
	if plan == nil {
		if plan = e.plans.plans[faultOff>>planShift]; plan == nil {
			plan = e.policy.Plan(e.subpage, faultOff)
			e.plans.plans[faultOff>>planShift] = plan
		}
	}
	e.msgs = e.msgs[:0]
	for _, m := range plan {
		e.msgs = append(e.msgs, netmodel.Message{Bytes: m.Bytes, Deliver: m.Deliver})
		e.BytesMoved += int64(m.Bytes)
	}
	e.arr = e.net.AppendTransfer(e.arr[:0], now.ToNanos(), &e.res, e.msgs)

	t := e.newTransfer()
	t.Page = page
	t.FaultIdx = memmodel.SubpageIndex(e.subpage, faultOff)
	t.Started = now
	t.pending = len(plan)
	for i := range plan {
		t.covers = append(t.covers, plan[i].Covers)
		at := e.arr[i].At.ToTicks()
		if at <= now {
			at = now + 1 // a transfer is never free on the event clock
		}
		t.arrivals = append(t.arrivals, at)
		if t.next == 0 || at < t.next {
			t.next = at
		}
		if at > t.CompleteAt {
			t.CompleteAt = at
		}
	}
	t.FirstArrival = t.arrivals[0]
	t.demand = memmodel.MaskFor(e.subpage, t.FaultIdx)
	e.PrefetchIssued += int64((t.Covered() &^ t.demand).Count())
	if debugEnabled {
		e.checkTransferInvariants(t, plan, now, faultOff)
	}
	if e.trace != nil {
		tmsgs := make([]obs.TraceMsg, len(plan))
		for i := range plan {
			tmsgs[i] = obs.TraceMsg{At: t.arrivals[i], Bytes: plan[i].Bytes, Deliver: plan[i].Deliver}
		}
		t.traceID = e.trace.BeginTransfer(uint64(page), t.FaultIdx, now, t.FirstArrival, t.CompleteAt, tmsgs)
	}
	e.Faults++
	return t
}

// newTransfer returns a cleared transfer at the end of the live list,
// reusing a finished one (and its slices' capacity) when there is one.
func (e *Engine) newTransfer() *Transfer {
	var t *Transfer
	if n := len(e.free); n > 0 {
		t = e.free[n-1]
		e.free = e.free[:n-1]
		*t = Transfer{covers: t.covers[:0], arrivals: t.arrivals[:0]}
	} else {
		t = &Transfer{}
	}
	t.slot = len(e.live)
	e.live = append(e.live, t)
	return t
}

// Live returns the unfinished transfers. FinishTransfer moves the last one
// into the slot it empties, so the order is that of an append-only list
// with swap-removal. The slice is only valid until the next StartFault or
// FinishTransfer.
func (e *Engine) Live() []*Transfer { return e.live }

// RecordUse feeds a stateful policy the first demand touch of a block that
// arrived speculatively. Faults alone under-represent the access pattern
// once prefetching works — a correct prediction suppresses the fault that
// would have recorded it — so the owner reports consumed prefetches here
// and the history tracks the demand stream, not the (policy-dependent)
// fault stream. No-op for stateless policies.
func (e *Engine) RecordUse(page memmodel.PageID, off int) {
	if e.sp != nil {
		e.sp.Record(uint64(page), off)
	}
}

// Stateful reports whether the engine's policy keeps fault history (and
// therefore needs prefetch-usage tracking to see the full demand stream).
func (e *Engine) Stateful() bool { return e.sp != nil }

// checkTransferInvariants verifies, under -tags gmsdebug, the properties
// every planned transfer must satisfy. Arrivals are monotone only within a
// delivery class: Deliver=true messages serialize on the receiving CPU,
// Deliver=false deposits on the controller's DMA engine, and the two
// streams may interleave freely on the global clock.
func (e *Engine) checkTransferInvariants(t *Transfer, plan []PlannedMessage, now units.Ticks, faultOff int) {
	debugAssert(len(plan) > 0, "transfer plan is empty")
	debugAssert(plan[0].Deliver, "first planned message is not CPU-delivered")
	debugAssert(t.covers[0].Has(faultOff),
		"first planned message does not cover the faulted subpage")
	var lastCPU, lastDMA units.Ticks
	for i := range plan {
		debugAssert(t.arrivals[i] > now, "message arrival not after fault issue")
		if plan[i].Deliver {
			debugAssert(t.arrivals[i] >= lastCPU, "CPU-delivered arrivals out of order")
			debugAssert(t.arrivals[i] >= t.FirstArrival,
				"faulted subpage does not arrive first among CPU deliveries")
			lastCPU = t.arrivals[i]
		} else {
			debugAssert(t.arrivals[i] >= lastDMA, "controller-deposit arrivals out of order")
			lastDMA = t.arrivals[i]
		}
	}
}

// NoteStall records that the program stalled from 'from' to 'to' waiting
// for an arrival of tr. initial marks the resume-from-fault stall (the
// subpage latency); later stalls are page waits and are charged to the
// transfer for overlap accounting.
func (e *Engine) NoteStall(from, to units.Ticks, tr *Transfer, initial bool) {
	if to <= from {
		return
	}
	if debugEnabled && len(e.stallEnd) > 0 {
		debugAssert(from >= e.stallEnd[len(e.stallEnd)-1],
			"stall interval overlaps an earlier one (double-counted stall time)")
	}
	d := to - from
	e.stallStart = append(e.stallStart, from)
	e.stallEnd = append(e.stallEnd, to)
	e.stallSum = append(e.stallSum, e.cumStall)
	e.cumStall += d
	if len(e.stallEnd) >= e.trimAt+64 {
		e.trimStalls()
	}
	if !initial && tr != nil {
		tr.PageWait += d
	}
	if e.trace != nil && tr != nil {
		e.trace.Stall(tr.traceID, from, to, initial)
	}
}

// trimStalls drops the stall intervals that end by the time the oldest live
// transfer started. No query can reach them: FinishTransfer asks about
// [FirstArrival, ...] of a live transfer, and FirstArrival > Started. A
// transfer started later starts no earlier than every recorded stall ends
// (the program does not run while it stalls), so with nothing live the
// whole log goes. Trimming again only once the log has doubled keeps the
// scan of the live list amortized O(1) per stall, and the log O(stalls in
// the live window) rather than O(faults).
func (e *Engine) trimStalls() {
	n := len(e.stallEnd)
	cut := n
	if len(e.live) > 0 {
		oldest := e.live[0].Started
		for _, t := range e.live[1:] {
			oldest = min(oldest, t.Started)
		}
		cut = sort.Search(n, func(k int) bool { return e.stallEnd[k] > oldest })
	}
	if cut > 0 {
		// The prefix sums stay as they are: queries only take differences.
		e.stallStart = e.stallStart[:copy(e.stallStart, e.stallStart[cut:])]
		e.stallEnd = e.stallEnd[:copy(e.stallEnd, e.stallEnd[cut:])]
		e.stallSum = e.stallSum[:copy(e.stallSum, e.stallSum[cut:])]
	}
	e.trimAt = 2 * len(e.stallEnd)
}

// stallBetween returns the exact stall time within [a, b]. Stalls are
// disjoint and appended in time order, so the overlapping run is a
// contiguous range of intervals.
func (e *Engine) stallBetween(a, b units.Ticks) units.Ticks {
	if b <= a || len(e.stallStart) == 0 {
		return 0
	}
	// First interval ending after a; last interval starting before b.
	i := sort.Search(len(e.stallEnd), func(k int) bool { return e.stallEnd[k] > a })
	j := sort.Search(len(e.stallStart), func(k int) bool { return e.stallStart[k] >= b }) - 1
	if i > j {
		return 0
	}
	// Total duration of intervals i..j, then clip the two edges.
	total := e.stallSum[j] + (e.stallEnd[j] - e.stallStart[j]) - e.stallSum[i]
	if e.stallStart[i] < a {
		total -= a - e.stallStart[i]
	}
	if e.stallEnd[j] > b {
		total -= e.stallEnd[j] - b
	}
	return total
}

// FinishTransfer attributes the transfer's asynchronous window — the time
// between program resumption and full-page arrival — to its three possible
// uses: waiting on this page (no benefit; already in tr.PageWait), waiting
// on other pages' transfers (overlapped I/O), and executing (overlapped
// computation). Call it when the simulation clock has passed
// tr.CompleteAt, or at end of trace with the final clock value. The
// transfer is dead afterwards: the engine reuses it for a later fault.
func (e *Engine) FinishTransfer(tr *Transfer, now units.Ticks) {
	if debugEnabled {
		debugAssert(tr.slot >= 0 && tr.slot < len(e.live) && e.live[tr.slot] == tr,
			"FinishTransfer of a transfer that is not live (finished twice?)")
	}
	var stalled, overlapped units.Ticks
	if a, b := tr.FirstArrival, min(tr.CompleteAt, now); b > a {
		window := b - a
		stalled = min(e.stallBetween(a, b), window)
		e.IOOverlap += max(stalled-tr.PageWait, 0)
		overlapped = window - stalled
		e.CompOverlap += overlapped
	}
	if e.trace != nil {
		e.trace.EndTransfer(tr.traceID, now, stalled, overlapped)
	}

	last := e.live[len(e.live)-1]
	last.slot = tr.slot
	e.live[tr.slot] = last
	e.live[len(e.live)-1] = nil
	e.live = e.live[:len(e.live)-1]
	tr.slot = -1
	e.free = append(e.free, tr)
}

// IOOverlapShare returns the fraction of overlap benefit attributable to
// overlapped I/O rather than overlapped computation (Figure 9's companion
// measurement), or 0 when there was no overlap at all.
func (e *Engine) IOOverlapShare() float64 {
	total := e.IOOverlap + e.CompOverlap
	if total == 0 {
		return 0
	}
	return float64(e.IOOverlap) / float64(total)
}
