package core

import (
	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// StatefulPolicy is a Policy whose plans depend on observed fault history.
// The engine feeds it every fault via Record and asks for page-aware plans
// via PlanPage; the embedded stateless Plan remains the history-free
// fallback so a StatefulPolicy is still usable anywhere a Policy is.
type StatefulPolicy interface {
	Policy
	// Record feeds one observed fault (page number and byte offset within
	// the page) into the policy's history. The engine calls it exactly
	// once per fault, before PlanPage.
	Record(page uint64, faultOff int)
	// PlanPage plans the messages for a fault on a specific page, using
	// whatever history Record has accumulated, or returns nil when the
	// history implies nothing for this fault: the caller then plans it
	// with Plan. The same contract as Policy.Plan applies to a plan: the
	// first message covers faultOff and is CPU-delivered, and the caller
	// must not modify it. A plan is valid until the next PlanPage.
	PlanPage(page uint64, subpageSize, faultOff int) []PlannedMessage
}

// Prefetcher is a Leap-style online prefetch policy (PAPERS.md,
// "Effectively Prefetching Remote Memory with Leap"): instead of the
// paper's hardcoded +1/−1 pipeline window, it detects the majority trend
// (stride) in the recent fault history of each page group with a
// Boyer–Moore majority vote over a fixed-size delta ring, and prefetches a
// confidence-scaled window of subpages along that stride. Below the
// confidence threshold — or when the detected stride carries no
// information about the faulted page (it jumps straight out of it) — it
// falls back to the paper's Pipelined planning, so the +1-dominated
// workloads of Figure 7 see exactly the baseline behaviour.
//
// Everything is integer arithmetic over fault offsets, so simulation
// results stay deterministic; positions are tracked in MinSubpage blocks
// (the prototype's 256-byte valid-bit granularity), making the detector
// independent of the configured subpage size.
type Prefetcher struct {
	// GroupShift is log2 of the pages per history group (default 4:
	// 16-page / 128 KB groups). Grouping keeps interleaved streams from
	// different regions out of each other's delta history.
	GroupShift uint
	// MinSamples is the smallest delta window the majority vote runs on
	// (default 4); fewer observed deltas always fall back.
	MinSamples int
	// MaxPrefetch caps the predicted window in subpages per fault
	// (default 4). The emitted window scales with vote confidence.
	MaxPrefetch int
	// MaxGroups bounds the tracked groups (default 1024), read at the
	// first Record; the oldest group is evicted first, deterministically.
	MaxGroups int

	// slab holds the group histories, MaxGroups of them, allocated by the
	// first Record. The n-th group made takes slab[n % MaxGroups], evicting
	// the group there: the oldest. index finds a group id's slot, and last
	// is the slot found or made last, so a fault's Record and PlanPage look
	// its group up once.
	//
	// index is open-addressed, as memmodel.PageTable is: a power-of-two
	// table at least twice the slab's size, Fibonacci hashing, linear
	// probing and backward-shift deletion. An entry is a slot number plus
	// one, 0 when empty; the id it is found by is its slot's.
	slab  []groupHist
	index []int32
	shift uint // 64 - log2(len(index))
	made  int
	last  int

	// idxs and plan are the buffers predict and PlanPage return.
	idxs []int
	plan []PlannedMessage

	// Confident / Fallbacks count how PlanPage decided, for reporting.
	Confident int64
	Fallbacks int64
}

// histLen is the per-group delta ring size: the largest window the vote
// reads. A power of two, so a ring index wraps with a mask.
const histLen = 16

// groupHist is one page group's recent fault history: a ring of deltas
// between consecutive fault positions, in MinSubpage blocks.
type groupHist struct {
	id     uint64
	last   int64 // the latest fault position
	next   int   // ring slot of the next delta
	n      int   // deltas held, at most histLen
	deltas [histLen]int64
}

// NewPrefetcher returns a Prefetcher with the default parameters.
func NewPrefetcher() *Prefetcher {
	return &Prefetcher{
		GroupShift:  4,
		MinSamples:  4,
		MaxPrefetch: 4,
		MaxGroups:   1024,
	}
}

// Name implements Policy.
func (p *Prefetcher) Name() string { return "prefetch" }

// Plan implements Policy: with no page identity there is no usable
// history, so the stateless call is always the fallback plan, the paper's
// Pipelined.
func (p *Prefetcher) Plan(subpageSize, faultOff int) []PlannedMessage {
	return Pipelined{}.Plan(subpageSize, faultOff)
}

// Record implements StatefulPolicy: append the delta from the previous
// fault position in the page's group to the group's ring.
func (p *Prefetcher) Record(page uint64, faultOff int) {
	pos := int64(page)*int64(units.ValidBitsPerPage) + int64(faultOff/units.MinSubpage)
	id := page >> p.GroupShift
	s := p.find(id)
	if s < 0 {
		s = p.newGroup(id)
		p.slab[s].last = pos
		return
	}
	g := &p.slab[s]
	g.deltas[g.next] = pos - g.last
	g.next = (g.next + 1) & (histLen - 1)
	if g.n < histLen {
		g.n++
	}
	g.last = pos
}

func (p *Prefetcher) minSamples() int {
	if p.MinSamples > 0 {
		return p.MinSamples
	}
	return 4
}

func (p *Prefetcher) maxPrefetch() int {
	if p.MaxPrefetch > 0 {
		return p.MaxPrefetch
	}
	return 4
}

// find returns the slot of group id, or -1 when it is not tracked.
func (p *Prefetcher) find(id uint64) int {
	if p.slab == nil {
		return -1
	}
	if p.slab[p.last].id == id {
		return p.last
	}
	i, ok := p.probe(id)
	if !ok {
		return -1
	}
	p.last = int(p.index[i] - 1)
	return p.last
}

// home is the index entry group id's probe starts at (Fibonacci hashing).
func (p *Prefetcher) home(id uint64) int { return int(id * 0x9e3779b97f4a7c15 >> p.shift) }

// probe returns the index entry of group id, or the empty entry that ends
// its probe when the group is not tracked.
func (p *Prefetcher) probe(id uint64) (int, bool) {
	mask := len(p.index) - 1
	for i := p.home(id); ; i = (i + 1) & mask {
		if v := p.index[i]; v == 0 || p.slab[v-1].id == id {
			return i, v != 0
		}
	}
}

// unindex empties index entry i by backward shift: each later entry of the
// probe cluster moves into the hole when the hole lies on its probe path.
func (p *Prefetcher) unindex(i int) {
	mask := len(p.index) - 1
	for j := (i + 1) & mask; p.index[j] != 0; j = (j + 1) & mask {
		if h := p.home(p.slab[p.index[j]-1].id); (j-h)&mask >= (j-i)&mask {
			p.index[i] = p.index[j]
			i = j
		}
	}
	p.index[i] = 0
}

// newGroup makes an empty history for group id in the next slot, evicting
// the group there once every slot has been used, and returns the slot.
func (p *Prefetcher) newGroup(id uint64) int {
	if p.slab == nil {
		max := p.MaxGroups
		if max <= 0 {
			max = 1024
		}
		p.slab = make([]groupHist, max)
		bits := 1
		for 1<<bits < 2*max {
			bits++
		}
		p.index, p.shift = make([]int32, 1<<bits), uint(64-bits)
	}
	s := p.made % len(p.slab)
	if p.made >= len(p.slab) {
		i, _ := p.probe(p.slab[s].id)
		p.unindex(i)
	}
	p.made++
	p.slab[s] = groupHist{id: id}
	i, _ := p.probe(id)
	p.index[i] = int32(s + 1)
	p.last = s
	return s
}

// trend runs the Leap majority vote on a group: starting from the smallest
// window (MinSamples) and doubling up to the full ring, find the first
// window whose most recent deltas have a strict majority element. It
// returns that stride plus the vote count and window size (the confidence
// ratio count/w), or ok=false when no window has a majority.
func (g *groupHist) trend(minSamples int) (stride int64, count, w int, ok bool) {
	for w = minSamples; ; w *= 2 {
		if w > g.n {
			w = g.n
		}
		if w < minSamples {
			return 0, 0, 0, false
		}
		if stride, count = g.vote(w); 2*count > w {
			return stride, count, w, true
		}
		if w == g.n {
			return 0, 0, 0, false
		}
	}
}

// vote returns the Boyer–Moore majority candidate over the w most recent
// deltas and, from one verifying scan, its true count. A strict majority,
// when there is one, is the candidate whatever order the deltas are read in,
// so both scans walk the ring oldest first; and it leaves the candidate a
// lead, so with none left there is no majority to count.
func (g *groupHist) vote(w int) (cand int64, count int) {
	lead := 0
	for i := g.next - w; i < g.next; i++ {
		d := g.deltas[i&(histLen-1)]
		switch {
		case lead == 0:
			cand, lead = d, 1
		case d == cand:
			lead++
		default:
			lead--
		}
	}
	if lead == 0 {
		return cand, 0
	}
	for i := g.next - w; i < g.next; i++ {
		if g.deltas[i&(histLen-1)] == cand {
			count++
		}
	}
	return cand, count
}

// Predict returns the predicted subpage mask for a fault at faultOff of
// page — the confidence-scaled stride window, excluding the faulted
// subpage itself — and whether the group's history supports a confident
// in-page prediction. It does not modify history.
func (p *Prefetcher) Predict(page uint64, subpageSize, faultOff int) (memmodel.Bitmap, bool) {
	idxs, _, ok := p.predict(page, subpageSize, faultOff)
	if !ok {
		return 0, false
	}
	var mask memmodel.Bitmap
	for _, idx := range idxs {
		mask |= memmodel.MaskFor(subpageSize, idx)
	}
	return mask, true
}

// predict computes the predicted subpage indices in stride order (nearest
// along the trend first, deduplicated, excluding the faulted subpage),
// plus the detected block stride. The indices are valid until the next
// predict.
func (p *Prefetcher) predict(page uint64, subpageSize, faultOff int) ([]int, int64, bool) {
	s := p.find(page >> p.GroupShift)
	if s < 0 {
		return nil, 0, false
	}
	stride, count, w, ok := p.slab[s].trend(p.minSamples())
	if !ok || stride == 0 {
		return nil, 0, false
	}
	// Scale the window with how decisive the vote was: a bare majority
	// prefetches one stride ahead, a unanimous ring the full MaxPrefetch.
	max := p.maxPrefetch()
	k := max * (2*count - w) / w
	if k < 1 {
		k = 1
	}
	blocksPerPage := int64(units.ValidBitsPerPage)
	pos := int64(page)*blocksPerPage + int64(faultOff/units.MinSubpage)
	faultIdx := memmodel.SubpageIndex(subpageSize, faultOff)
	idxs := p.idxs[:0]
	var seen memmodel.Bitmap
	for i := 1; i <= k; i++ {
		q := pos + stride*int64(i)
		if q < 0 || q/blocksPerPage != int64(page) {
			// The trend leaves the page: nothing further on this page is
			// implied by the history.
			break
		}
		blk := int(q % blocksPerPage)
		idx := memmodel.SubpageIndex(subpageSize, blk*units.MinSubpage)
		if idx == faultIdx {
			continue
		}
		m := memmodel.MaskFor(subpageSize, idx)
		if seen&m != 0 {
			continue
		}
		seen |= m
		idxs = append(idxs, idx)
	}
	p.idxs = idxs
	if len(idxs) == 0 {
		// A confident trend that predicts nothing on this page (e.g. a
		// whole-page stride) is not a within-page prediction.
		return nil, 0, false
	}
	return idxs, stride, true
}

// PlanPage implements StatefulPolicy: the faulted subpage first, then each
// predicted subpage as a controller-deposited pipelined message, in stride
// order. A dense trend — a stride no larger than one subpage, meaning the
// program is walking contiguously and will reach the whole page — keeps
// the paper's remainder message after the window, exactly as Pipelined
// does; a sparse trend (a real stride that skips subpages) trims it, and
// the bandwidth the prediction saves is the point: unpredicted subpages
// fault in lazily if the trend was wrong. Without a confident in-page
// prediction it returns nil, and the fault gets the fallback, Plan.
func (p *Prefetcher) PlanPage(page uint64, subpageSize, faultOff int) []PlannedMessage {
	if subpageSize >= units.PageSize {
		return nil
	}
	idxs, stride, ok := p.predict(page, subpageSize, faultOff)
	if !ok {
		p.Fallbacks++
		return nil
	}
	p.Confident++
	idx := memmodel.SubpageIndex(subpageSize, faultOff)
	first := memmodel.MaskFor(subpageSize, idx)
	msgs := append(p.plan[:0], PlannedMessage{Bytes: subpageSize, Deliver: true, Covers: first})
	covered := first
	for _, j := range idxs {
		m := memmodel.MaskFor(subpageSize, j)
		msgs = append(msgs, PlannedMessage{Bytes: subpageSize, Deliver: false, Covers: m})
		covered |= m
	}
	bps := int64(subpageSize / units.MinSubpage)
	dense := stride >= -bps && stride <= bps
	if dense {
		if rest := memmodel.FullBitmap &^ covered; rest != 0 {
			msgs = append(msgs, PlannedMessage{
				Bytes:   rest.Count() * units.MinSubpage,
				Deliver: false,
				Covers:  rest,
			})
		}
	}
	p.plan = msgs
	return msgs
}
