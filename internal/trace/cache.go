package trace

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"github.com/gms-sim/gmsubpage/internal/units"
)

// The trace cache memoizes synthesized reference streams so a parallel
// experiment sweep synthesizes each app × scale trace once and shares it —
// read-only — across every simulation cell, instead of regenerating it per
// run (each sim.Run otherwise replays the generators twice: once for the
// warm-cache footprint scan and once for the reference loop).
//
// The memo is a page-run index and the references' in-page offsets. The
// index holds every maximal run of consecutive references to one page, in
// stream order, as the run's page, its length and the 256 B blocks its
// references touch (12 bytes per page change: 2–4 % of the references in the
// paper's apps); each reference is packed to 2 bytes, offset<<1 | store. A
// consumer that only cares when the page changes, or which blocks a run needs
// (sim's reference loop, the footprint), reads the index alone and decodes a
// run's references only when it needs them.
//
// The cache is admission-bounded by a byte budget: traces that would
// overflow the budget — or that do not pack: a page of 2³² or more — simply
// fall back to the generators, so output never depends on what got cached.
// Entries are immutable once synthesized, which is what makes sharing across
// worker goroutines safe.

// DefaultCacheBudget bounds the bytes the trace cache may retain. At the
// paper's full scale the five app traces pack, index included, to 1.15 GiB
// (1,231,225,788 B: 507.5 M references, 18.0 M runs): all five fit.
const DefaultCacheBudget int64 = 2 << 30

const (
	// packedPages bounds the page numbers of a packed stream: a run's page
	// is 32 bits.
	packedPages = 1 << 32
	// refsPerRunEstimate sizes the index before the stream exists: the
	// paper's apps change page once per 23–55 references.
	refsPerRunEstimate = 32
)

// A packed reference's offset<<1 | store must fit its 16 bits.
const _ uint16 = 2*units.PageSize - 1

// pageRun is one entry of the page-run index.
type pageRun struct {
	page   uint32 // Addr / units.PageSize of every reference in the run
	n      uint32 // references in the run, at least 1
	blocks uint32 // OR of Block over the run's references
}

// runBytes is what the index retains per run.
const runBytes = 12

// cacheKey identifies one synthesized stream. Scale is not stored on App,
// but (name, seed, pages, refs) uniquely determine the generated stream.
type cacheKey struct {
	name  string
	seed  uint64
	pages int
	refs  int64
}

type cacheEntry struct {
	admitted bool  // the estimated size fit the budget at admission time
	charged  int64 // bytes this entry holds of traceCache.bytes; guarded by traceCache.mu

	refsOnce sync.Once
	offs     []uint16  // offset<<1|store of every reference, immutable after refsOnce
	runs     []pageRun // each maximal same-page run of offs, in order

	pagesOnce sync.Once
	touched   []uint64 // distinct pages ascending, immutable after pagesOnce
}

var traceCache = struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	bytes   int64
	budget  int64
}{entries: make(map[cacheKey]*cacheEntry), budget: DefaultCacheBudget}

// SetCacheBudget bounds the bytes of packed streams the trace cache may
// hold; 0 disables caching of reference streams (footprints are still
// memoized). Already-cached entries are kept. Returns the previous budget.
func SetCacheBudget(n int64) int64 {
	traceCache.mu.Lock()
	defer traceCache.mu.Unlock()
	prev := traceCache.budget
	traceCache.budget = n
	return prev
}

// CacheStats reports the trace cache's occupancy.
type CacheStats struct {
	Entries int   // streams admitted
	Bytes   int64 // bytes retained: 2 per reference and 12 per page run
	Budget  int64
}

// CacheUsage returns the current cache occupancy.
func CacheUsage() CacheStats {
	traceCache.mu.Lock()
	defer traceCache.mu.Unlock()
	n := 0
	for _, e := range traceCache.entries {
		if e.charged > 0 {
			n++
		}
	}
	return CacheStats{Entries: n, Bytes: traceCache.bytes, Budget: traceCache.budget}
}

// resetCache drops every entry (tests only).
func resetCache() {
	traceCache.mu.Lock()
	defer traceCache.mu.Unlock()
	traceCache.entries = make(map[cacheKey]*cacheEntry)
	traceCache.bytes = 0
}

// cacheFor returns the app's cache entry, admitting its estimated size
// against the budget on first sight. Run lengths are 32-bit, so a stream of
// 2³² references or more is not admitted.
func cacheFor(a *App) *cacheEntry {
	key := cacheKey{name: a.Name, seed: a.Seed, pages: a.TotalPages, refs: a.totalRefs}
	traceCache.mu.Lock()
	defer traceCache.mu.Unlock()
	if e, ok := traceCache.entries[key]; ok {
		return e
	}
	e := &cacheEntry{}
	size := 2*a.totalRefs + runBytes*(a.totalRefs/refsPerRunEstimate)
	if a.totalRefs > 0 && a.totalRefs <= math.MaxUint32 && traceCache.bytes+size <= traceCache.budget {
		e.admitted = true
		e.charged = size
		traceCache.bytes += size
	}
	traceCache.entries[key] = e
	return e
}

// recharge replaces the entry's admission estimate with what it retains.
func (e *cacheEntry) recharge(size int64) {
	traceCache.mu.Lock()
	defer traceCache.mu.Unlock()
	traceCache.bytes += size - e.charged
	e.charged = size
}

// memoized reports whether the entry holds the app's stream, synthesizing
// it on first use.
func (e *cacheEntry) memoized(a *App) bool {
	if e.admitted {
		e.refsOnce.Do(func() { e.synthesize(a) })
	}
	return e.offs != nil
}

// synthesize materializes the app's stream into e.offs and e.runs, or into
// neither when a page does not pack. Safe only inside e.refsOnce.
func (e *cacheEntry) synthesize(a *App) {
	offs := make([]uint16, a.totalRefs)
	runs := make([]pageRun, 0, a.totalRefs/refsPerRunEstimate)
	page := uint64(math.MaxUint64) // no reference is on this page
	start, blocks := 0, uint32(0)  // the current run's first reference and its blocks
	buf := make([]Ref, 1024)
	rd := a.generatorReader()
	for i, k := 0, rd.Read(buf); k > 0; i, k = i+k, rd.Read(buf) {
		refs, out := buf[:k], offs[i:i+k]
		for j := 0; j < k; {
			if p := refs[j].Addr / units.PageSize; p != page {
				if p >= packedPages {
					e.recharge(0)
					return
				}
				if i+j > start {
					runs = append(runs, pageRun{page: uint32(page), n: uint32(i + j - start), blocks: blocks})
				}
				page, start, blocks = p, i+j, 0
			}
			// Pack up to the next page change; this loop makes no call, so
			// its state stays in registers.
			base := page * units.PageSize
			for ; j < k; j++ {
				off := refs[j].Addr - base
				if off >= units.PageSize {
					break
				}
				v := uint16(off)<<1 | store(refs[j])
				blocks |= Block(v)
				out[j] = v
			}
		}
	}
	runs = append(runs, pageRun{page: uint32(page), n: uint32(len(offs) - start), blocks: blocks})
	e.offs, e.runs = offs, exact(runs)
	e.recharge(2*int64(len(e.offs)) + runBytes*int64(len(e.runs)))
}

func store(ref Ref) uint16 {
	if ref.Store {
		return 1
	}
	return 0
}

// exact returns s in an allocation of its length: a slice grown by append
// keeps up to a quarter more than it holds, for as long as it lives.
func exact[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// Unpack decodes one reference of a NextRun run on the given page.
func Unpack(page uint64, v uint16) Ref {
	return Ref{Addr: page*units.PageSize + uint64(v>>1), Store: v&1 != 0}
}

// Block returns the valid bit (memmodel.BlockMask) of the 256 B block a
// packed reference touches. The index is below ValidBitsPerPage already; the
// modulus tells the compiler so, which spares the shift its range check.
func Block(v uint16) uint32 { return 1 << (v >> 1 / units.MinSubpage % units.ValidBitsPerPage) }

// packedReader replays a cached stream. Each reader has private position
// state; the offsets and their index are shared and never written.
type packedReader struct {
	offs []uint16
	runs []pageRun
	pos  int    // next reference
	run  int    // runs[:run] end at end
	end  int    // end of the run pos is in; pos == end at a run boundary
	page uint64 // page of runs[run-1]
}

// enter moves to the next run when the reader is at a run boundary. It
// reports false at end of trace.
func (p *packedReader) enter() bool {
	if p.pos < p.end {
		return true
	}
	if p.run == len(p.runs) {
		return false
	}
	r := p.runs[p.run]
	p.run++
	p.page, p.end = uint64(r.page), p.end+int(r.n)
	return true
}

// Read decodes a run at a time, each from its page's base address.
func (p *packedReader) Read(buf []Ref) int {
	n := 0
	for n < len(buf) && p.enter() {
		src := p.offs[p.pos:min(p.end, p.pos+len(buf)-n)]
		dst := buf[n : n+len(src)]
		base := p.page * units.PageSize
		for i, v := range src {
			dst[i] = Ref{Addr: base + uint64(v>>1), Store: v&1 != 0}
		}
		n += len(src)
		p.pos += len(src)
	}
	return n
}

// NextRun returns the page and the packed references (see Unpack) from the
// reader's position to the end of the maximal same-page run that position is
// in — a whole run, unless a Read stopped inside it — and the blocks they
// touch (the OR of Block over offs), from the index for a whole run. The
// references are a sub-slice of the shared stream, which the caller must not
// modify; they are empty only at end of trace. Read and NextRun may be mixed
// freely: both consume from the one position.
func (p *packedReader) NextRun() (page uint64, offs []uint16, blocks uint32) {
	if !p.enter() {
		return 0, nil, 0
	}
	r := &p.runs[p.run-1]
	offs = p.offs[p.pos:p.end]
	if p.pos == p.end-int(r.n) {
		blocks = r.blocks
	} else {
		for _, v := range offs {
			blocks |= Block(v)
		}
	}
	p.pos = p.end
	return p.page, offs, blocks
}

// TouchedPages returns the distinct page numbers (Addr / units.PageSize)
// the app's trace references, in ascending order — the warm-cache preload
// set. The result is memoized per app × scale and shared: callers must not
// modify it.
func TouchedPages(a *App) []uint64 {
	e := cacheFor(a)
	e.pagesOnce.Do(func() {
		if e.memoized(a) {
			e.touched = e.touchedFromRuns()
		} else {
			e.touched = scanTouched(a.generatorReader())
		}
	})
	return e.touched
}

// touchedFromRuns collects the footprint from the run index alone: a bitmap
// over the pages' span when that is no bigger than the index, a sort of the
// run pages otherwise.
func (e *cacheEntry) touchedFromRuns() []uint64 {
	lo, hi := e.runs[0].page, e.runs[0].page
	for _, r := range e.runs {
		lo, hi = min(lo, r.page), max(hi, r.page)
	}
	var out []uint64
	if words := int(hi-lo)/64 + 1; words <= len(e.runs) {
		seen := make([]uint64, words)
		for _, r := range e.runs {
			seen[(r.page-lo)/64] |= 1 << ((r.page - lo) % 64)
		}
		for i, w := range seen {
			for ; w != 0; w &= w - 1 {
				out = append(out, uint64(lo)+uint64(i*64+bits.TrailingZeros64(w)))
			}
		}
		return out
	}
	for _, r := range e.runs {
		out = append(out, uint64(r.page))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// scanTouched reads a stream to the end and collects its footprint.
func scanTouched(rd Reader) []uint64 {
	pages := make(map[uint64]struct{})
	buf := make([]Ref, 8192)
	for {
		n := rd.Read(buf)
		if n == 0 {
			break
		}
		for _, ref := range buf[:n] {
			pages[ref.Addr/units.PageSize] = struct{}{}
		}
	}
	out := make([]uint64, 0, len(pages))
	for p := range pages {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
