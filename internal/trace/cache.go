package trace

import (
	"math"
	"math/bits"
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
// References are packed to 4 bytes (addr<<1 | store), and beside them sits
// the page-run index: the length of every maximal run of consecutive
// references to one page, in stream order. A run's page is its first
// reference's, so the index costs 4 bytes per page change (2–4 % of the
// references in the paper's apps) and lets a consumer that only cares when
// the page changes (sim's reference loop, the footprint) walk runs instead
// of references.
//
// The cache is admission-bounded by a byte budget: traces that would
// overflow the budget — or that do not pack: an address of 2³¹ or more —
// simply fall back to the generators, so output never depends on what got
// cached. Entries are immutable once synthesized, which is what makes
// sharing across worker goroutines safe.

// DefaultCacheBudget bounds the bytes the trace cache may retain. At the
// paper's full scale the five app traces pack, index included, to ~2.0 GiB
// (508 M references, 18 M runs): all five fit.
const DefaultCacheBudget int64 = 2 << 30

const (
	// maxPackedAddr is the largest address a packed reference can hold.
	maxPackedAddr = math.MaxUint32 >> 1
	// packedPages bounds the page numbers of a packed stream.
	packedPages = (maxPackedAddr + 1) / units.PageSize
	// refsPerRunEstimate sizes the index before the stream exists: the
	// paper's apps change page once per 23–55 references. The index can
	// never exceed one entry per reference, so an entry retains at most the
	// 8 bytes per reference the unindexed 8-byte packing used to.
	refsPerRunEstimate = 32
)

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
	packed   []uint32 // addr<<1|store, immutable after refsOnce
	runs     []uint32 // length of each maximal same-page run of packed, in order

	pagesOnce sync.Once
	touched   []uint64 // distinct pages ascending, immutable after pagesOnce
}

var traceCache = struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	bytes   int64
	budget  int64
}{entries: make(map[cacheKey]*cacheEntry), budget: DefaultCacheBudget}

// SetCacheBudget bounds the bytes of packed references the trace cache may
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
	Bytes   int64 // bytes retained: packed references and run indexes
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
	size := 4 * (a.totalRefs + a.totalRefs/refsPerRunEstimate)
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
	return e.packed != nil
}

// synthesize materializes the app's stream into e.packed and e.runs, or
// into neither when an address does not pack. Safe only inside e.refsOnce.
func (e *cacheEntry) synthesize(a *App) {
	packed := make([]uint32, 0, a.totalRefs)
	runs := make([]uint32, 0, a.totalRefs/refsPerRunEstimate)
	page := uint64(packedPages) // no packed reference is on this page
	buf := make([]Ref, 8192)
	rd := a.generatorReader()
	for {
		n := rd.Read(buf)
		if n == 0 {
			break
		}
		for _, ref := range buf[:n] {
			if ref.Addr > maxPackedAddr {
				e.recharge(0)
				return
			}
			if p := ref.Addr / units.PageSize; p != page {
				page = p
				runs = append(runs, 0)
			}
			runs[len(runs)-1]++
			packed = append(packed, pack(ref))
		}
	}
	e.packed, e.runs = packed, runs
	e.recharge(4 * int64(cap(packed)+cap(runs)))
}

func pack(ref Ref) uint32 {
	v := uint32(ref.Addr) << 1
	if ref.Store {
		v |= 1
	}
	return v
}

// Unpack decodes one reference of a NextRun slice.
func Unpack(v uint32) Ref { return Ref{Addr: uint64(v >> 1), Store: v&1 != 0} }

// packedReader replays a cached stream. Each reader has private position
// state; the packed slice and its index are shared and never written.
type packedReader struct {
	refs []uint32
	runs []uint32
	pos  int // next reference
	run  int // runs[:run] end at end
	end  int
}

func (p *packedReader) Read(buf []Ref) int {
	n := len(p.refs) - p.pos
	if n > len(buf) {
		n = len(buf)
	}
	for i, v := range p.refs[p.pos : p.pos+n] {
		buf[i] = Unpack(v)
	}
	p.pos += n
	return n
}

// NextRun returns the references from the reader's position to the end of
// the maximal same-page run that position is in — a whole run, unless a Read
// stopped inside it — as a sub-slice of the shared stream, packed (see
// Unpack), which the caller must not modify. It is empty only at end of
// trace. Read and NextRun may be mixed freely: both consume from the one
// position.
func (p *packedReader) NextRun() []uint32 {
	for p.end <= p.pos && p.run < len(p.runs) {
		p.end += int(p.runs[p.run])
		p.run++
	}
	refs := p.refs[p.pos:p.end]
	p.pos = p.end
	return refs
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

// touchedFromRuns collects the footprint from the run index: one look at the
// first reference of each run instead of a pass over every reference.
func (e *cacheEntry) touchedFromRuns() []uint64 {
	var seen [packedPages / 64]uint64
	pos := 0
	for _, n := range e.runs {
		page := Unpack(e.packed[pos]).Addr / units.PageSize
		seen[page/64] |= 1 << (page % 64)
		pos += int(n)
	}
	var out []uint64
	for i, w := range seen {
		for ; w != 0; w &= w - 1 {
			out = append(out, uint64(i*64+bits.TrailingZeros64(w)))
		}
	}
	return out
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
