package trace

import (
	"github.com/gms-sim/gmsubpage/internal/rng"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// Region is a contiguous range of virtual pages.
type Region struct {
	Base  uint64 // byte address of the first page; page aligned
	Pages int
}

// Bytes returns the region size in bytes.
func (r Region) Bytes() uint64 { return uint64(r.Pages) * units.PageSize }

// End returns the first byte past the region.
func (r Region) End() uint64 { return r.Base + r.Bytes() }

// Seq walks a region sequentially with a fixed stride, wrapping at the end.
// With strides much smaller than a subpage it produces the paper's dominant
// +1 next-subpage distance.
type Seq struct {
	Region Region
	Stride uint64 // bytes between references; 0 means 8
	// StoreEvery makes every k-th reference a store (0 disables stores).
	StoreEvery int

	off   uint64
	count int // references since the last store, mod StoreEvery
}

// Fill implements Pattern. It makes no draws.
func (s *Seq) Fill(_ *rng.Rand, dst []Ref) {
	stride := s.Stride
	if stride == 0 {
		stride = 8
	}
	for i := range dst {
		dst[i] = Ref{Addr: s.Region.Base + s.off}
		s.off += stride
		if s.off >= s.Region.Bytes() {
			s.off = 0
		}
	}
	markStores(dst, s.StoreEvery, &s.count)
}

// markStores marks every k-th reference a store, counting on from *count
// references since the last store, and advances *count past dst (mod k). A
// k of 0 or less marks none.
func markStores(dst []Ref, k int, count *int) {
	if k <= 0 {
		return
	}
	for i := k - 1 - *count; i < len(dst); i += k {
		dst[i].Store = true
	}
	*count = (*count + len(dst)) % k
}

// WorkingSet models pointer-heavy computation over a region: it picks a
// page (zipf-skewed so some pages are hot), then performs a geometric-length
// sequential run within that page from a random start. Runs inside a page
// give spatial locality; page switches give the fault stream.
type WorkingSet struct {
	Region Region
	// Skew is the zipf exponent over pages (0 means uniform).
	Skew float64
	// MeanRun is the mean number of references per within-page run.
	MeanRun int
	// RunStride is the stride within a run (default 8).
	RunStride uint64
	// StoreFrac is the probability a reference is a store.
	StoreFrac float64

	zipf    *rng.Zipf
	page    int
	off     uint64
	left    int
	started bool
}

// Fill implements Pattern. A run's start draws its page, its offset and its
// length; every reference draws its store bit, even at StoreFrac 0.
func (w *WorkingSet) Fill(r *rng.Rand, dst []Ref) {
	if !w.started {
		if w.Skew > 0 {
			w.zipf = rng.NewZipf(w.Region.Pages, w.Skew)
		}
		w.started = true
	}
	stride := w.RunStride
	if stride == 0 {
		stride = 8
	}
	storeT := rng.Threshold(w.StoreFrac)
	for len(dst) > 0 {
		if w.left <= 0 {
			if w.zipf != nil {
				w.page = w.zipf.Sample(r)
			} else {
				w.page = r.Intn(w.Region.Pages)
			}
			w.off = uint64(r.Intn(units.PageSize))
			mean := w.MeanRun
			if mean < 1 {
				mean = 16
			}
			w.left = 1 + r.Geometric(1/float64(mean))
		}
		run := dst[:min(w.left, len(dst))]
		base := w.Region.Base + uint64(w.page)*units.PageSize
		off := w.off
		for i := range run {
			run[i] = Ref{Addr: base + off, Store: r.Below(storeT)}
			off += stride
			if off >= units.PageSize {
				off = 0 // wrap within the page
			}
		}
		w.off = off
		w.left -= len(run)
		dst = dst[len(run):]
	}
}

// Sweep models streaming passes over a region with the within-page
// temporal structure real programs exhibit: each *visit* to a page touches
// only a small neighbourhood (VisitBytes, by default 1 KiB) for VisitRefs
// references, then the sweep moves to the next page. When the whole region
// has been visited, the next subsweep begins, revisiting every page one
// VisitBytes-window further in.
//
// This produces the paper's observed behaviour:
//   - the first touch of a page stays near the faulted word, so the rest
//     of the page can arrive asynchronously (eager fullpage fetch wins);
//   - the first *different* subpage access is the next consecutive one
//     (Figure 7's dominant +1 distance), but it happens a full region
//     cycle later;
//   - small VisitRefs values make faults arrive in tight bursts (gdb,
//     phase changes), large values make them smooth (Atom);
//   - a region larger than memory faults every page once per subsweep
//     under LRU (the scan pathology), so capacity misses are bounded and
//     tunable as subsweeps x pages.
type Sweep struct {
	Region Region
	// VisitRefs is the number of references per page visit (default 128).
	VisitRefs int
	// FirstVisitRefs, when positive, overrides VisitRefs during the
	// first subsweep: a slow initial read pass followed by fast
	// re-sweeps, which spreads first-touch faults over the run while
	// keeping later passes cheap (Atom's access shape).
	FirstVisitRefs int
	// VisitBytes is the neighbourhood a visit touches (default 1 KiB).
	VisitBytes int
	// Stride is the distance between consecutive references in a visit
	// (default 8).
	Stride uint64
	// StoreEvery makes every k-th reference a store (0 disables stores).
	StoreEvery int
	// CrossFrac is the probability that a visit runs *dense*: it spans
	// two VisitBytes windows instead of one, immediately touching the
	// next subpage after a fault. Dense visits are the paper's
	// worst-case faults (Figure 5's upper-left segment): the program
	// blocks for the rest of the page unless a pipelined neighbour
	// subpage rescues it. Input-reading passes are denser than
	// revisiting passes.
	CrossFrac float64

	page     int
	subsweep int
	off      uint64 // a sparse visit's offset within its window
	done     int    // references of the current visit so far
	count    int    // references since the last store, mod StoreEvery
	crossing bool
	target   uint64 // window base the dense second half lands in
	started  bool
}

// rollVisit decides whether the visit starting now is dense and, if so,
// which second window it touches. The direction split follows Figure 7's
// next-subpage distance distribution: mostly the next consecutive window,
// sometimes the previous, and a substantial tail elsewhere in the page
// (which pipelined +1/-1 subpages cannot rescue).
func (s *Sweep) rollVisit(r *rng.Rand, base, visitBytes uint64) {
	s.crossing = r.Bool(s.CrossFrac)
	if !s.crossing {
		return
	}
	windows := uint64(units.PageSize) / visitBytes
	u := r.Float64()
	switch {
	case u < 0.50: // next consecutive window
		s.target = (base + visitBytes) % units.PageSize
	case u < 0.60: // previous window
		s.target = (base + units.PageSize - visitBytes) % units.PageSize
	default: // somewhere else in the page
		s.target = uint64(r.Intn(int(windows))) * visitBytes
		if s.target == base {
			s.target = (base + 2*visitBytes) % units.PageSize
		}
	}
}

// visitRefs is the length of a visit in the current subsweep.
func (s *Sweep) visitRefs() int {
	n := s.VisitRefs
	if s.subsweep == 0 && s.FirstVisitRefs > 0 {
		n = s.FirstVisitRefs
	}
	if n <= 0 {
		n = 128
	}
	return n
}

// Fill implements Pattern. A visit's first reference rolls the visit (see
// rollVisit); the rest of the visit makes no draws.
func (s *Sweep) Fill(r *rng.Rand, dst []Ref) {
	visitBytes := uint64(s.VisitBytes)
	if visitBytes == 0 || visitBytes > units.PageSize {
		visitBytes = 1024
	}
	stride := s.Stride
	if stride == 0 {
		stride = 8
	}
	if !s.started && len(dst) > 0 {
		s.started = true
		s.rollVisit(r, s.windowBase(visitBytes), visitBytes)
	}
	for len(dst) > 0 {
		visitRefs := s.visitRefs()
		if s.done >= visitRefs {
			s.done = 0
			s.off = 0
			s.page++
			if s.page >= s.Region.Pages {
				s.page = 0
				s.subsweep++
			}
			s.rollVisit(r, s.windowBase(visitBytes), visitBytes)
			visitRefs = s.visitRefs()
		}
		visit := dst[:min(visitRefs-s.done, len(dst))]
		page := s.Region.Base + uint64(s.page)*units.PageSize
		base := s.windowBase(visitBytes)
		if s.crossing {
			// A dense visit covers two windows with the same number of
			// references: the faulted window first, then the target. The
			// step doubles the stride, growing further for short visits so
			// both windows are always reached; reference i of the visit is
			// at i·step mod 2·visitBytes across the pair.
			span := 2 * visitBytes
			step := stride * 2
			if minStep := (span + uint64(visitRefs) - 1) / uint64(visitRefs); step < minStep {
				step = minStep
			}
			pos := uint64(s.done) * step % span
			step %= span
			for i := range visit {
				if pos < visitBytes {
					visit[i] = Ref{Addr: page + base + pos}
				} else {
					visit[i] = Ref{Addr: page + s.target + (pos - visitBytes)}
				}
				if pos += step; pos >= span {
					pos -= span
				}
			}
		} else {
			// s.off is the visit's offset within its window, so it steps by
			// stride mod visitBytes and wraps with one subtraction.
			step := stride % visitBytes
			off := s.off
			for i := range visit {
				visit[i] = Ref{Addr: page + base + off}
				if off += step; off >= visitBytes {
					off -= visitBytes
				}
			}
			s.off = off
		}
		markStores(visit, s.StoreEvery, &s.count)
		s.done += len(visit)
		dst = dst[len(visit):]
	}
}

// windowBase is the in-page offset of the current subsweep's window.
func (s *Sweep) windowBase(visitBytes uint64) uint64 {
	return uint64(s.subsweep) * visitBytes % units.PageSize
}

// Mix interleaves child patterns: each reference is drawn from pattern i
// with probability Weights[i] (normalized), switching in short runs to
// avoid unrealistically fine interleaving.
type Mix struct {
	Patterns []Pattern
	Weights  []float64
	// RunLen is the mean references per stretch of one pattern
	// (default 32).
	RunLen int

	cur  int
	left int
	cdf  []float64
}

// Fill implements Pattern: it draws a stretch's pattern and length when the
// stretch starts, and hands the child the stretch (or as much of it as dst
// holds) in one call.
func (m *Mix) Fill(r *rng.Rand, dst []Ref) {
	if m.cdf == nil {
		total := 0.0
		for _, w := range m.Weights {
			total += w
		}
		m.cdf = make([]float64, len(m.Weights))
		acc := 0.0
		for i, w := range m.Weights {
			acc += w / total
			m.cdf[i] = acc
		}
	}
	for len(dst) > 0 {
		if m.left <= 0 {
			u := r.Float64()
			m.cur = len(m.cdf) - 1
			for i, c := range m.cdf {
				if u <= c {
					m.cur = i
					break
				}
			}
			run := m.RunLen
			if run < 1 {
				run = 32
			}
			m.left = 1 + r.Geometric(1/float64(run))
		}
		n := min(m.left, len(dst))
		m.Patterns[m.cur].Fill(r, dst[:n])
		m.left -= n
		dst = dst[n:]
	}
}
