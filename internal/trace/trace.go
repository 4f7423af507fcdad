// Package trace provides memory-reference traces for the trace-driven
// simulator.
//
// The paper instruments five applications (Modula-3, ld, Atom, Render, gdb)
// with Atom on Digital Unix. We cannot run Atom, so this package generates
// synthetic traces that reproduce the behavioural properties the paper's
// results depend on:
//
//   - trace length and footprint (references and distinct pages touched),
//   - phase structure, which produces the temporal clustering of page
//     faults (Figures 6 and 10) that makes I/O overlap possible,
//   - spatial locality within pages, which produces the +1-dominated
//     next-subpage distance distribution (Figure 7), and
//   - re-reference of earlier regions, which produces capacity misses when
//     the application runs in 1/2 or 1/4 of its memory.
//
// Generators are deterministic: the same App and seed produce the same
// reference stream on every run and platform.
package trace

import (
	"github.com/gms-sim/gmsubpage/internal/rng"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// Ref is one memory reference.
type Ref struct {
	Addr  uint64
	Store bool
}

// Reader streams references in batches. Read fills buf and returns the
// number of references produced; it returns 0 only at end of trace.
type Reader interface {
	Read(buf []Ref) int
}

// Pattern produces the addresses of one access pattern. Implementations
// are advanced by a single goroutine and may keep state.
type Pattern interface {
	// Fill writes the pattern's next len(dst) references to dst. Each draw
	// from r is made when the reference it decides is written, in stream
	// order, so a stream does not depend on how it is cut into fills:
	// filling a then b references writes the same references, and leaves r
	// and the pattern in the same state, as filling a+b (FuzzPatternFill).
	// An empty dst draws nothing. The paper apps' streams are pinned
	// (TestAppStreamsPinned), so a faster Fill must keep every draw and its
	// order (DESIGN.md §3a).
	Fill(r *rng.Rand, dst []Ref)
}

// Phase is a contiguous section of an application's execution with one
// access pattern, e.g. a compiler pass.
type Phase struct {
	Name    string
	Refs    int64
	Pattern Pattern
}

// App is a synthetic application: an address space plus a sequence of
// phases. Patterns are stateful, so App holds a phase *builder* and every
// reader gets a fresh instance; readers from the same App are independent
// and produce identical streams.
type App struct {
	Name string
	Seed uint64
	// TotalPages is the number of distinct pages the app touches; the
	// "full-mem" configuration of the paper gives the app this many
	// resident pages.
	TotalPages int

	newPhases func() []Phase
	totalRefs int64
}

// NewApp assembles an App from a phase builder. The builder must return
// freshly-constructed patterns on every call.
func NewApp(name string, seed uint64, totalPages int, newPhases func() []Phase) *App {
	a := &App{Name: name, Seed: seed, TotalPages: totalPages, newPhases: newPhases}
	for _, p := range newPhases() {
		a.totalRefs += p.Refs
	}
	return a
}

// TotalRefs returns the length of the trace in references.
func (a *App) TotalRefs() int64 { return a.totalRefs }

// Phases returns a fresh copy of the app's phases.
func (a *App) Phases() []Phase { return a.newPhases() }

// NewReader returns a fresh deterministic reader over the app's trace.
// When the trace cache has (or can admit) this app × scale stream, the
// reader replays the shared memoized copy; otherwise it regenerates from
// the phase generators. Both paths produce the identical stream.
func (a *App) NewReader() Reader {
	if e := cacheFor(a); e.memoized(a) {
		return &packedReader{offs: e.offs, runs: e.runs}
	}
	return a.generatorReader()
}

// generatorReader always synthesizes from the phase builders.
func (a *App) generatorReader() Reader {
	return &appReader{phases: a.newPhases(), rand: rng.New(a.Seed)}
}

type appReader struct {
	phases []Phase
	rand   *rng.Rand
	phase  int
	done   int64 // refs produced in current phase
}

func (r *appReader) Read(buf []Ref) int {
	n := 0
	for n < len(buf) {
		if r.phase >= len(r.phases) {
			break
		}
		ph := &r.phases[r.phase]
		if r.done >= ph.Refs {
			r.phase++
			r.done = 0
			continue
		}
		// Fill from the current phase.
		room := min(int64(len(buf)-n), ph.Refs-r.done)
		ph.Pattern.Fill(r.rand, buf[n:n+int(room)])
		n += int(room)
		r.done += room
	}
	return n
}

// Offset returns a reader that shifts every address by delta. Multi-node
// simulations use it to give each node's workload a disjoint slice of the
// global page space. When r replays page runs (a memoized app's reader) and
// delta is a whole number of pages, the returned reader does too: its
// NextRun is r's with the page shifted.
func Offset(r Reader, delta uint64) Reader {
	if delta == 0 {
		return r
	}
	o := offsetReader{r: r, delta: delta}
	if rr, ok := r.(runReader); ok && delta%units.PageSize == 0 {
		return &offsetRuns{offsetReader: o, runs: rr, pages: delta / units.PageSize}
	}
	return &o
}

// runReader is what a reader with a page-run index (packedReader) has
// besides Read.
type runReader interface {
	NextRun() (page uint64, offs []uint16, blocks uint32)
}

type offsetReader struct {
	r     Reader
	delta uint64
}

func (o *offsetReader) Read(buf []Ref) int {
	n := o.r.Read(buf)
	for i := 0; i < n; i++ {
		buf[i].Addr += o.delta
	}
	return n
}

// offsetRuns is an offsetReader over a reader with a page-run index.
type offsetRuns struct {
	offsetReader
	runs  runReader
	pages uint64 // delta in pages
}

// NextRun returns the underlying reader's next run, pages pages on.
func (o *offsetRuns) NextRun() (page uint64, offs []uint16, blocks uint32) {
	page, offs, blocks = o.runs.NextRun()
	return page + o.pages, offs, blocks
}

// SliceReader replays a fixed slice of references; used by tests and by the
// trace file loader.
type SliceReader struct {
	Refs []Ref
	pos  int
}

// Read implements Reader.
func (s *SliceReader) Read(buf []Ref) int {
	n := copy(buf, s.Refs[s.pos:])
	s.pos += n
	return n
}
