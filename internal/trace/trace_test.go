package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"github.com/gms-sim/gmsubpage/internal/rng"
	"github.com/gms-sim/gmsubpage/internal/units"
)

func readAll(r Reader) []Ref {
	var out []Ref
	buf := make([]Ref, 1024)
	for {
		n := r.Read(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func TestAppReaderDeterministic(t *testing.T) {
	app := Gdb(1.0)
	a := readAll(app.NewReader())
	b := readAll(app.NewReader())
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestAppReaderLength(t *testing.T) {
	app := Gdb(1.0)
	got := int64(len(readAll(app.NewReader())))
	if got != app.TotalRefs() {
		t.Fatalf("trace length %d != TotalRefs %d", got, app.TotalRefs())
	}
}

func TestReadSmallBuffers(t *testing.T) {
	// Reading with a tiny buffer must produce the same stream.
	app := Gdb(0.5)
	want := readAll(app.NewReader())
	r := app.NewReader()
	var got []Ref
	buf := make([]Ref, 7)
	for {
		n := r.Read(buf)
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
	}
	if len(got) != len(want) {
		t.Fatalf("lengths differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}

func TestAppFootprints(t *testing.T) {
	// Footprints should be near TotalPages (the nominal full-mem size).
	const scale = 0.12
	for _, app := range Apps(scale) {
		p := ProfileOf(app.NewReader())
		lo := int(float64(app.TotalPages) * 0.7)
		hi := app.TotalPages + 4 // guard pages unused; small overshoot ok
		if p.Pages < lo || p.Pages > hi {
			t.Errorf("%s: footprint %d pages, want within [%d, %d]",
				app.Name, p.Pages, lo, hi)
		}
		if p.Refs != app.TotalRefs() {
			t.Errorf("%s: refs %d != %d", app.Name, p.Refs, app.TotalRefs())
		}
	}
}

func TestPaperScaleParameters(t *testing.T) {
	// At scale 1.0 the apps match the paper's published trace lengths
	// (±15%) and full-memory footprints (±25%).
	want := map[string]struct {
		refs  int64
		pages int
	}{
		"modula3": {87_000_000, 770},
		"ld":      {102_000_000, 6800},
		"atom":    {73_000_000, 1180},
		"render":  {245_000_000, 1430},
		"gdb":     {500_000, 140},
	}
	for _, app := range Apps(1.0) {
		w := want[app.Name]
		refs := app.TotalRefs()
		if refs < w.refs*85/100 || refs > w.refs*115/100 {
			t.Errorf("%s: %d refs, paper has %d", app.Name, refs, w.refs)
		}
		if app.TotalPages < w.pages*75/100 || app.TotalPages > w.pages*125/100 {
			t.Errorf("%s: %d pages, paper has ~%d", app.Name, app.TotalPages, w.pages)
		}
	}
}

// fill returns a pattern's next n references, drawn from r.
func fill(p Pattern, r *rng.Rand, n int) []Ref {
	out := make([]Ref, n)
	p.Fill(r, out)
	return out
}

func TestSeqPattern(t *testing.T) {
	s := &Seq{Region: Region{Base: 0x10000, Pages: 2}, Stride: 8}
	refs := fill(s, rng.New(1), 101)
	for i := 1; i < len(refs); i++ {
		if cur, prev := refs[i], refs[i-1]; cur.Addr != prev.Addr+8 {
			t.Fatalf("not sequential at %d: %#x after %#x", i, cur.Addr, prev.Addr)
		}
	}
}

func TestSeqWraps(t *testing.T) {
	reg := Region{Base: 0x1000 * units.PageSize, Pages: 1}
	s := &Seq{Region: reg, Stride: 1024}
	for _, ref := range fill(s, rng.New(1), 50) {
		if ref.Addr < reg.Base || ref.Addr >= reg.End() {
			t.Fatalf("address %#x escaped region", ref.Addr)
		}
	}
}

func TestSeqStores(t *testing.T) {
	s := &Seq{Region: Region{Base: 0, Pages: 1}, StoreEvery: 2}
	stores := 0
	for _, ref := range fill(s, rng.New(1), 100) {
		if ref.Store {
			stores++
		}
	}
	if stores != 50 {
		t.Fatalf("stores = %d, want 50", stores)
	}
}

func TestWorkingSetStaysInRegion(t *testing.T) {
	f := func(seed uint64, pages uint8) bool {
		reg := Region{Base: 4 * units.PageSize, Pages: int(pages%32) + 1}
		w := &WorkingSet{Region: reg, Skew: 0.7, MeanRun: 8}
		for _, ref := range fill(w, rng.New(seed), 500) {
			if ref.Addr < reg.Base || ref.Addr >= reg.End() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepCoversRegion(t *testing.T) {
	reg := Region{Base: 0, Pages: 10}
	s := &Sweep{Region: reg, VisitRefs: 100}
	touched := make(map[uint64]bool)
	for _, ref := range fill(s, rng.New(1), 1000) {
		touched[ref.Addr/units.PageSize] = true
	}
	if len(touched) != 10 {
		t.Fatalf("touched %d pages, want 10", len(touched))
	}
}

func TestSweepVisitsProduceRuns(t *testing.T) {
	reg := Region{Base: 0, Pages: 4}
	s := &Sweep{Region: reg, VisitRefs: 50}
	var pages []uint64
	for _, ref := range fill(s, rng.New(1), 200) {
		pages = append(pages, ref.Addr/units.PageSize)
	}
	// Page changes exactly every 50 refs.
	changes := 0
	for i := 1; i < len(pages); i++ {
		if pages[i] != pages[i-1] {
			changes++
		}
	}
	if changes != 3 {
		t.Fatalf("page changes = %d, want 3", changes)
	}
}

func TestSweepVisitStaysInNeighbourhood(t *testing.T) {
	reg := Region{Base: 0, Pages: 4}
	s := &Sweep{Region: reg, VisitRefs: 500} // more refs than fit in 1 KiB
	for _, ref := range fill(s, rng.New(1), 500) {
		if off := ref.Addr % units.PageSize; off >= 1024 {
			t.Fatalf("first visit escaped its 1 KiB window: offset %d", off)
		}
	}
}

func TestSweepSubsweepsAdvanceWindow(t *testing.T) {
	reg := Region{Base: 0, Pages: 2}
	s := &Sweep{Region: reg, VisitRefs: 10}
	r := rng.New(1)
	// First subsweep: offsets in [0, 1K). Second: [1K, 2K).
	for _, ref := range fill(s, r, 20) {
		if off := ref.Addr % units.PageSize; off >= 1024 {
			t.Fatalf("subsweep 0 at offset %d", off)
		}
	}
	for _, ref := range fill(s, r, 20) {
		off := ref.Addr % units.PageSize
		if off < 1024 || off >= 2048 {
			t.Fatalf("subsweep 1 at offset %d", off)
		}
	}
}

func TestSweepReturnsToSamePageMuchLater(t *testing.T) {
	// The gap between two visits to the same page is the whole region:
	// pages x VisitRefs references.
	reg := Region{Base: 0, Pages: 8}
	s := &Sweep{Region: reg, VisitRefs: 16}
	lastSeen := map[uint64]int{}
	for i, ref := range fill(s, rng.New(1), 8*16*3) {
		page := ref.Addr / units.PageSize
		if prev, ok := lastSeen[page]; ok && i-prev > 1 {
			if gap := i - prev; gap < 8*16-16 {
				t.Fatalf("revisit gap %d too small", gap)
			}
		}
		lastSeen[page] = i
	}
}

func TestMixUsesAllPatterns(t *testing.T) {
	a := &Seq{Region: Region{Base: 0, Pages: 1}}
	b := &Seq{Region: Region{Base: 1 << 30, Pages: 1}}
	m := &Mix{Patterns: []Pattern{a, b}, Weights: []float64{0.5, 0.5}, RunLen: 4}
	var fromA, fromB int
	for _, ref := range fill(m, rng.New(2), 2000) {
		if ref.Addr < 1<<29 {
			fromA++
		} else {
			fromB++
		}
	}
	if fromA < 500 || fromB < 500 {
		t.Fatalf("unbalanced mix: %d vs %d", fromA, fromB)
	}
}

func TestByName(t *testing.T) {
	if app := ByName("render", 0.1); app == nil || app.Name != "render" {
		t.Fatal("ByName(render) failed")
	}
	if ByName("nope", 0.1) != nil {
		t.Fatal("ByName(nope) should be nil")
	}
}

func TestProfileFirstTouchMonotonic(t *testing.T) {
	p := ProfileOf(Gdb(0.5).NewReader())
	for i := 1; i < len(p.FirstTouch); i++ {
		if p.FirstTouch[i] <= p.FirstTouch[i-1] {
			t.Fatalf("FirstTouch not increasing at %d", i)
		}
	}
	if len(p.FirstTouch) != p.Pages {
		t.Fatalf("FirstTouch has %d entries, Pages = %d", len(p.FirstTouch), p.Pages)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	app := Gdb(0.2)
	want := readAll(app.NewReader())
	var buf bytes.Buffer
	n, err := Write(&buf, app.NewReader())
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(want)) {
		t.Fatalf("wrote %d records, want %d", n, len(want))
	}
	r, err := Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(r)
	if len(got) != len(want) {
		t.Fatalf("loaded %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("records diverge at %d", i)
		}
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	if _, err := Open(bytes.NewBufferString("NOTATRACE")); err == nil {
		t.Fatal("Open should reject bad magic")
	}
	if _, err := Open(bytes.NewBufferString("GM")); err == nil {
		t.Fatal("Open should reject short header")
	}
	if _, err := Open(bytes.NewBufferString("GMSTRACE\xff")); err == nil {
		t.Fatal("Open should reject bad version")
	}
}

func TestSliceReader(t *testing.T) {
	refs := []Ref{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	sr := &SliceReader{Refs: refs}
	buf := make([]Ref, 2)
	if n := sr.Read(buf); n != 2 || buf[0].Addr != 1 {
		t.Fatalf("first read: n=%d", n)
	}
	if n := sr.Read(buf); n != 1 || buf[0].Addr != 3 {
		t.Fatalf("second read: n=%d", n)
	}
	if n := sr.Read(buf); n != 0 {
		t.Fatalf("third read: n=%d", n)
	}
}

func TestRegionsDoNotOverlap(t *testing.T) {
	// All app phases reference disjoint regions per app by construction;
	// verify the allocator leaves gaps.
	var ra regionAllocator
	a := ra.take(10)
	b := ra.take(5)
	if b.Base < a.End() {
		t.Fatalf("regions overlap: %#x < %#x", b.Base, a.End())
	}
}

// BenchmarkAppReader reads Modula-3's stream at scale 0.05 end to end, from
// a fresh generator reader each iteration (generate: what building the memo
// costs) and from the memo (replay), in M refs/s.
func BenchmarkAppReader(b *testing.B) {
	app := Modula3(0.05)
	buf := make([]Ref, 8192)
	run := func(b *testing.B, newReader func() Reader) {
		for i := 0; i < b.N; i++ {
			r := newReader()
			for r.Read(buf) > 0 {
			}
		}
		b.ReportMetric(float64(app.TotalRefs())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mrefs/s")
	}
	b.Run("generate", func(b *testing.B) { run(b, app.generatorReader) })
	b.Run("replay", func(b *testing.B) {
		resetCache()
		defer resetCache()
		if _, ok := app.NewReader().(*packedReader); !ok {
			b.Fatal("stream not memoized")
		}
		b.ResetTimer()
		run(b, app.NewReader)
	})
}

func TestQuickSweepStaysInRegion(t *testing.T) {
	f := func(seed uint64, pages, visit uint8, cross uint8) bool {
		reg := Region{Base: 8 * units.PageSize, Pages: int(pages%16) + 1}
		s := &Sweep{
			Region:    reg,
			VisitRefs: int(visit%64) + 1,
			CrossFrac: float64(cross%100) / 100,
		}
		for _, ref := range fill(s, rng.New(seed), 2000) {
			if ref.Addr < reg.Base || ref.Addr >= reg.End() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepCrossFracZeroNeverCrosses(t *testing.T) {
	reg := Region{Base: 0, Pages: 2}
	s := &Sweep{Region: reg, VisitRefs: 64, CrossFrac: 0}
	for _, ref := range fill(s, rng.New(1), 64) { // one full visit: subsweep 0, window [0, 1K)
		if off := ref.Addr % units.PageSize; off >= 1024 {
			t.Fatalf("CrossFrac=0 visit escaped its window: offset %d", off)
		}
	}
}

func TestSweepCrossFracOneAlwaysSpansTwoWindows(t *testing.T) {
	reg := Region{Base: 0, Pages: 4}
	s := &Sweep{Region: reg, VisitRefs: 64, CrossFrac: 1}
	sawSecond := false
	for _, ref := range fill(s, rng.New(1), 64) {
		if off := ref.Addr % units.PageSize; off >= 1024 {
			sawSecond = true
		}
	}
	if !sawSecond {
		t.Fatal("dense visit never touched its second window")
	}
}

func TestOffsetReaderZeroDelta(t *testing.T) {
	app := Gdb(0.2)
	r := app.NewReader()
	if Offset(r, 0) != r {
		t.Fatal("zero delta should return the reader unchanged")
	}
}
