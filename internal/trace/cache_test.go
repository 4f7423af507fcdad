package trace

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/rng"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// drain reads a stream to the end.
func drain(t *testing.T, rd Reader) []Ref {
	t.Helper()
	var out []Ref
	buf := make([]Ref, 1024)
	for {
		n := rd.Read(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func sameRefs(a, b []Ref) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCachedReaderMatchesGenerator: the packed replay must be byte-for-byte
// the generator's stream — the cache is a pure memoization.
func TestCachedReaderMatchesGenerator(t *testing.T) {
	resetCache()
	defer resetCache()
	app := Gdb(0.3)
	want := drain(t, app.generatorReader())
	got := drain(t, app.NewReader())
	if !sameRefs(want, got) {
		t.Fatalf("cached stream differs from generated stream (%d vs %d refs)", len(got), len(want))
	}
	// Charged is what is retained, at its exact length: 2 bytes per
	// reference and 12 per page run.
	e := cacheFor(app)
	if len(e.offs) != int(app.TotalRefs()) || cap(e.offs) != len(e.offs) || cap(e.runs) != len(e.runs) {
		t.Fatalf("entry holds %d/%d offsets and %d/%d runs (len/cap) for %d references",
			len(e.offs), cap(e.offs), len(e.runs), cap(e.runs), app.TotalRefs())
	}
	if want, u := 2*app.TotalRefs()+12*int64(len(e.runs)), CacheUsage(); u.Entries != 1 || u.Bytes != want {
		t.Fatalf("cache usage = %+v, want 1 entry of %d bytes", u, want)
	}
	// A second reader replays the same shared copy from the start.
	again := drain(t, app.NewReader())
	if !sameRefs(want, again) {
		t.Fatal("second cached reader differs")
	}
}

// TestCacheBudgetZeroDisables: with no budget every reader regenerates and
// still produces the identical stream.
func TestCacheBudgetZeroDisables(t *testing.T) {
	resetCache()
	prev := SetCacheBudget(0)
	defer func() { SetCacheBudget(prev); resetCache() }()
	app := Gdb(0.3)
	if _, ok := app.NewReader().(*packedReader); ok {
		t.Fatal("reader cached despite zero budget")
	}
	if u := CacheUsage(); u.Entries != 0 || u.Bytes != 0 {
		t.Fatalf("cache not empty: %+v", u)
	}
}

// TestCacheAdmissionBounded: an app bigger than the remaining budget falls
// back to generation without evicting what's cached.
func TestCacheAdmissionBounded(t *testing.T) {
	resetCache()
	small := Gdb(0.3)
	prev := SetCacheBudget(small.TotalRefs() * 5)
	defer func() { SetCacheBudget(prev); resetCache() }()
	if _, ok := small.NewReader().(*packedReader); !ok {
		t.Fatal("small app should be admitted")
	}
	big := Modula3(0.3)
	if _, ok := big.NewReader().(*packedReader); ok {
		t.Fatal("big app should have been refused")
	}
	if u := CacheUsage(); u.Entries != 1 {
		t.Fatalf("cache usage = %+v, want the small entry only", u)
	}
}

// TestTouchedPages: the memoized footprint equals a scan of the stream, is
// ascending, and is shared across calls.
func TestTouchedPages(t *testing.T) {
	resetCache()
	defer resetCache()
	app := Gdb(0.3)
	got := TouchedPages(app)
	want := map[uint64]struct{}{}
	for _, r := range drain(t, app.NewReader()) {
		want[r.Addr/units.PageSize] = struct{}{}
	}
	if len(got) != len(want) {
		t.Fatalf("footprint %d pages, scan found %d", len(got), len(want))
	}
	for i, p := range got {
		if _, ok := want[p]; !ok {
			t.Fatalf("page %d not in scan", p)
		}
		if i > 0 && got[i-1] >= p {
			t.Fatalf("footprint not strictly ascending at %d", i)
		}
	}
	again := TouchedPages(Gdb(0.3)) // distinct *App, same key
	if &again[0] != &got[0] {
		t.Fatal("footprint not memoized across App instances")
	}
}

// TestCacheConcurrentReaders: many goroutines racing to be first reader of
// the same stream all see the identical trace (run under -race in CI).
func TestCacheConcurrentReaders(t *testing.T) {
	resetCache()
	defer resetCache()
	app := Gdb(0.2)
	want := drain(t, app.generatorReader())
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]Ref, 512)
			var got []Ref
			rd := Gdb(0.2).NewReader()
			for {
				n := rd.Read(buf)
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
			if !sameRefs(want, got) {
				errs <- "concurrent reader produced a different stream"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// fixed is a Pattern that replays a slice.
type fixed struct {
	refs []Ref
	pos  int
}

func (f *fixed) Fill(_ *rng.Rand, dst []Ref) {
	f.pos += copy(dst, f.refs[f.pos:])
}

func fixedApp(refs []Ref) *App {
	return NewApp("fixed", 1, 1, func() []Phase {
		return []Phase{{Name: "fixed", Refs: int64(len(refs)), Pattern: &fixed{refs: refs}}}
	})
}

// streamFromBytes decodes a fuzz input into references, three bytes each:
// a page move (most stay on the page, some step, a few jump — to the last
// page that packs, 2³²−1, or with wide set to 2³², the first that does not),
// an offset and a store flag.
func streamFromBytes(data []byte, wide bool) []Ref {
	var refs []Ref
	page := uint64(0)
	for ; len(data) >= 3; data = data[3:] {
		switch m := data[0]; {
		case m < 160:
		case m < 224:
			page += uint64(m) % 3
		case m < 250:
			page = uint64(m) * 37 % 64
		case m < 254 || !wide:
			page = packedPages - 1
		default:
			page = packedPages
		}
		refs = append(refs, Ref{Addr: page*units.PageSize + uint64(data[1])*32 + uint64(data[2]>>3), Store: data[2]&1 != 0})
	}
	return refs
}

// FuzzRunIndex: over any stream, the page runs concatenate to exactly the
// Read stream, every reference a run decodes is on the run's index page,
// neighbouring runs are on different pages, each run's block mask is the OR
// of its references' 256 B blocks, and a reader that mixes Read and NextRun
// stays consistent — a run cut short by a Read still ends where the page
// changes, and its mask covers only what is left of it. A stream with a page
// of 2³² or more is not memoized and still replays exactly.
func FuzzRunIndex(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 4, 160, 0, 1, 0, 9, 9, 200, 5, 5, 251, 255, 255, 0, 0, 0}, []byte{0, 3, 0, 9}, false)
	f.Add([]byte{0, 1, 2, 255, 3, 4, 0, 0, 0}, []byte{1}, true)
	f.Add([]byte{}, []byte{}, false)
	f.Add([]byte{251, 7, 7, 251, 8, 9, 0, 1, 1}, []byte{2, 5}, true)
	f.Add([]byte{255, 0, 0, 0, 1, 1}, []byte{0}, true)
	f.Fuzz(func(t *testing.T, data, ops []byte, wide bool) {
		resetCache()
		defer resetCache()
		want := streamFromBytes(data, wide)
		packs := len(want) > 0
		for _, r := range want {
			packs = packs && r.Addr/units.PageSize < packedPages
		}
		app := fixedApp(want)
		rd, memoized := app.NewReader().(*packedReader)
		if memoized != packs {
			t.Fatalf("memoized = %v, want %v", memoized, packs)
		}
		if !memoized {
			if u := CacheUsage(); u.Entries != 0 || u.Bytes != 0 {
				t.Fatalf("unpackable stream still charged: %+v", u)
			}
			if got := drain(t, app.NewReader()); !sameRefs(got, want) {
				t.Fatal("fallback stream differs")
			}
			return
		}
		var got []Ref
		// take appends a run to got, checking each reference is on its page
		// and the run's mask is exactly the blocks its references touch.
		take := func(page uint64, run []uint16, blocks uint32) {
			var touched uint32
			for _, v := range run {
				r := Unpack(page, v)
				if r.Addr/units.PageSize != page {
					t.Fatalf("reference %d decodes off its run's page %d", len(got), page)
				}
				touched |= 1 << (r.Addr % units.PageSize / units.MinSubpage)
				got = append(got, r)
			}
			if blocks != touched {
				t.Fatalf("run ending at %d: mask %032b, references touch %032b", len(got), blocks, touched)
			}
		}

		// Runs alone.
		last := uint64(math.MaxUint64)
		for page, run, blocks := rd.NextRun(); len(run) > 0; page, run, blocks = rd.NextRun() {
			if page == last {
				t.Fatalf("run at %d continues the previous run's page %d", len(got), page)
			}
			last = page
			take(page, run, blocks)
		}
		if !sameRefs(got, want) {
			t.Fatalf("runs concatenate to %d refs, stream has %d", len(got), len(want))
		}
		if _, run, _ := rd.NextRun(); len(run) != 0 || rd.Read(make([]Ref, 1)) != 0 {
			t.Fatal("reader not at end after its last run")
		}

		// Read and NextRun mixed, as ops dictates.
		rd = app.NewReader().(*packedReader)
		got = got[:0]
		buf := make([]Ref, 16)
		for i := 0; len(got) < len(want); i++ {
			op := byte(0)
			if len(ops) > 0 {
				op = ops[i%len(ops)]
			}
			if op%2 == 1 {
				n := rd.Read(buf[:1+int(op/2)%len(buf)])
				if n == 0 {
					t.Fatalf("Read returned 0 at %d of %d", len(got), len(want))
				}
				got = append(got, buf[:n]...)
				continue
			}
			page, run, blocks := rd.NextRun()
			if len(run) == 0 {
				t.Fatalf("NextRun empty at %d of %d", len(got), len(want))
			}
			take(page, run, blocks)
			if n := len(got); n < len(want) && want[n].Addr/units.PageSize == page {
				t.Fatalf("mixed: run stopped at %d before the page changed", n)
			}
		}
		if !sameRefs(got, want) {
			t.Fatal("mixed Read/NextRun stream differs")
		}

		// The footprint comes from the same index.
		if fp, scan := TouchedPages(app), scanTouched(&SliceReader{Refs: want}); !reflect.DeepEqual(fp, scan) {
			t.Fatalf("footprint from runs %v, from a scan %v", fp, scan)
		}
	})
}
