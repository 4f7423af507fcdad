package obs

import (
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/rng"
	"github.com/gms-sim/gmsubpage/internal/stats"
)

// TestHistogramEdges pins the bucket layout: every integer up to 32 and
// every power of two up to 2³² is an upper edge, buckets tile the line
// without gaps, and no bucket is wider than 1/16 of its lower edge.
func TestHistogramEdges(t *testing.T) {
	for v := int64(0); v <= 32; v++ {
		if got := histUpper(histBucket(v)); got != v {
			t.Fatalf("integer %d sits in a bucket ending at %d", v, got)
		}
	}
	for k := 5; k <= histMaxBits; k++ {
		p := int64(1) << k
		if got := histUpper(histBucket(p)); got != p {
			t.Fatalf("2^%d sits in a bucket ending at %d", k, got)
		}
		if k < histMaxBits && histBucket(p+1) != histBucket(p)+1 {
			t.Fatalf("2^%d+1 is not in the bucket after 2^%d", k, k)
		}
	}
	for i := 1; i < histBuckets; i++ {
		lo, hi := histUpper(i-1), histUpper(i)
		if hi <= lo || histBucket(lo+1) != i || histBucket(hi) != i {
			t.Fatalf("bucket %d is (%d, %d], not the integers it holds", i, lo, hi)
		}
		if lo >= 2*histSub && hi-lo > lo/histSub {
			t.Fatalf("bucket %d (%d, %d] is wider than 1/16 of its lower edge", i, lo, hi)
		}
	}
	if got := histUpper(histBuckets - 1); got != histMax {
		t.Fatalf("top edge %d, want 2^%d", got, histMaxBits)
	}
	var h Histogram
	h.Add(histMax * 4)
	if h.AtMost(histMax/2) != 0 || h.AtMost(histMax) != 1 || h.Sum() != 4*histMax {
		t.Fatalf("a sample above the top edge: AtMost %d, %d Sum %g", h.AtMost(histMax/2), h.AtMost(histMax), h.Sum())
	}
}

// TestHistogramMatchesSummary: on a seeded latency-shaped sample set the
// histogram's Median and Percentile(99) are within 1/16 of the exact
// nearest-rank values stats.Summary keeps every sample to compute.
func TestHistogramMatchesSummary(t *testing.T) {
	r := rng.New(7)
	var h Histogram
	var exact stats.Summary
	for i := 0; i < 20000; i++ {
		// Log-uniform over 10 µs .. ~40 ms, plus a cluster of fast hits.
		v := int64(10 * math.Exp(r.Float64()*math.Log(4096)))
		if r.Bool(0.2) {
			v = int64(r.Intn(40))
		}
		h.Add(v)
		exact.Add(float64(v))
	}
	if h.N() != int64(exact.N()) || h.Sum() != exact.Sum() {
		t.Fatalf("N %d Sum %g, Summary has %d and %g", h.N(), h.Sum(), exact.N(), exact.Sum())
	}
	for _, p := range []float64{50, 99, 0, 100, 0.1, 99.9} {
		got, want := h.Percentile(p), exact.Percentile(p)
		if math.Abs(got-want) > want/16 {
			t.Errorf("p%g = %g, exact %g: off by more than 1/16", p, got, want)
		}
	}
	if got, want := h.Median(), exact.Median(); math.Abs(got-want) > want/16 {
		t.Errorf("median = %g, exact %g", got, want)
	}
	var empty Histogram
	if empty.Median() != 0 || empty.Percentile(99) != 0 {
		t.Fatal("an empty histogram's percentiles are not 0")
	}
}

// TestHistogramWindow: subtracting an earlier snapshot leaves exactly the
// samples recorded since, which is how a caller reports one window of a
// long-lived client's latencies.
func TestHistogramWindow(t *testing.T) {
	var life, window Histogram
	for v := int64(1000); v < 3000; v++ {
		life.Add(v)
	}
	before := life
	for v := int64(1); v <= 99; v++ {
		life.Add(v)
		window.Add(v)
	}
	life.Sub(&before)
	if life != window {
		t.Fatalf("after - before != the window's own histogram: median %g vs %g", life.Median(), window.Median())
	}
	if m := life.Median(); math.Abs(m-50) > 50.0/16 {
		t.Fatalf("window median = %g, want 50 within 1/16", m)
	}
	before.Merge(&window)
	if before.N() != 2099 {
		t.Fatalf("merged N = %d, want 2099", before.N())
	}
}

// TestSourcesSumAndDetach pins the scrape-time rules: every source under a
// name is summed, a detached component keeps its counts in counters and
// histograms but leaves its gauges, and registry lookups read the live sum.
func TestSourcesSumAndDetach(t *testing.T) {
	r := NewRegistry()
	type comp struct {
		events, level int64
		lat           Histogram
		src           *Source
	}
	attach := func(c *comp) {
		c.src = r.NewSource()
		c.src.Counter("ev_total", "events", func() int64 { return c.events })
		c.src.Gauge("level", "level", func() int64 { return c.level })
		c.src.Histogram("lat_us", "latency", func(into *Histogram) { into.Merge(&c.lat) })
	}
	a, b := &comp{events: 3, level: 4}, &comp{events: 5, level: 2}
	a.lat.Add(10)
	b.lat.Add(20)
	b.lat.Add(30)
	attach(a)
	attach(b)
	r.Counter("ev_total", "").Add(1) // a direct increment adds to the sources
	check := func(events, level, lat int64) {
		t.Helper()
		if got := r.Counter("ev_total", "").Value(); got != events {
			t.Errorf("ev_total = %d, want %d", got, events)
		}
		if got := r.Gauge("level", "").Value(); got != level {
			t.Errorf("level = %d, want %d", got, level)
		}
		if got := r.Histogram("lat_us", "", nil).Count(); got != lat {
			t.Errorf("lat_us count = %d, want %d", got, lat)
		}
	}
	check(9, 6, 3)
	b.events, b.level = 7, 1
	b.lat.Add(40)
	check(11, 5, 4)
	b.src.Close()
	b.events, b.level = 100, 100 // no longer read
	check(11, 4, 4)
	var out strings.Builder
	if err := r.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ev_total 11\n", "level 4\n", `lat_us_bucket{le="16"} 1`, `lat_us_bucket{le="64"} 4`, "lat_us_sum 100\n"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, out.String())
		}
	}
	var nilSrc *Source = (*Registry)(nil).NewSource()
	nilSrc.Counter("x", "", func() int64 { return 1 })
	nilSrc.Close()
}

// TestSourcesReadOutsideLocks: a source may itself read the registry (or
// take locks a registering goroutine holds) without deadlocking a scrape.
func TestSourcesReadOutsideLocks(t *testing.T) {
	r := NewRegistry()
	r.Counter("inner_total", "").Add(2)
	src := r.NewSource()
	src.Counter("outer_total", "", func() int64 { return r.Counter("inner_total", "").Value() })
	src.Gauge("self", "", func() int64 { return r.Gauge("other", "").Value() + 1 })
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var b strings.Builder
				_ = r.WriteText(&b)
				r.Counter("inner_total", "").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("outer_total", "").Value(); got != 802 {
		t.Fatalf("outer_total = %d, want 802", got)
	}
	src.Close()
	if got := r.Counter("outer_total", "").Value(); got != 802 {
		t.Fatalf("outer_total after Close = %d, want 802", got)
	}
}
