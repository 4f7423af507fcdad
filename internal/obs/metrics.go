// Package obs is the repository's observability layer: a dependency-free
// metrics registry for the live prototype (counters, gauges, log-linear
// histograms and a stable text exposition) and a deterministic, tick-based
// event tracer for the simulator (simtrace.go).
//
// Both halves share one design rule: observation must never perturb the
// thing observed. A prototype component counts each event once, in its own
// record, and attaches that record to a registry as a Source the registry
// reads at scrape time, so the fault hot path does no metrics work at all.
// Handles a component increments directly (the directory's event
// counters) are nil-safe: from a nil registry they are nil, and every
// mutator on a nil handle is a no-op with zero allocations. The tracer
// reads only the simulator's event clock, never the wall clock, so
// enabling it cannot change a single simulated tick.
package obs

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// desc is what every metric kind shares: its name and help text, and the
// component sources read into it. Sources are pointers so a closing
// component can find its own.
type desc[S any] struct {
	name string
	help string

	mu   sync.Mutex // guards srcs, and a histogram's own samples
	srcs []*S
}

func (d *desc[S]) attach(src *S) {
	d.mu.Lock()
	d.srcs = append(d.srcs, src)
	d.mu.Unlock()
}

// detach drops src; keep runs in the same critical section, so a read
// never sees src's count both folded in and live.
func (d *desc[S]) detach(src *S, keep func()) {
	d.mu.Lock()
	keep()
	d.srcs = slices.DeleteFunc(d.srcs, func(x *S) bool { return x == src })
	d.mu.Unlock()
}

// scalar is a counter's or gauge's value: its own, plus every source's,
// each source called outside every lock.
type scalar struct {
	desc[func() int64]
	v atomic.Int64
}

func (s *scalar) value() int64 {
	s.mu.Lock()
	v, srcs := s.v.Load(), slices.Clone(s.srcs)
	s.mu.Unlock()
	for _, read := range srcs {
		v += (*read)()
	}
	return v
}

// Counter is a monotonically increasing metric: what was added to it
// directly, plus the current count of every source attached to it, plus
// the final count of every source detached from it. The nil Counter is a
// valid no-op.
type Counter struct{ scalar }

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by n (negative n is ignored: counters only go
// up, and a no-op beats a panic on a hot path).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value reports the current count (0 on a nil handle).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.value()
}

// Gauge is a metric that can go up and down: its own value plus the
// current value of every source attached to it. A detached source drops
// out. The nil Gauge is a valid no-op.
type Gauge struct{ scalar }

// Set stores the gauge's own value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge's own value by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value reports the current value (0 on a nil handle).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.value()
}

// HistogramMetric is a registered Histogram: its own observations plus the
// samples of every source attached to it or detached from it, exposed as
// cumulative counts at fixed upper bounds (Prometheus-style). The nil
// HistogramMetric is a valid no-op.
type HistogramMetric struct {
	desc[func(into *Histogram)] // a source merges its samples into into

	bounds []float64 // ascending exposition bounds; +Inf is implicit
	h      Histogram // under mu
}

// DefaultLatencyBuckets are the exposition bounds of microsecond-scale
// prototype latencies: 1 µs .. ~16 ms in powers of four.
var DefaultLatencyBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384}

// Observe records one sample, rounded to an integer (NaN is ignored).
func (m *HistogramMetric) Observe(v float64) {
	if m == nil || math.IsNaN(v) {
		return
	}
	m.mu.Lock()
	m.h.Add(int64(math.Round(v)))
	m.mu.Unlock()
}

// Snapshot returns every sample the metric holds (empty on a nil handle).
func (m *HistogramMetric) Snapshot() Histogram {
	var h Histogram
	if m == nil {
		return h
	}
	m.mu.Lock()
	h, srcs := m.h, slices.Clone(m.srcs)
	m.mu.Unlock()
	for _, read := range srcs {
		(*read)(&h)
	}
	return h
}

// Count reports the number of observations (0 on a nil handle).
func (m *HistogramMetric) Count() int64 {
	h := m.Snapshot()
	return h.N()
}

// Sum reports the total of all observations (0 on a nil handle).
func (m *HistogramMetric) Sum() float64 {
	h := m.Snapshot()
	return h.Sum()
}

// Registry holds named metrics and renders them as text. The nil Registry
// is valid: every constructor on it returns a nil handle, so "metrics
// disabled" needs no branches at the call sites that record.
type Registry struct {
	mu     sync.Mutex
	byName map[string]any
	names  []string // insertion order; exposition sorts its own copy
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]any)}
}

// Counter returns the counter registered under name, creating it when
// needed. A nil registry returns a nil (no-op) handle. Re-registering a
// name as a different metric kind panics: that is a wiring bug, not a
// runtime condition.
func (r *Registry) Counter(name, help string) *Counter {
	return lookup(r, name, func() *Counter { return &Counter{scalar{desc: desc[func() int64]{name: name, help: help}}} })
}

// Gauge returns the gauge registered under name, creating it when needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	return lookup(r, name, func() *Gauge { return &Gauge{scalar{desc: desc[func() int64]{name: name, help: help}}} })
}

// Histogram returns the histogram registered under name, creating it with
// the given ascending exposition bounds (nil selects
// DefaultLatencyBuckets). A bound is exact when it is an edge of
// Histogram's buckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *HistogramMetric {
	return lookup(r, name, func() *HistogramMetric {
		if bounds == nil {
			bounds = DefaultLatencyBuckets
		}
		b := append([]float64(nil), bounds...)
		sort.Float64s(b)
		return &HistogramMetric{desc: desc[func(*Histogram)]{name: name, help: help}, bounds: b}
	})
}

// lookup returns the metric of kind M registered under name, registering
// the one create makes when there is none.
func lookup[M *Counter | *Gauge | *HistogramMetric](r *Registry, name string, create func() M) M {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		got, ok := m.(M)
		if !ok {
			panic("obs: " + name + " already registered as a different kind")
		}
		return got
	}
	m := create()
	r.byName[name] = m
	r.names = append(r.names, name)
	return m
}

// Source is one component's view in a registry: functions that read the
// component's own record — the fields it keeps anyway, under its own lock
// — at scrape time, so an event is counted at one site and never again for
// metrics. Every source attached under one name is summed into that
// metric, and registry lookups of the name (Counter(name).Value() and the
// rest) read the live sum. Sources are called outside the registry's
// locks. The nil Source, from a nil Registry, ignores everything.
type Source struct {
	reg    *Registry
	closes []func()
}

// NewSource starts a component's source on r; attach its metrics, then
// Close it when the component closes.
func (r *Registry) NewSource() *Source {
	if r == nil {
		return nil
	}
	return &Source{reg: r}
}

// Counter attaches read as a source of the named counter.
func (s *Source) Counter(name, help string, read func() int64) {
	if s == nil {
		return
	}
	c := s.reg.Counter(name, help)
	c.attach(&read)
	s.closes = append(s.closes, func() {
		n := read()
		c.detach(&read, func() { c.v.Add(n) })
	})
}

// Gauge attaches read as a source of the named gauge.
func (s *Source) Gauge(name, help string, read func() int64) {
	if s == nil {
		return
	}
	g := s.reg.Gauge(name, help)
	g.attach(&read)
	s.closes = append(s.closes, func() { g.detach(&read, func() {}) })
}

// Histogram attaches read, which merges the component's samples into the
// histogram it is given, as a source of the named histogram.
func (s *Source) Histogram(name, help string, read func(into *Histogram)) {
	if s == nil {
		return
	}
	m := s.reg.Histogram(name, help, nil)
	m.attach(&read)
	s.closes = append(s.closes, func() {
		var h Histogram
		read(&h)
		m.detach(&read, func() { m.h.Merge(&h) })
	})
}

// Fields attaches every field of the struct rec points to that carries a
// `metric:"name"` tag — `metric:"name,gauge"` for a gauge, a Histogram
// field for a histogram, any other int64 or int field for a counter — with
// its `help:"..."` tag as the help text. Each read holds mu, the lock that
// guards rec; int64 fields are loaded atomically, so fields a component
// updates with sync/atomic instead of under mu may share the struct.
func (s *Source) Fields(mu sync.Locker, rec any) {
	if s == nil {
		return
	}
	v := reflect.ValueOf(rec).Elem()
	for i := 0; i < v.NumField(); i++ {
		tag := v.Type().Field(i).Tag
		name, kind, _ := strings.Cut(tag.Get("metric"), ",")
		if name == "" {
			continue
		}
		var read func() int64
		switch p := v.Field(i).Addr().Interface().(type) {
		case *Histogram:
			s.Histogram(name, tag.Get("help"), func(into *Histogram) {
				mu.Lock()
				defer mu.Unlock()
				into.Merge(p)
			})
			continue
		case *int64:
			read = func() int64 { return atomic.LoadInt64(p) }
		case *int:
			read = func() int64 { return int64(*p) }
		default:
			panic("obs: metric field " + name + " is neither a Histogram nor an integer")
		}
		locked := func() int64 {
			mu.Lock()
			defer mu.Unlock()
			return read()
		}
		if kind == "gauge" {
			s.Gauge(name, tag.Get("help"), locked)
		} else {
			s.Counter(name, tag.Get("help"), locked)
		}
	}
}

// Close detaches the component once it has stopped counting: its counters
// and histograms keep their final values, so nothing on /metrics goes
// down, and it drops out of its gauges. Call it once, after the last
// event.
func (s *Source) Close() {
	if s == nil {
		return
	}
	for _, detach := range s.closes {
		detach()
	}
	s.closes = nil
}

// WriteText renders every registered metric in a stable, name-sorted text
// exposition (Prometheus-compatible). Values are read atomically but the
// exposition as a whole is not a consistent cut; it is a monitoring
// surface, not a transactional snapshot.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	// Snapshot the metric set under the lock, render outside it: rendering
	// writes to a caller-supplied (possibly network) writer, which must
	// not stall registration.
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	metrics := make([]any, len(names))
	for i, n := range names {
		metrics[i] = r.byName[n]
	}
	r.mu.Unlock()
	order := make([]int, len(names))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return names[order[a]] < names[order[b]] })

	var b strings.Builder
	for _, i := range order {
		switch m := metrics[i].(type) {
		case *Counter:
			writeHeader(&b, m.name, m.help, "counter")
			fmt.Fprintf(&b, "%s %d\n", m.name, m.Value())
		case *Gauge:
			writeHeader(&b, m.name, m.help, "gauge")
			fmt.Fprintf(&b, "%s %d\n", m.name, m.Value())
		case *HistogramMetric:
			writeHeader(&b, m.name, m.help, "histogram")
			h := m.Snapshot()
			for _, bound := range m.bounds {
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, formatFloat(bound), h.AtMost(bound))
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, h.N())
			fmt.Fprintf(&b, "%s_sum %s\n", m.name, formatFloat(h.Sum()))
			fmt.Fprintf(&b, "%s_count %d\n", m.name, h.N())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeHeader(b *strings.Builder, name, help, kind string) {
	if help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", name, kind)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
