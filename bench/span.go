package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"
)

// The span recorder of the traced run. The benchmark may not edit the
// program, so spans sit in the benchmark's own files, around each call into a
// layer's public functions: one root span per op, child spans around each
// public call and raw-probe exchange. Spans stay in memory and are written
// when the run ends (-traceout), as Chrome trace_event JSON with the field
// order of obs.WriteChromeTrace so a later in-program tracer reuses the viewer.

// span is one recorded interval, in nanoseconds since the recorder's epoch.
type span struct {
	name   string
	start  int64
	end    int64
	parent int32 // index in the lane, -1 for a root
	op     int64 // spans of one op share this id
}

// recorder owns one lane per goroutine, so recording takes no lock.
type recorder struct {
	epoch time.Time
	lanes []*lane
}

func newRecorder(lanes int) *recorder {
	r := &recorder{epoch: now()}
	for i := 0; i < lanes; i++ {
		r.lanes = append(r.lanes, &lane{epoch: r.epoch, id: i})
	}
	return r
}

// lane returns goroutine g's lane; a nil recorder gives the nil lane, on which
// every method is a no-op costing one pointer compare — the untraced run.
func (r *recorder) lane(g int) *lane {
	if r == nil {
		return nil
	}
	return r.lanes[g]
}

type lane struct {
	epoch time.Time
	id    int
	spans []span
	stack []int32
	op    int64
}

// begin opens a span under the innermost open span; a span opened with no
// parent starts a new op.
func (l *lane) begin(name string) int32 {
	if l == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	} else {
		l.op++
	}
	i := int32(len(l.spans))
	l.spans = append(l.spans, span{name: name, parent: parent, op: l.op, start: int64(since(l.epoch))})
	l.stack = append(l.stack, i)
	return i
}

// end closes the span begin returned. Spans close innermost first.
func (l *lane) end(i int32) {
	if l == nil {
		return
	}
	l.spans[i].end = int64(since(l.epoch))
	l.stack = l.stack[:len(l.stack)-1]
}

// durations returns the spans' durations by name, in nanoseconds, ascending.
func (r *recorder) durations() map[string][]float64 {
	out := make(map[string][]float64)
	for _, l := range r.lanes {
		for _, s := range l.spans {
			out[s.name] = append(out[s.name], float64(s.end-s.start))
		}
	}
	for _, d := range out {
		sortedNs(d)
	}
	return out
}

// selfTimes returns each span name's total self time: its duration minus the
// part of it its child spans cover.
func (r *recorder) selfTimes() map[string]float64 {
	out := make(map[string]float64)
	for _, l := range r.lanes {
		child := make([]int64, len(l.spans))
		for _, s := range l.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range l.spans {
			out[s.name] += float64(s.end - s.start - child[i])
		}
	}
	return out
}

func (r *recorder) count() int {
	n := 0
	for _, l := range r.lanes {
		n += len(l.spans)
	}
	return n
}

// writeChrome renders the spans as Chrome trace_event JSON: one process, one
// thread per lane, complete ("X") events with microsecond timestamps. Keys
// come in obs.WriteChromeTrace's order: ph, pid, tid, ts, dur, name, args.
func (r *recorder) writeChrome(w io.Writer, process string) error {
	bw := bufio.NewWriter(w)
	_, _ = bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")
	_, _ = fmt.Fprintf(bw, `{"ph":"M","pid":0,"name":"process_name","args":{"name":%q}}`, process)
	for _, l := range r.lanes {
		_, _ = fmt.Fprintf(bw, ",\n"+`{"ph":"M","pid":0,"tid":%d,"name":"thread_name","args":{"name":"lane %d"}}`, l.id, l.id)
		for i, s := range l.spans {
			dur := (s.end - s.start) / 1e3
			if dur < 1 {
				dur = 1
			}
			_, _ = fmt.Fprintf(bw, ",\n"+`{"ph":"X","pid":0,"tid":%d,"ts":%d,"dur":%d,"name":%q,"args":{"op":%d,"span":%d,"parent":%d,"ns":%d}}`,
				l.id, s.start/1e3, dur, s.name, s.op, i, s.parent, s.end-s.start)
		}
	}
	_, _ = bw.WriteString("\n]}\n")
	return bw.Flush()
}

// printSelfTimes lists where the traced window's time went, largest first.
func (r *recorder) printSelfTimes(w io.Writer, workload string) {
	self := r.selfTimes()
	names := make([]string, 0, len(self))
	var total float64
	for n, v := range self {
		names = append(names, n)
		total += v
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		_, _ = fmt.Fprintf(w, "%-16s span self time %-24s %10.3f ms %5.1f%%\n", workload, n, self[n]/1e6, 100*self[n]/total)
	}
}
