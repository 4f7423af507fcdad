package main

import (
	"runtime"
	"sync"
	"time"

	"github.com/gms-sim/gmsubpage/internal/remote"
)

// step is what one timed unit of a worker reports. A unit is one op, or a
// batch of ops where a single op is too short to time (hit-resident).
type step struct {
	first time.Duration // op start -> first requested bytes usable
	whole time.Duration // op start -> op complete
	ops   int           // ops in the unit
	end   time.Time     // when the unit finished (the loop's clock read)
	err   error         // an op failed with an error: counted, the run goes on
	bad   bool          // an op returned wrong bytes
}

// worker is one closed-loop client goroutine's op stream: the next op starts
// when the previous one completed, as a faulting program blocks on its fault.
type worker interface {
	step(l *lane) step
	// stats sums the remote.Client counters, and the clients' own latency
	// summaries, over every client the worker has driven so far.
	stats() (remote.Stats, latSum)
	close()
}

// maxFailures stops a worker whose ops keep failing: the run is invalid
// already, and each failure may have cost a full retry budget.
const maxFailures = 20

// windowStats is one measurement window over all workers.
type windowStats struct {
	whole  []float64 // ns per op, one sample per unit
	first  []float64
	ops    int64
	failed int64
	bad    int64
	wall   time.Duration
	cpu    time.Duration
	mem    memDelta
	client remote.Stats // counter deltas over the window
	lats   latSum       // the clients' own fault latencies over the window
}

type memDelta struct {
	mallocs, bytes uint64
	gcs            uint32
	pause          time.Duration
}

// memMark reads the runtime's allocation and collection counters; since
// returns what happened after the mark.
type memMark runtime.MemStats

func markMem() *memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return (*memMark)(&m)
}

func (m0 *memMark) since() memDelta {
	m1 := markMem()
	return memDelta{mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		gcs: m1.NumGC - m0.NumGC, pause: time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)}
}

func (w *windowStats) opsPerS() float64 { return float64(w.ops) / w.wall.Seconds() }

// runWindow drives every worker closed-loop on its own goroutine for d and
// gathers the samples. rec is nil on the untraced run.
func runWindow(ws []worker, d time.Duration, rec *recorder) *windowStats {
	type part struct {
		whole, first     []float64
		ops, failed, bad int64
	}
	parts := make([]part, len(ws))
	before, latsBefore := sumStats(ws)
	mem0 := markMem()
	cpu0 := cpuTime()
	start := now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for g := range ws {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := &parts[g]
			l := rec.lane(g)
			for {
				s := ws[g].step(l)
				switch {
				case s.err != nil:
					p.failed++
				case s.bad:
					p.bad++
					fallthrough
				default:
					p.ops += int64(s.ops)
					p.whole = append(p.whole, float64(s.whole)/float64(s.ops))
					p.first = append(p.first, float64(s.first)/float64(s.ops))
				}
				if !s.end.Before(deadline) || p.failed >= maxFailures {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	out := &windowStats{wall: since(start), cpu: cpuTime() - cpu0}
	out.mem = mem0.since()
	for _, p := range parts {
		out.whole = append(out.whole, p.whole...)
		out.first = append(out.first, p.first...)
		out.ops += p.ops
		out.failed += p.failed
		out.bad += p.bad
	}
	sortedNs(out.whole)
	sortedNs(out.first)
	after, latsAfter := sumStats(ws)
	out.client = subStats(after, before)
	out.lats = latsAfter.minus(latsBefore)
	return out
}

// mergeWindows pools the samples and sums the counters of several windows.
func mergeWindows(parts []*windowStats) *windowStats {
	out := &windowStats{}
	for _, p := range parts {
		out.whole = append(out.whole, p.whole...)
		out.first = append(out.first, p.first...)
		out.ops += p.ops
		out.failed += p.failed
		out.bad += p.bad
		out.wall += p.wall
		out.cpu += p.cpu
		out.mem.mallocs += p.mem.mallocs
		out.mem.bytes += p.mem.bytes
		out.mem.gcs += p.mem.gcs
		out.mem.pause += p.mem.pause
		out.client = addStats(out.client, p.client)
		out.lats = out.lats.plus(p.lats)
	}
	sortedNs(out.whole)
	sortedNs(out.first)
	return out
}

// medianRate is the median throughput of several windows.
func medianRate(parts []*windowStats) float64 {
	var rates []float64
	for _, p := range parts {
		rates = append(rates, p.opsPerS())
	}
	return median(rates)
}

func sumStats(ws []worker) (remote.Stats, latSum) {
	var t remote.Stats
	var lt latSum
	for _, w := range ws {
		st, l := w.stats()
		t = addStats(t, st)
		lt = lt.plus(l)
	}
	return t, lt
}

// addStats adds the counters the benchmark reports; the latency summaries
// travel as latSum, since stats.Summary has no merge.
func addStats(a, b remote.Stats) remote.Stats {
	a.Faults += b.Faults
	a.Evictions += b.Evictions
	a.PutPages += b.PutPages
	a.BytesIn += b.BytesIn
	a.Retries += b.Retries
	a.Failovers += b.Failovers
	a.Hedges += b.Hedges
	a.Cancels += b.Cancels
	a.WrongShard += b.WrongShard
	return a
}

func subStats(a, b remote.Stats) remote.Stats {
	a.Faults -= b.Faults
	a.Evictions -= b.Evictions
	a.PutPages -= b.PutPages
	a.BytesIn -= b.BytesIn
	a.Retries -= b.Retries
	a.Failovers -= b.Failovers
	a.Hedges -= b.Hedges
	a.Cancels -= b.Cancels
	a.WrongShard -= b.WrongShard
	return a
}
