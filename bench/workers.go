package main

import (
	"bytes"

	"github.com/gms-sim/gmsubpage/internal/remote"
	"github.com/gms-sim/gmsubpage/internal/rng"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// latSum folds a client's own fault-latency summaries (microseconds) to
// counts and sums, so they can be added across clients and differenced over a
// window.
type latSum struct{ subN, subSum, fullN, fullSum float64 }

func (a latSum) plus(b latSum) latSum {
	return latSum{a.subN + b.subN, a.subSum + b.subSum, a.fullN + b.fullN, a.fullSum + b.fullSum}
}

func (a latSum) minus(b latSum) latSum {
	return latSum{a.subN - b.subN, a.subSum - b.subSum, a.fullN - b.fullN, a.fullSum - b.fullSum}
}

func (a latSum) add(s remote.Stats) latSum {
	a.subN += float64(s.SubpageLat.N())
	a.subSum += s.SubpageLat.Sum()
	a.fullN += float64(s.FullLat.N())
	a.fullSum += s.FullLat.Sum()
	return a
}

// clientWorker is the part every worker with one long-lived client shares.
type clientWorker struct {
	c *remote.Client
	r *rng.Rand
}

func (w *clientWorker) stats() (remote.Stats, latSum) {
	st := w.c.Stats()
	return st, latSum{}.add(st)
}
func (w *clientWorker) close() { _ = w.c.Close() }

// churnWorker reads 64 B at a uniform random (page, offset) of the full page
// set through a cache an eighth its size: ~88 % of ops fault and evict. With
// pair set (atm-pair) the op goes on to read the whole 8 KB page, so first is
// the paper's subpage latency and whole its page-complete latency, both from
// the op's start.
type churnWorker struct {
	clientWorker
	pages int
	pair  bool
	buf   [readSize]byte
	page  []byte
}

func (w *churnWorker) step(l *lane) step {
	p := uint64(w.r.Intn(w.pages))
	off := w.r.Intn(units.PageSize - readSize + 1)
	root := l.begin("op")
	t0 := now()
	sp := l.begin("client.Read")
	err := w.c.Read(w.buf[:], p*units.PageSize+uint64(off))
	l.end(sp)
	t1 := now()
	s := step{first: t1.Sub(t0), ops: 1}
	if err == nil && w.pair {
		sp = l.begin("client.Read.page")
		err = w.c.Read(w.page, p*units.PageSize)
		l.end(sp)
		t1 = now()
	}
	l.end(root)
	s.whole, s.end, s.err = t1.Sub(t0), t1, err
	if err == nil {
		s.bad = !checkPattern(w.buf[:], p, off) || (w.pair && !checkPattern(w.page, p, 0))
	}
	return s
}

// writebackWorker owns a private range of pages and a shadow copy of them:
// half its ops write 64 B, half read a whole page and compare it with the
// shadow. Dirty pages leave the cache through PutPage and must read back as
// written.
type writebackWorker struct {
	clientWorker
	base, n int // owns pages [base, base+n)
	shadow  []byte
	buf     [readSize]byte
	page    []byte
}

func (w *writebackWorker) step(l *lane) step {
	i := w.r.Intn(w.n)
	p := uint64(w.base + i)
	sh := w.shadow[i*units.PageSize : (i+1)*units.PageSize]
	root := l.begin("op")
	var err error
	var bad bool
	t0 := now()
	if w.r.Uint64()&1 == 0 {
		off := w.r.Intn(units.PageSize - readSize + 1)
		for k := range w.buf {
			w.buf[k] = byte(w.r.Uint64())
		}
		t0 = now()
		sp := l.begin("client.Write")
		err = w.c.Write(w.buf[:], p*units.PageSize+uint64(off))
		l.end(sp)
		if err == nil {
			copy(sh[off:], w.buf[:])
		}
	} else {
		sp := l.begin("client.Read.page")
		err = w.c.Read(w.page, p*units.PageSize)
		l.end(sp)
		bad = err == nil && !bytes.Equal(w.page, sh)
	}
	t1 := now()
	l.end(root)
	return step{first: t1.Sub(t0), whole: t1.Sub(t0), ops: 1, end: t1, err: err, bad: bad}
}

// hitBatch is how many resident reads make one timed unit: a single hit is a
// few hundred nanoseconds, too short to time alone.
const hitBatch = 8192

// hitWorker reads 64 B from pages that are all resident and fully valid, on a
// client it shares with the other workers: cache and lock path only.
type hitWorker struct {
	clientWorker
	owner bool   // closes the shared client
	slots []byte // hitBatch reads land side by side, checked after the clock stops
	// table holds seeded (page<<16 | offset) targets drawn at set-up; each
	// batch reads a run of it from a random start, so drawing targets is not
	// part of the window.
	table []uint32
}

func (w *hitWorker) step(l *lane) step {
	k0 := w.r.Intn(len(w.table) - hitBatch + 1)
	where := w.table[k0 : k0+hitBatch]
	root := l.begin("op.batch")
	var err error
	t0 := now()
	for k, at := range where {
		addr := uint64(at>>16)*units.PageSize + uint64(at&0xffff)
		if e := w.c.Read(w.slots[k*readSize:(k+1)*readSize], addr); e != nil {
			err = e
		}
	}
	t1 := now()
	l.end(root)
	s := step{first: t1.Sub(t0), whole: t1.Sub(t0), ops: hitBatch, end: t1, err: err}
	for k, at := range where {
		if !checkPattern(w.slots[k*readSize:(k+1)*readSize], uint64(at>>16), int(at&0xffff)) {
			s.bad = true
		}
	}
	return s
}

// The shared client's counters are reported once, by the owner.
func (w *hitWorker) stats() (remote.Stats, latSum) {
	if !w.owner {
		return remote.Stats{}, latSum{}
	}
	return w.clientWorker.stats()
}

func (w *hitWorker) close() {
	if w.owner {
		_ = w.c.Close()
	}
}

// coldWorker loops sessions: dial a fresh client, first-touch every page of
// its range once, close. Every op pays the directory locate that the warmed
// workloads never do; Dial and Close run between ops, outside any op's clock.
type coldWorker struct {
	cl    *cluster
	r     *rng.Rand
	order []uint64 // the worker's pages, in its seeded first-touch order
	pos   int
	c     *remote.Client
	done  remote.Stats // counters of closed sessions
	lats  latSum
	buf   [readSize]byte
}

func (w *coldWorker) step(l *lane) step {
	root := l.begin("op")
	if w.c == nil {
		sp := l.begin("client.Dial")
		c, err := w.cl.dial()
		l.end(sp)
		if err != nil {
			l.end(root)
			return step{ops: 1, end: now(), err: err}
		}
		w.c = c
	}
	p := w.order[w.pos]
	off := w.r.Intn(units.PageSize - readSize + 1)
	t0 := now()
	sp := l.begin("client.Read")
	err := w.c.Read(w.buf[:], p*units.PageSize+uint64(off))
	l.end(sp)
	t1 := now()
	s := step{first: t1.Sub(t0), whole: t1.Sub(t0), ops: 1, err: err}
	if err == nil {
		s.bad = !checkPattern(w.buf[:], p, off)
	}
	if w.pos++; w.pos == len(w.order) {
		w.pos = 0
		w.endSession(l)
	}
	l.end(root)
	s.end = now()
	return s
}

func (w *coldWorker) endSession(l *lane) {
	st := w.c.Stats()
	w.done = addStats(w.done, st)
	w.lats = w.lats.add(st)
	sp := l.begin("client.Close")
	_ = w.c.Close()
	l.end(sp)
	w.c = nil
}

func (w *coldWorker) stats() (remote.Stats, latSum) {
	if w.c == nil {
		return w.done, w.lats
	}
	st := w.c.Stats()
	return addStats(w.done, st), w.lats.add(st)
}

func (w *coldWorker) close() {
	if w.c != nil {
		w.endSession(nil)
	}
}
