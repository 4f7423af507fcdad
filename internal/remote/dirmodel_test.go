package remote

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/gms-sim/gmsubpage/internal/dirlog"
	"github.com/gms-sim/gmsubpage/internal/proto"
)

// TestLiveTableEqualsJournalReplay: a draining server whose registration
// ends some other way than its drain — a new incarnation registers, or
// the lease expires — loses its draining mark in the live table exactly
// as in the replay of the journal, and a new incarnation can be drained.
func TestLiveTableEqualsJournalReplay(t *testing.T) {
	for _, tc := range []struct {
		name  string
		event func(d *Directory)
	}{
		{"reregister-mid-drain", func(d *Directory) {
			d.applyRegister(proto.Register{Addr: "a:1", Epoch: 2, Pages: []uint64{1}}, time.Now())
		}},
		{"expire-mid-drain", func(d *Directory) { d.sweep(time.Now().Add(2 * time.Minute)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			jdir := t.TempDir()
			d := durableDirectory(t, jdir, time.Minute, 0)
			for _, a := range []string{"a:1", "b:1"} {
				if !d.applyRegister(proto.Register{Addr: a, Epoch: 1, Pages: []uint64{1}}, time.Now()) {
					t.Fatalf("register %s rejected", a)
				}
			}
			if _, _, err := d.beginDrain("a:1"); err != nil {
				t.Fatal(err)
			}
			tc.event(d)
			live, replay := d.StateSnapshot(), journalState(t, jdir)
			if !live.Equal(replay, true) {
				t.Fatalf("the live table is not its journal's replay\n  live: %+v\nreplay: %+v", live.Records(), replay.Records())
			}
			if live.Servers["a:1"] != nil {
				if _, _, err := d.beginDrain("a:1"); err != nil {
					t.Fatalf("the new incarnation cannot be drained: %v", err)
				}
			}
		})
	}
}

// TestDirectoryModel drives a live journaling Directory through its
// decide methods with a seeded stream of actions on a synthetic clock and,
// after every step, holds it to two oracles: the replay of its own journal
// (the live table must be exactly what the journal says) and refModel, a
// restatement of the lease rules that shares no code with the directory
// (every lookup and every accept/refuse must be what those rules predict).
// A failing seed names the -run pattern that replays it alone.
func TestDirectoryModel(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 15
	}
	for seed := 1; seed <= seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Cleanup(func() {
				if t.Failed() {
					t.Logf("replay: go test ./internal/remote -run 'TestDirectoryModel/seed=%d$'", seed)
				}
			})
			runDirectoryModel(t, rand.New(rand.NewSource(int64(seed))), 150)
		})
	}
}

// The model's clock: one tick per synthetic minute, leases of ttlTicks. The
// directory's real janitor (period TTL/4) never fires within a test, so
// every sweep is one the stream asked for. The drain steps read the wall
// clock, which stays milliseconds past t0; every lease any step grants
// expires at least one TTL past t0, so at drain time each present lease is
// live — which is what refModel's drain rules assume.
const (
	modelTick = time.Minute
	ttlTicks  = 10
)

func runDirectoryModel(t *testing.T, rng *rand.Rand, steps int) {
	t0 := time.Now()
	jdir := t.TempDir()
	open := func() *Directory {
		d, err := ListenDirectoryWith("127.0.0.1:0", DirectoryConfig{
			LeaseTTL: ttlTicks * modelTick,
			Journal:  &dirlog.Options{Dir: jdir, Fsync: dirlog.FsyncNever, SnapshotEvery: 16},
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := open()
	t.Cleanup(func() { d.Close() })
	m := &refModel{epochs: map[string]uint64{}, leases: map[string]*refLease{}, draining: map[string]bool{}}
	addrs := []string{"a:1", "b:1", "c:1", "d:1"}
	type run struct {
		addr  string
		epoch uint64
		plan  []transfer
	}
	var runs []*run // drains in flight, as concurrent Drain calls would hold them
	tick := 0
	for step := 0; step < steps; step++ {
		now := t0.Add(time.Duration(tick) * modelTick)
		addr := addrs[rng.Intn(len(addrs))]
		var act string
		check := func(what string, got, want bool) {
			if got != want {
				t.Fatalf("step %d, %s: directory %s = %v, the lease rules say %v", step, act, what, got, want)
			}
		}
		switch k := rng.Intn(20); {
		case k < 5:
			epoch := m.epochs[addr] + uint64(rng.Intn(3))
			if epoch > 0 {
				epoch-- // below, at or above the current epoch
			}
			pages := []uint64{uint64(rng.Intn(8)), uint64(rng.Intn(8))}
			act = fmt.Sprintf("register %s epoch %d pages %v at tick %d", addr, epoch, pages, tick)
			check("accepted", d.applyRegister(proto.Register{Addr: addr, Epoch: epoch, Pages: pages}, now), m.register(addr, epoch, pages, tick))
		case k < 8:
			epoch := m.epochs[addr] + uint64(rng.Intn(4)/3) // now and then a wrong one
			act = fmt.Sprintf("heartbeat %s epoch %d at tick %d", addr, epoch, tick)
			check("renewed", d.renewLease(proto.Heartbeat{Addr: addr, Epoch: epoch}, now), m.renew(addr, epoch, tick))
		case k < 10:
			tick += rng.Intn(4)
			act = fmt.Sprintf("sweep at tick %d", tick)
			d.sweep(t0.Add(time.Duration(tick) * modelTick))
			m.sweep(tick)
		case k < 13:
			// A group lookup: pages 0-7 share one placement group, so the
			// answer holds every page's placement, the asked page's first.
			page := uint64(rng.Intn(8))
			act = fmt.Sprintf("lookup page %d at tick %d", page, tick)
			var sc lookupScratch
			d.mu.RLock()
			ents := d.answerLocked(&sc, proto.Lookup{Page: page, Group: true}, now)
			d.mu.RUnlock()
			got := make(map[uint64][]string)
			for _, e := range ents {
				got[e.Page] = e.Addrs
			}
			if len(got) != len(ents) || len(ents) > 0 && ents[0].Page != page && got[page] != nil {
				t.Fatalf("step %d, %s: answer %v repeats a page or does not lead with the asked one", step, act, ents)
			}
			for p := uint64(0); p < 8; p++ {
				if want := m.lookup(p, tick); !slices.Equal(got[p], want) {
					t.Fatalf("step %d, %s: directory answers %v for page %d, the lease rules say %v", step, act, got[p], p, want)
				}
			}
		case k < 15:
			act = "begin drain of " + addr
			plan, epoch, err := d.beginDrain(addr)
			sole, ok := m.beginDrain(addr)
			check("began", err == nil, ok)
			if err == nil {
				var planned []uint64
				for _, tr := range plan {
					planned = append(planned, tr.pages...)
					if tr.dest == addr || m.leases[tr.dest] == nil || m.draining[tr.dest] {
						t.Fatalf("step %d, %s: plan sends pages to %s, not a live peer", step, act, tr.dest)
					}
				}
				slices.Sort(planned)
				if !slices.Equal(planned, sole) || epoch != m.leases[addr].epoch {
					t.Fatalf("step %d, %s: plan moves %v at epoch %d, the lease rules say %v at %d", step, act, planned, epoch, sole, m.leases[addr].epoch)
				}
				runs = append(runs, &run{addr: addr, epoch: epoch, plan: plan})
			}
		case k < 18 && len(runs) > 0:
			i := rng.Intn(len(runs))
			r, ended := runs[i], true
			switch {
			case rng.Intn(5) == 0: // the transfer failed
				act = fmt.Sprintf("abort drain of %s epoch %d", r.addr, r.epoch)
				d.abortDrain(r.addr, r.epoch)
				m.abortDrain(r.addr, r.epoch)
			case len(r.plan) > 0:
				tr := r.plan[0]
				act = fmt.Sprintf("commit drain of %s epoch %d: %v to %s", r.addr, r.epoch, tr.pages, tr.dest)
				err := d.commitTransfer(r.addr, r.epoch, tr.dest, tr.pages)
				check("committed", err == nil, m.commitTransfer(r.addr, r.epoch, tr.dest, tr.pages))
				if r.plan, ended = r.plan[1:], err != nil; ended {
					d.abortDrain(r.addr, r.epoch) // as Drain does
					m.abortDrain(r.addr, r.epoch)
				}
			default:
				act = fmt.Sprintf("finish drain of %s epoch %d", r.addr, r.epoch)
				check("finished", d.finishDrain(r.addr, r.epoch) == nil, m.finishDrain(r.addr, r.epoch))
			}
			if ended {
				runs = slices.Delete(runs, i, i+1)
			}
		case k >= 18 && rng.Intn(3) == 0:
			act = "kill and restart"
			if err := d.Kill(); err != nil {
				t.Fatal(err)
			}
			// Recovery aborts every drain the crash interrupted.
			want := journalState(t, jdir)
			for a := range want.Draining {
				want.Apply(dirlog.DrainAbort{Addr: a})
			}
			d = open()
			if got := d.StateSnapshot(); !got.Equal(want, false) {
				t.Fatalf("step %d: restarted table is not the pre-crash replay\n   got: %+v\nreplay: %+v", step, got.Records(), want.Records())
			}
			runs = nil
			m.restart()
			// The restart read the wall clock, a moment past t0: run the
			// model clock past it, as real time would be.
			tick = max(tick, 1)
		default:
			continue
		}
		// Renewals not yet flushed, and recovery's grace, are the two
		// expiries the journal does not hold.
		exact := len(d.pending) == 0 && !m.graced()
		if live, replay := d.StateSnapshot(), journalState(t, jdir); !live.Equal(replay, exact) {
			t.Fatalf("step %d, after %s: the live table is not its journal's replay (expiry compared: %v)\n  live: %+v\nreplay: %+v",
				step, act, exact, live.Records(), replay.Records())
		}
	}
}

// refModel is the lease rules as a reader of DESIGN.md would state them,
// in ticks of the model clock, written without reference to the directory.
type refModel struct {
	seq      uint64
	epochs   map[string]uint64
	leases   map[string]*refLease
	draining map[string]bool
}

type refLease struct {
	epoch, seq uint64
	exp        int // last tick at which the lease is live
	pages      map[uint64]bool
	// graced: recovery set exp without a record, so until the next
	// registration the journal's replay holds the pre-crash expiry.
	graced bool
}

func (m *refModel) drop(addr string) { delete(m.leases, addr); delete(m.draining, addr) }

// register: an epoch below the highest seen is refused; a new epoch is a
// new incarnation ranked behind every holder; the same one keeps its rank.
func (m *refModel) register(addr string, epoch uint64, pages []uint64, now int) bool {
	if epoch < m.epochs[addr] {
		return false
	}
	m.epochs[addr] = epoch
	l := m.leases[addr]
	if l == nil || l.epoch != epoch {
		m.drop(addr)
		m.seq++
		l = &refLease{epoch: epoch, seq: m.seq, pages: map[uint64]bool{}}
		m.leases[addr] = l
	}
	l.exp, l.graced = now+ttlTicks, false
	for _, p := range pages {
		l.pages[p] = true
	}
	return true
}

// renew extends only a live lease of the named incarnation.
func (m *refModel) renew(addr string, epoch uint64, now int) bool {
	l := m.leases[addr]
	if l == nil || l.epoch != epoch || now > l.exp {
		return false
	}
	l.exp = now + ttlTicks
	return true
}

func (m *refModel) sweep(now int) {
	for addr, l := range m.leases {
		if now > l.exp {
			m.drop(addr)
		}
	}
}

// lookup lists the live holders, most senior first, the rest by address.
func (m *refModel) lookup(page uint64, now int) []string {
	var live []string
	for addr, l := range m.leases {
		if l.pages[page] && now <= l.exp {
			live = append(live, addr)
		}
	}
	sort.Slice(live, func(i, j int) bool { return m.leases[live[i]].seq < m.leases[live[j]].seq })
	if len(live) > 1 {
		sort.Strings(live[1:])
	}
	return live
}

// beginDrain marks addr and reports the pages no other server holds; it
// refuses an absent or draining server, or sole copies with nowhere to go.
func (m *refModel) beginDrain(addr string) ([]uint64, bool) {
	l := m.leases[addr]
	if l == nil || m.draining[addr] {
		return nil, false
	}
	var sole []uint64
	for p := range l.pages {
		if len(m.holders(p)) == 1 {
			sole = append(sole, p)
		}
	}
	slices.Sort(sole)
	peers := 0
	for a := range m.leases {
		if a != addr && !m.draining[a] {
			peers++
		}
	}
	if len(sole) > 0 && peers == 0 {
		return nil, false
	}
	m.draining[addr] = true
	return sole, true
}

func (m *refModel) holders(page uint64) (hs []string) {
	for a, l := range m.leases {
		if l.pages[page] {
			hs = append(hs, a)
		}
	}
	return hs
}

// commitTransfer needs a present, undrained destination and the drained
// incarnation still registered and marked draining.
func (m *refModel) commitTransfer(addr string, epoch uint64, dest string, pages []uint64) bool {
	l, src := m.leases[dest], m.leases[addr]
	if l == nil || m.draining[dest] || src == nil || src.epoch != epoch || !m.draining[addr] {
		return false
	}
	for _, p := range pages {
		l.pages[p] = true
	}
	return true
}

// abortDrain clears the mark only while the incarnation whose drain failed
// holds the lease: a newer one's mark is its own drain's.
func (m *refModel) abortDrain(addr string, epoch uint64) {
	if l := m.leases[addr]; l != nil && l.epoch == epoch {
		delete(m.draining, addr)
	}
}

// finishDrain fences and drops the drained incarnation, if it is still
// the registered one and still marked.
func (m *refModel) finishDrain(addr string, epoch uint64) bool {
	l := m.leases[addr]
	if l == nil || l.epoch != epoch || !m.draining[addr] {
		return false
	}
	m.epochs[addr] = max(epoch+1, m.epochs[addr])
	m.drop(addr)
	return true
}

// restart: drains die with the process, and every recovered lease gets
// one TTL from the restart, which the model clock places at tick 0.
func (m *refModel) restart() {
	m.draining = map[string]bool{}
	for _, l := range m.leases {
		l.exp, l.graced = ttlTicks, true
	}
}

func (m *refModel) graced() bool {
	for _, l := range m.leases {
		if l.graced {
			return true
		}
	}
	return false
}
