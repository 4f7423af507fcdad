package remote

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/gms-sim/gmsubpage/internal/dirlog"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// durableDirectory stands up a journaling directory whose data lives in
// dir. crashAfter is the dirlog crash-injection knob (0 disables it).
func durableDirectory(t *testing.T, dir string, ttl time.Duration, crashAfter int) *Directory {
	t.Helper()
	d, err := ListenDirectoryWith("127.0.0.1:0", DirectoryConfig{
		LeaseTTL: ttl,
		Journal:  &dirlog.Options{Dir: dir, Fsync: dirlog.FsyncAlways, CrashAfter: crashAfter},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// journalState replays the on-disk journal directly, bypassing the
// directory — ground truth for what durably survived.
func journalState(t *testing.T, dir string) *dirlog.State {
	t.Helper()
	j, st, err := dirlog.Open(dirlog.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDirectoryRecoversFromJournal(t *testing.T) {
	jdir := t.TempDir()
	d1 := durableDirectory(t, jdir, time.Minute, 0)
	addr := d1.Addr()
	if rawRegister(t, addr, proto.Register{Addr: "a:1", Epoch: 10, Pages: []uint64{1, 2}}) != proto.TAck {
		t.Fatal("register a:1 rejected")
	}
	if rawRegister(t, addr, proto.Register{Addr: "b:2", Epoch: 5, Pages: []uint64{2, 3}}) != proto.TAck {
		t.Fatal("register b:2 rejected")
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := durableDirectory(t, jdir, time.Minute, 0)
	info := d2.JournalInfo()
	if !info.Recovered {
		t.Fatal("second open did not recover from the journal")
	}
	if d2.recoveredN != 2 {
		t.Fatalf("recovered %d servers, want 2", d2.recoveredN)
	}
	for p, want := range map[uint64]string{1: "a:1", 3: "b:2"} {
		if got, ok := d2.Lookup(p); !ok || got != want {
			t.Fatalf("Lookup(%d) = %q,%v want %q", p, got, ok, want)
		}
	}
	// Registration seniority survives: a:1 registered first, so it stays
	// page 2's primary after recovery.
	if got := d2.Replicas(2); len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Fatalf("Replicas(2) = %v, want [a:1 b:2]", got)
	}
	for srv, want := range map[string]uint64{"a:1": 10, "b:2": 5} {
		if e, ok := d2.ServerEpoch(srv); !ok || e != want {
			t.Fatalf("ServerEpoch(%s) = %d,%v want %d", srv, e, ok, want)
		}
	}
}

// TestJournalCrashPointEquivalence is the table-driven crash test: the
// same mutation script runs against a directory whose journal is rigged
// to crash after its Nth record, for every N the script can produce. The
// invariant: the state a restarted directory serves must be exactly the
// replay of the journal prefix that survived — nothing invented, nothing
// reordered — modulo lease expiry, which recovery deliberately rewrites
// to the grace window.
func TestJournalCrashPointEquivalence(t *testing.T) {
	// The script behind mutate journals, in order:
	//   1 Register a:1          4 Drain b:2
	//   2 Register b:2          5 Fence b:2
	//   3 Register a:1 (epoch+) 6 Expunge b:2
	// (records 4-6 all come from the one Drain call; every page of b:2
	// is replicated on a:1 by then, so the drain moves nothing and needs
	// no live page server).
	const records = 6
	mutate := func(t *testing.T, d *Directory) {
		addr := d.Addr()
		if rawRegister(t, addr, proto.Register{Addr: "a:1", Epoch: 10, Pages: []uint64{1, 2}}) != proto.TAck {
			t.Fatal("register a:1 rejected")
		}
		if rawRegister(t, addr, proto.Register{Addr: "b:2", Epoch: 5, Pages: []uint64{2, 9}}) != proto.TAck {
			t.Fatal("register b:2 rejected")
		}
		if rawRegister(t, addr, proto.Register{Addr: "a:1", Epoch: 11, Pages: []uint64{1, 2, 9}}) != proto.TAck {
			t.Fatal("re-register a:1 rejected")
		}
		if moved, err := d.Drain("b:2"); err != nil {
			t.Fatalf("drain b:2: %v", err)
		} else if moved != 0 {
			t.Fatalf("drain moved %d pages, want 0 (page 2 is replicated)", moved)
		}
	}
	for n := 0; n <= records; n++ {
		t.Run(fmt.Sprintf("crash-after-%d", n), func(t *testing.T) {
			jdir := t.TempDir()
			crashAfter := n
			if n == 0 {
				crashAfter = -1 // crash before the first record
			}
			d1 := durableDirectory(t, jdir, time.Minute, crashAfter)
			mutate(t, d1)
			if err := d1.Kill(); err != nil {
				t.Fatal(err)
			}

			d2 := durableDirectory(t, jdir, time.Minute, 0)
			got := d2.StateSnapshot()
			if err := d2.Close(); err != nil {
				t.Fatal(err)
			}
			// Ground truth: replay the surviving journal bytes directly.
			// (Read after d2's run so it includes the DrainAbort recovery
			// itself journals for a crash that landed mid-drain.)
			want := journalState(t, jdir)
			if len(want.Draining) != 0 {
				t.Fatalf("recovery left draining marks in the journal: %v", want.Draining)
			}
			if !got.Equal(want, false) {
				t.Fatalf("crash after %d records: recovered directory state diverges from journal replay\n got: %+v\nwant: %+v", n, got, want)
			}
			// Spot-check the semantics at the interesting boundaries.
			switch {
			case n < 1:
				if len(want.Servers) != 0 {
					t.Fatalf("no records survived but %d servers recovered", len(want.Servers))
				}
			case n < 3: // a:1 registered, still at epoch 10
				if s := want.Servers["a:1"]; s == nil || s.Epoch != 10 {
					t.Fatalf("after %d records a:1 = %+v, want epoch 10", n, s)
				}
			case n < 5: // re-register applied, b:2 not yet fenced
				if s := want.Servers["a:1"]; s == nil || s.Epoch != 11 {
					t.Fatalf("after %d records a:1 = %+v, want epoch 11", n, s)
				}
				if want.Servers["b:2"] == nil {
					t.Fatalf("after %d records b:2 missing before its fence", n)
				}
			default: // the fence survived (its replay alone expunges b:2)
				if want.Servers["b:2"] != nil {
					t.Fatalf("after %d records b:2 still registered past its fence", n)
				}
				if want.Epochs["b:2"] != 6 {
					t.Fatalf("b:2 fence epoch = %d, want 6", want.Epochs["b:2"])
				}
			}
		})
	}
}

func TestEpochFencingSurvivesRestart(t *testing.T) {
	jdir := t.TempDir()
	d1 := durableDirectory(t, jdir, time.Minute, 0)
	if rawRegister(t, d1.Addr(), proto.Register{Addr: "a:1", Epoch: 10, Pages: []uint64{1}}) != proto.TAck {
		t.Fatal("registration rejected")
	}
	// Crash — no clean flush — and recover.
	if err := d1.Kill(); err != nil {
		t.Fatal(err)
	}
	d2 := durableDirectory(t, jdir, time.Minute, 0)
	// A delayed frame from a pre-crash stale incarnation must be rejected
	// exactly as it would have been before the crash...
	if typ := rawRegister(t, d2.Addr(), proto.Register{Addr: "a:1", Epoch: 9, Pages: []uint64{2}}); typ != proto.TError {
		t.Fatalf("stale-epoch registration after restart drew %v, want TError", typ)
	}
	if got := d2.Replicas(2); len(got) != 0 {
		t.Fatalf("stale registration leaked through recovery: %v", got)
	}
	// ...while the surviving incarnation renews at its own epoch freely.
	if rawRegister(t, d2.Addr(), proto.Register{Addr: "a:1", Epoch: 10, Pages: []uint64{3}}) != proto.TAck {
		t.Fatal("same-epoch re-registration after restart rejected")
	}

	// A drain's fence is just as durable: drain a:1 (page 1 is also held
	// by b:2, so nothing moves), crash, recover — the drained epoch stays
	// locked out.
	if rawRegister(t, d2.Addr(), proto.Register{Addr: "b:2", Epoch: 7, Pages: []uint64{1, 3}}) != proto.TAck {
		t.Fatal("register b:2 rejected")
	}
	if _, err := d2.Drain("a:1"); err != nil {
		t.Fatalf("drain a:1: %v", err)
	}
	if err := d2.Kill(); err != nil {
		t.Fatal(err)
	}
	d3 := durableDirectory(t, jdir, time.Minute, 0)
	if typ := rawRegister(t, d3.Addr(), proto.Register{Addr: "a:1", Epoch: 10, Pages: []uint64{1}}); typ != proto.TError {
		t.Fatalf("drained epoch re-registered after restart: drew %v, want TError", typ)
	}
	if e, ok := d3.ServerEpoch("a:1"); !ok || e != 11 {
		t.Fatalf("ServerEpoch(a:1) = %d,%v want the fence epoch 11", e, ok)
	}
}

func TestRestartGraceWindow(t *testing.T) {
	const ttl = 300 * time.Millisecond
	jdir := t.TempDir()
	d1 := durableDirectory(t, jdir, ttl, 0)
	if rawRegister(t, d1.Addr(), proto.Register{Addr: "a:1", Epoch: 10, Pages: []uint64{1}}) != proto.TAck {
		t.Fatal("registration rejected")
	}
	if err := d1.Kill(); err != nil {
		t.Fatal(err)
	}

	before := time.Now()
	d2 := durableDirectory(t, jdir, ttl, 0)
	// Recovered leases are live immediately — a restart must not blind
	// the directory to servers that outlived it...
	if got, ok := d2.Lookup(1); !ok || got != "a:1" {
		t.Fatalf("Lookup(1) right after recovery = %q,%v want a:1", got, ok)
	}
	// ...and expire within one TTL of recovery, never later: the grace
	// window is capped so a recovered-but-dead server cannot be served
	// longer than a live one that just stopped heartbeating.
	st := d2.StateSnapshot()
	if s := st.Servers["a:1"]; s == nil {
		t.Fatal("a:1 missing from recovered state")
	} else if exp := time.Unix(0, s.Expires); exp.After(before.Add(ttl + 100*time.Millisecond)) {
		t.Fatalf("recovered lease expires %v after recovery, beyond one TTL", exp.Sub(before))
	}
	// Without a heartbeat the grace lapses and the lease expires exactly
	// like any other.
	deadline := time.Now().Add(3 * ttl)
	for {
		if _, ok := d2.Lookup(1); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered lease never expired without heartbeats")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// With heartbeats the recovered lease renews and outlives the grace
	// window — run the same crash against a real heartbeating server.
	jdir2 := t.TempDir()
	d3 := durableDirectory(t, jdir2, ttl, 0)
	srv, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Store(7, pagePattern(7))
	srv.SetHeartbeatInterval(ttl / 6)
	if err := srv.RegisterWith(d3.Addr()); err != nil {
		t.Fatal(err)
	}
	addr := d3.Addr()
	if err := d3.Kill(); err != nil {
		t.Fatal(err)
	}
	d4, err := ListenDirectoryWith(addr, DirectoryConfig{
		LeaseTTL: ttl,
		Journal:  &dirlog.Options{Dir: jdir2, Fsync: dirlog.FsyncAlways},
	})
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { d4.Close() })
	time.Sleep(2 * ttl) // well past the grace window
	if got, ok := d4.Lookup(7); !ok || got != srv.Addr() {
		t.Fatalf("heartbeating server lost its recovered lease: Lookup(7) = %q,%v", got, ok)
	}
}

// TestGracefulDrain proves the decommission invariant end to end: every
// page whose only copy lives on the draining server is moved (with its
// bytes intact) before the lease drops, a client faulting throughout
// never sees ErrPageUnavailable, and the drained incarnation's epoch is
// fenced.
func TestGracefulDrain(t *testing.T) {
	const npages = 8
	jdir := t.TempDir()
	d := durableDirectory(t, jdir, time.Minute, 0)

	srcSrv, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srcSrv.Close() })
	for p := uint64(0); p < npages; p++ {
		srcSrv.Store(p, pagePattern(p))
	}
	srcSrv.SetEpoch(100)
	if err := srcSrv.RegisterWith(d.Addr()); err != nil {
		t.Fatal(err)
	}
	destSrv, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { destSrv.Close() })
	if err := destSrv.RegisterWith(d.Addr()); err != nil {
		t.Fatal(err)
	}

	// A client faults across the draining server's pages for the whole
	// drain. The cache holds 2 of the 8 pages, so it faults continuously;
	// any ErrPageUnavailable — any window where a page had no live holder
	// — fails the test.
	cl, err := Dial(ClientConfig{Directory: d.Addr(), CachePages: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	var stopLoad atomic.Bool
	var unavailable atomic.Int64
	var loadErr error
	var once sync.Once
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 64)
		for p := uint64(0); !stopLoad.Load(); p = (p + 1) % npages {
			if err := cl.Read(buf, p*units.PageSize); err != nil {
				if errors.Is(err, ErrPageUnavailable) {
					unavailable.Add(1)
				}
				once.Do(func() { loadErr = err })
			}
		}
	}()

	moved, err := DrainVia(d.Addr(), srcSrv.Addr(), 30*time.Second)
	if err != nil {
		t.Fatalf("DrainVia: %v", err)
	}
	if moved != npages {
		t.Fatalf("drain moved %d pages, want %d", moved, npages)
	}
	// Let the client keep faulting against the post-drain table briefly.
	time.Sleep(100 * time.Millisecond)
	stopLoad.Store(true)
	wg.Wait()
	if n := unavailable.Load(); n != 0 {
		t.Fatalf("%d faults failed with ErrPageUnavailable during the drain (first error: %v)", n, loadErr)
	}
	if loadErr != nil {
		t.Fatalf("client fault failed during drain: %v", loadErr)
	}

	// Every page now resolves to the destination, with its bytes intact.
	for p := uint64(0); p < npages; p++ {
		replicas := d.Replicas(p)
		found := false
		for _, a := range replicas {
			if a == destSrv.Addr() {
				found = true
			}
			if a == srcSrv.Addr() {
				t.Fatalf("page %d still lists the drained server: %v", p, replicas)
			}
		}
		if !found {
			t.Fatalf("page %d not registered on the destination: %v", p, replicas)
		}
		destSrv.mu.Lock()
		pb := destSrv.pages[p]
		destSrv.mu.Unlock()
		if pb == nil {
			t.Fatalf("page %d missing from the destination's store", p)
		}
		want := pagePattern(p)
		for i := range want {
			if pb.data[i] != want[i] {
				t.Fatalf("page %d byte %d = %#x, want %#x: drain corrupted the transfer", p, i, pb.data[i], want[i])
			}
		}
	}
	// The drained incarnation is fenced: its epoch can never re-register.
	if typ := rawRegister(t, d.Addr(), proto.Register{Addr: srcSrv.Addr(), Epoch: 100, Pages: []uint64{0}}); typ != proto.TError {
		t.Fatalf("drained epoch re-registered: drew %v, want TError", typ)
	}
	// Draining the last server must refuse, not strand the pages.
	if _, err := d.Drain(destSrv.Addr()); err == nil {
		t.Fatal("draining the only remaining server should fail")
	}
	if got := d.Replicas(0); len(got) != 1 || got[0] != destSrv.Addr() {
		t.Fatalf("failed drain disturbed the table: Replicas(0) = %v", got)
	}
}

// fakeSource starts a scripted page source on an ephemeral port and returns
// its address: every get on every connection is answered by reply, until the
// peer hangs up or reply fails.
func fakeSource(t *testing.T, reply func(*proto.Writer, proto.GetPageV2) error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	serve := func(conn net.Conn) {
		defer conn.Close()
		r, w := proto.NewReader(conn), proto.NewWriter(conn)
		for {
			f, err := r.Next()
			if err != nil || f.Type != proto.TGetPageV2 {
				return
			}
			req, err := proto.DecodeGetPageV2(f.Payload)
			if err != nil || reply(w, req) != nil {
				return
			}
		}
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go serve(conn)
		}
	}()
	return ln.Addr().String()
}

// TestDrainRejectsShortReply: a source whose reply carries FlagLast after
// half a page must fail the transfer. The fetch buffer is reused across
// pages, so accepting it would put a page that is half the previous page's
// bytes to the destination under this page's ID — and then fence the only
// real copy. The destination gets no put, the mark rolls back (a journaled
// DrainAbort) and the source stays the page's holder.
func TestDrainRejectsShortReply(t *testing.T) {
	jdir := t.TempDir()
	d := durableDirectory(t, jdir, time.Minute, 0)
	// One batch holding the first half of the page, flagged first and last.
	src := fakeSource(t, func(w *proto.Writer, req proto.GetPageV2) error {
		half := pagePattern(req.Page)[:units.PageSize/2]
		return w.SendSubpageBatch(req.ReqID, req.Page, proto.FlagFirst|proto.FlagLast,
			[]proto.SubpageRun{{Data: half}})
	})
	registerRaw(t, d.Addr(), src, []uint64{7})
	dest, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dest.Close() })
	if err := dest.RegisterWith(d.Addr()); err != nil {
		t.Fatal(err)
	}

	if err := transferPages(src, dest.Addr(), []uint64{7}); err == nil || !strings.Contains(err.Error(), "short of a page") {
		t.Fatalf("transferPages accepted a half-page reply: err = %v", err)
	}
	if moved, err := d.Drain(src); err == nil || moved != 0 {
		t.Fatalf("Drain = %d, %v; want 0 pages and the transfer's error", moved, err)
	}
	// Both connections to the destination are closed and drained by now or
	// soon after; a put would have been stored before the server saw EOF.
	time.Sleep(50 * time.Millisecond)
	if n := dest.Pages(); n != 0 {
		t.Fatalf("the destination stores %d pages after a refused transfer, want 0", n)
	}
	if got := d.Replicas(7); len(got) != 1 || got[0] != src {
		t.Fatalf("Replicas(7) = %v, want the source alone", got)
	}
	if st := d.StateSnapshot(); len(st.Draining) != 0 {
		t.Fatalf("failed drain left a draining mark: %v", st.Draining)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if st := journalState(t, jdir); len(st.Draining) != 0 {
		t.Fatalf("the journal still marks %v draining: the rollback was not recorded", st.Draining)
	}
}

// A complete page under another request's ID, or another page's number, is
// not this get's reply: the transfer fails instead of trusting it.
func TestDrainRejectsStrayBatch(t *testing.T) {
	_, dest := testCluster(t, 0)
	for name, skew := range map[string][2]uint64{"request ID": {1, 0}, "page": {0, 1}} {
		src := fakeSource(t, func(w *proto.Writer, req proto.GetPageV2) error {
			return w.SendSubpageBatch(req.ReqID+skew[0], req.Page+skew[1], proto.FlagFirst|proto.FlagLast,
				[]proto.SubpageRun{{Data: pagePattern(req.Page)}})
		})
		if err := transferPages(src, dest.Addr(), []uint64{7}); err == nil {
			t.Errorf("transferPages accepted a batch echoing the wrong %s", name)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if n := dest.Pages(); n != 0 {
		t.Fatalf("the destination stores %d pages after refused transfers, want 0", n)
	}
}

// TestDrainUnknownServer pins the error paths that must not touch state.
func TestDrainUnknownServer(t *testing.T) {
	d := leaseDirectory(t, time.Minute)
	if _, err := d.Drain("nobody:1"); err == nil {
		t.Fatal("draining an unregistered server should fail")
	}
	if rawRegister(t, d.Addr(), proto.Register{Addr: "a:1", Epoch: 3, Pages: []uint64{1}}) != proto.TAck {
		t.Fatal("registration rejected")
	}
	// a:1's page is sole-copy and there is no peer: refuse and leave it
	// registered.
	if _, err := d.Drain("a:1"); err == nil {
		t.Fatal("draining the only holder should fail")
	}
	if got, ok := d.Lookup(1); !ok || got != "a:1" {
		t.Fatalf("failed drain disturbed the table: Lookup(1) = %q,%v", got, ok)
	}
	if st := d.StateSnapshot(); len(st.Draining) != 0 {
		t.Fatalf("failed drain left a draining mark: %v", st.Draining)
	}
}

// TestDrainServerExpungedMidDrain pins the path where the draining
// server's lease expires and is expunged while its pages are in flight
// (the server died during the transfers): finishDrain must report the
// vanished registration — it used to dereference the nil entry and
// panic while holding the directory lock — and roll the draining mark
// back.
func TestDrainServerExpungedMidDrain(t *testing.T) {
	d := leaseDirectory(t, time.Minute)
	if rawRegister(t, d.Addr(), proto.Register{Addr: "a:1", Epoch: 10, Pages: []uint64{1}}) != proto.TAck {
		t.Fatal("register a:1 rejected")
	}
	if rawRegister(t, d.Addr(), proto.Register{Addr: "b:1", Epoch: 20, Pages: []uint64{1}}) != proto.TAck {
		t.Fatal("register b:1 rejected")
	}
	_, epoch, err := d.beginDrain("a:1")
	if err != nil {
		t.Fatal(err)
	}
	// The server dies mid-drain: the janitor expunges its lease.
	d.mu.Lock()
	d.commit(dirlog.Expunge{Addrs: []string{"a:1"}})
	d.mu.Unlock()
	if err := d.finishDrain("a:1", epoch); err == nil {
		t.Fatal("finishDrain must fail when the registration vanished mid-drain")
	}
	if st := d.StateSnapshot(); len(st.Draining) != 0 {
		t.Fatalf("aborted drain left a draining mark: %v", st.Draining)
	}
}

// TestDrainRefusesDrainingDestination pins the two-concurrent-drains
// hole: once the destination starts draining itself, committing
// sole-copy pages onto it would let its finishDrain expunge them with no
// live holder left, losing the pages. commitTransfer must refuse so the
// drain aborts and retries against a live destination.
func TestDrainRefusesDrainingDestination(t *testing.T) {
	d := leaseDirectory(t, time.Minute)
	// a:1 holds sole-copy page 1; b:1 shares page 2 with a:1, so b:1's
	// own drain has nothing to move and succeeds instantly.
	if rawRegister(t, d.Addr(), proto.Register{Addr: "a:1", Epoch: 10, Pages: []uint64{1, 2}}) != proto.TAck {
		t.Fatal("register a:1 rejected")
	}
	if rawRegister(t, d.Addr(), proto.Register{Addr: "b:1", Epoch: 20, Pages: []uint64{2}}) != proto.TAck {
		t.Fatal("register b:1 rejected")
	}
	plan, epoch, err := d.beginDrain("a:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 1 || plan[0].dest != "b:1" {
		t.Fatalf("plan = %+v, want page 1 -> b:1", plan)
	}
	// b:1 starts its own drain while a:1's transfer is in flight.
	if _, _, err := d.beginDrain("b:1"); err != nil {
		t.Fatal(err)
	}
	if err := d.commitTransfer("a:1", epoch, "b:1", plan[0].pages); err == nil {
		t.Fatal("commitTransfer must refuse a destination that began draining")
	}
	// The refused transfer left no replica on the draining destination.
	if got := d.Replicas(1); len(got) != 1 || got[0] != "a:1" {
		t.Fatalf("Replicas(1) = %v, want [a:1]", got)
	}
	d.abortDrain("a:1", epoch)
}

// TestStaleDrainAbortSparesNewIncarnation: a server restarts as a new
// incarnation while its drain is transferring, the new incarnation's own
// drain begins, and then the old drain's transfer fails. The old drain's
// abort must leave the new drain's mark alone, so the new drain finishes.
func TestStaleDrainAbortSparesNewIncarnation(t *testing.T) {
	jdir := t.TempDir()
	d := durableDirectory(t, jdir, time.Minute, 0)
	for _, reg := range []proto.Register{
		{Addr: "a:1", Epoch: 10, Pages: []uint64{1, 2}},
		{Addr: "b:1", Epoch: 20, Pages: []uint64{2}},
	} {
		if !d.applyRegister(reg, time.Now()) {
			t.Fatalf("register %s rejected", reg.Addr)
		}
	}
	_, oldEpoch, err := d.beginDrain("a:1")
	if err != nil {
		t.Fatal(err)
	}
	if !d.applyRegister(proto.Register{Addr: "a:1", Epoch: 11, Pages: []uint64{2}}, time.Now()) {
		t.Fatal("the new incarnation's registration was rejected")
	}
	_, newEpoch, err := d.beginDrain("a:1")
	if err != nil {
		t.Fatalf("the new incarnation cannot be drained: %v", err)
	}
	d.abortDrain("a:1", oldEpoch) // the old drain's transfer failed
	if err := d.finishDrain("a:1", newEpoch); err != nil {
		t.Fatalf("the new incarnation's drain did not finish after the old drain's abort: %v", err)
	}
	if got := d.Replicas(2); len(got) != 1 || got[0] != "b:1" {
		t.Fatalf("Replicas(2) = %v, want [b:1]", got)
	}
	if live, replay := d.StateSnapshot(), journalState(t, jdir); !live.Equal(replay, true) {
		t.Fatalf("the live table is not its journal's replay\n  live: %+v\nreplay: %+v", live.Records(), replay.Records())
	}
}

// TestStaleDrainCommitSparesNewIncarnation: a server restarts as a new
// incarnation while its drain is transferring, and the new incarnation's own
// drain begins. The old drain's transfer then lands. Its pages were copied
// from the old incarnation, so committing them would route lookups to bytes
// older than the new incarnation's: the commit must be refused.
func TestStaleDrainCommitSparesNewIncarnation(t *testing.T) {
	jdir := t.TempDir()
	d := durableDirectory(t, jdir, time.Minute, 0)
	for _, reg := range []proto.Register{
		{Addr: "a:1", Epoch: 10, Pages: []uint64{1, 2}},
		{Addr: "b:1", Epoch: 20, Pages: []uint64{2}},
	} {
		if !d.applyRegister(reg, time.Now()) {
			t.Fatalf("register %s rejected", reg.Addr)
		}
	}
	plan, oldEpoch, err := d.beginDrain("a:1")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 1 || plan[0].dest != "b:1" || !slices.Equal(plan[0].pages, []uint64{1}) {
		t.Fatalf("plan = %+v, want page 1 -> b:1", plan)
	}
	if !d.applyRegister(proto.Register{Addr: "a:1", Epoch: 11, Pages: []uint64{2}}, time.Now()) {
		t.Fatal("the new incarnation's registration was rejected")
	}
	if _, _, err := d.beginDrain("a:1"); err != nil {
		t.Fatalf("the new incarnation cannot be drained: %v", err)
	}
	if err := d.commitTransfer("a:1", oldEpoch, plan[0].dest, plan[0].pages); err == nil {
		t.Fatal("the old drain committed its transfer during the new incarnation's drain")
	}
	if got := d.Replicas(1); len(got) != 0 {
		t.Fatalf("Replicas(1) = %v, want none: page 1 left with the old incarnation", got)
	}
	if live, replay := d.StateSnapshot(), journalState(t, jdir); !live.Equal(replay, true) {
		t.Fatalf("the live table is not its journal's replay\n  live: %+v\nreplay: %+v", live.Records(), replay.Records())
	}
}
