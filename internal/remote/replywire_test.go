package remote

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sort"
	"testing"
	"time"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/netmodel"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// This file pins the v2 reply's send path: how many writes a reply costs,
// and that assembling an un-paced reply into one write changed no byte of
// it. referenceReply below is the sender this one replaced — a write per
// batch, the plain and the emulated wire as two branches — kept as the
// oracle.

// recConn is a net.Conn that records what is written to it.
type recConn struct {
	nopConn
	buf bytes.Buffer
}

func (c *recConn) Write(b []byte) (int, error) { return c.buf.Write(b) }

// referenceReply writes the reply stream of the two-write sender for one
// get: the faulted message and one batch for the remainder on a raw
// loopback, one batch per plan message (extras on the last) when paced.
func referenceReply(w *proto.Writer, plan []core.PlannedMessage, req proto.GetPageV2, paced bool, data []byte) error {
	off := int(req.FaultOff)
	want := memmodel.Bitmap(req.Want)
	if want == 0 {
		want = ^memmodel.Bitmap(0)
	}
	want |= 1 << (off / units.MinSubpage)
	writeBatch := func(flags uint8, covers memmodel.Bitmap) error {
		var runs []proto.SubpageRun
		for _, run := range bitmapRuns(covers) {
			runs = append(runs, proto.SubpageRun{Off: uint32(run.start), Data: data[run.start:run.end]})
		}
		return w.SendSubpageBatch(req.ReqID, req.Page, flags, runs)
	}

	first := plan[0].Covers & want
	rest := want &^ first
	if !paced {
		flags := uint8(proto.FlagFirst)
		if rest == 0 {
			flags |= proto.FlagLast
		}
		if err := writeBatch(flags, first); err != nil || rest == 0 {
			return err
		}
		return writeBatch(proto.FlagLast, rest)
	}

	planned := memmodel.Bitmap(0)
	for _, msg := range plan {
		planned |= msg.Covers
	}
	extra := want &^ planned
	sent := memmodel.Bitmap(0)
	for i, msg := range plan {
		covers := msg.Covers & want &^ sent
		last := i == len(plan)-1
		if last {
			covers |= extra
		}
		if covers == 0 && !last {
			continue
		}
		flags := uint8(0)
		if i == 0 {
			flags |= proto.FlagFirst
		}
		if last {
			flags |= proto.FlagLast
		}
		if err := writeBatch(flags, covers); err != nil {
			return err
		}
		sent |= covers
	}
	return nil
}

// describeReply decodes a reply stream into one line per frame, for a
// readable diff when two streams disagree.
func describeReply(t *testing.T, stream []byte) []string {
	t.Helper()
	var frames []string
	r := proto.NewReader(bytes.NewReader(stream))
	for {
		f, err := r.Next()
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatalf("reply stream does not frame: %v", err)
		}
		b, err := proto.DecodeSubpageBatch(f.Payload)
		if err != nil {
			t.Fatalf("reply frame %d does not decode: %v", len(frames), err)
		}
		s := fmt.Sprintf("req %d page %d flags %#x runs", b.ReqID, b.Page, b.Flags)
		for i := 0; i < b.Runs(); i++ {
			off, data := b.Run(i)
			s += fmt.Sprintf(" [%d,+%d)", off, len(data))
		}
		frames = append(frames, s)
	}
}

// Every wire policy, subpage size, a spread of fault offsets and want
// bitmaps that ask for everything, for part of the plan and for blocks no
// lazy plan covers: the reply stream, paced and not, is byte for byte the
// two-write sender's.
func TestReplyStreamMatchesTwoWriteSender(t *testing.T) {
	srv, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	data := pagePattern(3)
	srv.Store(3, data)
	slp := newSleeper()
	defer slp.Close()

	policies := []uint8{proto.PolicyFullPage, proto.PolicyLazy, proto.PolicyEager, proto.PolicyPipelined}
	offsets := []int{0, 255, 256, 1023, 1024, 3000, 4095, 4096, 6000, units.PageSize - 1}
	wants := []uint32{0, 0x0F0F0F0F, 0xF000 | 1<<31, 1 << 17}
	cases, frames := 0, 0
	for _, paced := range []bool{false, true} {
		srv.SetWireMbps(0)
		if paced {
			srv.SetWireMbps(8000) // a nanosecond per byte: every branch of the paced path, microseconds per reply
		}
		for _, policy := range policies {
			pol, err := policyFor(policy)
			if err != nil {
				t.Fatal(err)
			}
			for sub := units.MinSubpage; sub <= units.PageSize; sub *= 2 {
				for _, off := range offsets {
					for _, want := range wants {
						req := proto.GetPageV2{ReqID: uint64(cases + 1), Page: 3, FaultOff: uint32(off),
							SubpageSize: uint32(sub), Want: want, Policy: policy}
						var ref recConn
						if err := referenceReply(proto.NewWriter(&ref), pol.Plan(sub, off), req, paced, data); err != nil {
							t.Fatal(err)
						}
						got := &recConn{}
						st := &connState{conn: got, link: link{slp: slp}, live: map[uint64]bool{}, canceled: map[uint64]bool{}}
						if err := srv.sendPageV2(st, proto.NewWriter(got), req); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got.buf.Bytes(), ref.buf.Bytes()) {
							t.Fatalf("paced=%v policy %d subpage %d offset %d want %#x:\n got %q\nwant %q", paced, policy, sub, off, want,
								describeReply(t, got.buf.Bytes()), describeReply(t, ref.buf.Bytes()))
						}
						cases++
						frames += len(describeReply(t, got.buf.Bytes()))
					}
				}
			}
		}
	}
	t.Logf("%d replies, %d frames, all byte-identical to the two-write sender", cases, frames)
}

// On a raw loopback the cancel poll sits between the two frames of the one
// write: a request withdrawn before its reply is assembled still gets its
// faulted subpage, and nothing after it.
func TestCancelBeforeRemainderUnpaced(t *testing.T) {
	srv, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Store(0, pagePattern(0))
	got := &recConn{}
	st := &connState{conn: got, live: map[uint64]bool{}, canceled: map[uint64]bool{}}
	st.begin(5)
	st.cancel(5)
	req := proto.GetPageV2{ReqID: 5, Page: 0, FaultOff: 2048, SubpageSize: 1024, Policy: proto.PolicyPipelined}
	if err := srv.sendPageV2(st, proto.NewWriter(got), req); err != nil {
		t.Fatal(err)
	}
	frames := describeReply(t, got.buf.Bytes())
	if want := []string{"req 5 page 0 flags 0x1 runs [2048,+1024)"}; fmt.Sprint(frames) != fmt.Sprint(want) {
		t.Fatalf("canceled reply = %q, want the faulted subpage alone: %q", frames, want)
	}
	if n := serverCancels(srv); n != 1 {
		t.Fatalf("server counted %d cancels, want 1", n)
	}
}

// rawGets sends n sequential gets of one shape (pipelined, a fault inside
// the page: four plan messages) on a raw connection and reads each reply to
// its last batch, returning the batches per reply.
func rawGets(t *testing.T, conn net.Conn, w *proto.Writer, r *proto.Reader, firstID uint64, n int) int {
	t.Helper()
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second)) // once: a deadline per read would add timer wake-ups to the count
	batches := 0
	for i := 0; i < n; i++ {
		id := firstID + uint64(i)
		if err := w.SendGetPageV2(proto.GetPageV2{ReqID: id, Page: 0, FaultOff: 3000,
			SubpageSize: 1024, Policy: proto.PolicyPipelined}); err != nil {
			t.Fatal(err)
		}
		for {
			f, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			b, err := proto.DecodeSubpageBatch(f.Payload)
			if err != nil || b.ReqID != id {
				t.Fatalf("reply to get %d: batch for %d, %v", id, b.ReqID, err)
			}
			batches++
			if b.Flags&proto.FlagLast != 0 {
				break
			}
		}
	}
	if batches%n != 0 {
		t.Fatalf("%d batches over %d identical-shaped gets", batches, n)
	}
	return batches / n
}

// pacedLateness sends one get on a paced raw connection and reads its
// reply. Every batch must arrive no earlier than netmodel's schedule for
// the same plan with only a wire stage, timed from the request's send; the
// result is how much later than that schedule the last batch arrived.
func pacedLateness(t *testing.T, w *proto.Writer, r *proto.Reader, wire *netmodel.Params, req proto.GetPageV2) units.Nanos {
	t.Helper()
	pol, err := core.WirePolicy(req.Policy)
	if err != nil {
		t.Fatal(err)
	}
	plan := pol.Plan(int(req.SubpageSize), int(req.FaultOff))
	msgs := make([]netmodel.Message, len(plan))
	for i, m := range plan {
		msgs[i] = netmodel.Message{Bytes: m.Bytes}
	}
	sched := wire.Transfer(0, nil, msgs)
	t0 := time.Now()
	if err := w.SendGetPageV2(req); err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		f, err := r.Next()
		at := units.FromDuration(time.Since(t0))
		if err != nil {
			t.Fatal(err)
		}
		b, err := proto.DecodeSubpageBatch(f.Payload)
		if err != nil || b.ReqID != req.ReqID || i >= len(sched) {
			t.Fatalf("policy %d: batch %d of a %d-message plan: request %d, %v", req.Policy, i, len(sched), b.ReqID, err)
		}
		if at < sched[i].WireEnd {
			t.Fatalf("policy %d: batch %d arrived at %v, before the wire could carry it (%v)",
				req.Policy, i, at.Duration(), sched[i].WireEnd.Duration())
		}
		if b.Flags&proto.FlagLast != 0 {
			if i != len(sched)-1 {
				t.Fatalf("policy %d: %d batches for a %d-message plan", req.Policy, i+1, len(sched))
			}
			return at - sched[i].WireEnd
		}
	}
}

// A paced page pays one timer overshoot, not one per plan message: every
// batch leaves on its connection's link clock, never before netmodel says
// the wire could have carried it, and a late wake-up is absorbed by the
// next batch's deadline. So the last batch of a four-message pipelined
// reply is no later than the only batch of a fullpage reply. Slept for
// relative to the previous wake-up, the pipelined reply carries three more
// overshoots. On a 2-vCPU virtual machine, idle or running other tests,
// the difference of the medians was +47 to +160 µs over 19 runs that way,
// and -46 to +9 µs over 50 runs with the clock: the tolerance sits
// between. Earlier is not a failure: a shorter last sleep wakes from a
// shallower idle state.
func TestPacedLatenessDoesNotAccumulate(t *testing.T) {
	const (
		mbps      = 20          // 400 ns per byte: 3.3 ms per page
		nsPerByte = 8000 / mbps // as SetWireMbps rounds it
		replies   = 31          // per policy, interleaved
		tolerance = 30 * time.Microsecond
	)
	_, srv := testCluster(t, 1)
	srv.SetWireMbps(mbps)
	wire := &netmodel.Params{Wire: netmodel.Stage{PerKiB: nsPerByte * units.KiB}}
	conn, w, r := dialRaw(t, srv.Addr())
	_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
	get := func(id uint64, policy uint8) proto.GetPageV2 {
		return proto.GetPageV2{ReqID: id, Page: 0, FaultOff: 3000, SubpageSize: 1024, Policy: policy}
	}
	pacedLateness(t, w, r, wire, get(1, proto.PolicyPipelined)) // connection and poller warm
	var full, piped []float64
	for i := uint64(0); i < replies; i++ {
		full = append(full, pacedLateness(t, w, r, wire, get(10+2*i, proto.PolicyFullPage)).Us())
		piped = append(piped, pacedLateness(t, w, r, wire, get(11+2*i, proto.PolicyPipelined)).Us())
	}
	sort.Float64s(full)
	sort.Float64s(piped)
	mf, mp := full[replies/2], piped[replies/2]
	t.Logf("last batch late by a median %.1f µs on a 1-message fullpage reply, %.1f µs on a 4-message pipelined reply", mf, mp)
	if d := time.Duration((mp - mf) * 1e3); d > tolerance {
		t.Fatalf("pipelined reply's last batch is %v later than fullpage's (tolerance %v): the link's lateness accumulates across batches", d, tolerance)
	}
}

// A reply costs one write system call when nothing paces the wire, and one
// per batch when something does. The count is the kernel's, over a real
// loopback connection; the requests' own writes (one per get) are taken out.
func TestReplyWritesPerGet(t *testing.T) {
	if _, _, ok := ioSyscalls(); !ok {
		t.Skip("no per-process system call counts on this platform (/proc/self/io)")
	}
	_, srv := testCluster(t, 1)
	conn, w, r := dialRaw(t, srv.Addr())
	const n = 400
	rawGets(t, conn, w, r, 1, 20) // connection, scratch buffers and poller warm
	for _, tc := range []struct {
		name string
		mbps float64
		want func(batches int) int
	}{
		{"unpaced", 0, func(int) int { return 1 }},
		{"paced", 4000, func(batches int) int { return batches }},
	} {
		srv.SetWireMbps(tc.mbps)
		_, w0, _ := ioSyscalls()
		batches := rawGets(t, conn, w, r, 1000, n)
		_, w1, _ := ioSyscalls()
		perGet := float64(w1-w0-n) / n
		want := float64(tc.want(batches))
		t.Logf("%s: %d batches and %.3f writes per reply", tc.name, batches, perGet)
		// Anything else in the process that writes (the runtime waking its
		// poller, a heartbeat) can only add to the count, and rarely.
		if perGet < want || perGet > want+0.25 {
			t.Fatalf("%s: %.3f writes per reply, want %v", tc.name, perGet, want)
		}
	}
}
