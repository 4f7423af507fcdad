package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/obs"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/rng"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// Raw probes: the benchmark speaks the wire protocol on its own TCP
// connection to the workload's live cluster, so a layer is timed without the
// layers above it. Exchanges are sequential, with seeded pages and offsets.

// getProbe is the outcome of a run of raw GetPageV2 exchanges.
type getProbe struct {
	first, last []float64 // ns from request send to FlagFirst / FlagLast batch, ascending
	batches     int
}

// probeGets sends n sequential GetPageV2 requests for seeded (page, offset)
// pairs, each to the page's server, and checks every run of every reply.
func probeGets(rc *runCtx, cl *cluster, l *lane, policy uint8, n int) (*getProbe, error) {
	conns, hangUp, err := dialAll(cl.serverAddrs())
	if err != nil {
		return nil, err
	}
	defer hangUp()
	r := rng.New(rc.seed*31 + uint64(policy))
	out := &getProbe{}
	for i := 0; i < n; i++ {
		page := uint64(r.Intn(rc.sz.pages))
		off := r.Intn(units.PageSize)
		c := conns[page%numServers]
		// Want 0 asks for everything the policy plans, and for lazy that is
		// again the whole page; a lazy client names just the faulted subpage.
		var want uint32
		if policy == proto.PolicyLazy {
			want = uint32(memmodel.MaskFor(subpageSize, off/subpageSize))
		}
		c.arm()
		sp := l.begin("probe.getv2")
		t0 := now()
		err := c.w.SendGetPageV2(proto.GetPageV2{ReqID: uint64(i + 1), Page: page,
			FaultOff: uint32(off), SubpageSize: subpageSize, Want: want, Policy: policy})
		if err != nil {
			return nil, err
		}
		first, last, batches, err := readReply(c, uint64(i+1), page, t0)
		l.end(sp)
		if err != nil {
			return nil, fmt.Errorf("raw get of page %d: %w", page, err)
		}
		out.first = append(out.first, float64(first))
		out.last = append(out.last, float64(last))
		out.batches += batches
	}
	sortedNs(out.first)
	sortedNs(out.last)
	return out, nil
}

// readReply consumes one reply stream and verifies its bytes.
func readReply(c *rawConn, id, page uint64, t0 time.Time) (first, last time.Duration, batches int, err error) {
	for {
		f, err := c.r.Next()
		if err != nil {
			return 0, 0, batches, err
		}
		at := since(t0)
		if f.Type != proto.TSubpageBatch {
			return 0, 0, batches, fmt.Errorf("server answered %v", f.Type)
		}
		b, err := proto.DecodeSubpageBatch(f.Payload)
		if err != nil {
			return 0, 0, batches, err
		}
		if b.ReqID != id || b.Page != page {
			return 0, 0, batches, fmt.Errorf("reply for request %d page %d", b.ReqID, b.Page)
		}
		batches++
		for i := 0; i < b.Runs(); i++ {
			off, data := b.Run(i)
			if !checkPattern(data, page, off) {
				return 0, 0, batches, fmt.Errorf("run at %d carries wrong bytes", off)
			}
		}
		if b.Flags&proto.FlagFirst != 0 {
			first = at
		}
		if b.Flags&proto.FlagLast != 0 {
			return first, at, batches, nil
		}
	}
}

// echoServer is the medium alone: it reads a fixed-size request whose first
// four bytes give the reply length and writes that many bytes back. Nothing
// in the repository can move its round trip, so it is the floor under a fault.
type echoServer struct {
	ln   net.Listener
	done chan struct{}
}

const echoRequest = 34 // a GetPageV2 frame: 5-byte header + 29-byte payload

func startEcho() (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(e.done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		req := make([]byte, echoRequest)
		reply := make([]byte, units.PageSize+64)
		for {
			_ = conn.SetDeadline(now().Add(rawDeadline))
			if _, err := io.ReadFull(conn, req); err != nil {
				return
			}
			if _, err := conn.Write(reply[:binary.LittleEndian.Uint32(req)]); err != nil {
				return
			}
		}
	}()
	return e, nil
}

func (e *echoServer) close() {
	_ = e.ln.Close()
	<-e.done
}

// probeLoopback measures the echo round trip for a small and a page-sized
// reply: n exchanges each, median in microseconds.
func probeLoopback(rc *runCtx, l *lane) error {
	e, err := startEcho()
	if err != nil {
		return err
	}
	conn, err := net.DialTimeout("tcp", e.ln.Addr().String(), rawDeadline)
	if err != nil {
		e.close()
		return err
	}
	// The echo goroutine exits when its peer closes, so close the
	// connection before joining it.
	defer e.close()
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	req := make([]byte, echoRequest)
	reply := make([]byte, units.PageSize+64)
	for _, k := range []struct {
		metric string
		size   int
	}{{"loopback.rtt_small_us", readSize}, {"loopback.rtt_8k_us", units.PageSize + 34}} {
		binary.LittleEndian.PutUint32(req, uint32(k.size))
		var d []float64
		for i := 0; i < rc.sz.probes; i++ {
			_ = conn.SetDeadline(now().Add(rawDeadline))
			sp := l.begin("probe.loopback")
			t0 := now()
			if _, err := conn.Write(req); err != nil {
				return err
			}
			if _, err := io.ReadFull(conn, reply[:k.size]); err != nil {
				return err
			}
			d = append(d, float64(since(t0)))
			l.end(sp)
		}
		rc.res.set(k.metric, pct(sortedNs(d), 50)/1e3, int64(len(d)))
	}
	return nil
}

// faultChurnLayers: the medium, the server under a raw get, the client's
// share by subtraction, and the kernels whose cost is CPU per fault.
func faultChurnLayers(rc *runCtx, cl *cluster, base, _ *windowStats) error {
	l := rc.rec.lane(0)
	if err := probeLoopback(rc, l); err != nil {
		return fmt.Errorf("loopback probe: %w", err)
	}
	g, err := probeGets(rc, cl, l, proto.PolicyPipelined, rc.sz.probes)
	if err != nil {
		return err
	}
	n := int64(len(g.first))
	firstP50 := pct(g.first, 50) / 1e3
	rc.res.set("server.getv2_first_p50_us", firstP50, n)
	rc.res.set("server.getv2_first_p99_us", pct(g.first, 99)/1e3, n)
	rc.res.set("server.getv2_last_p50_us", pct(g.last, 50)/1e3, n)
	rc.res.set("server.batches_per_get", float64(g.batches)/float64(n), n)
	rtt8k, _ := rc.res.get("loopback.rtt_8k_us")
	rc.res.set("server.overhead_p50_us", firstP50-rtt8k, n)
	// What the client adds on top of a raw get: cache and lock, request
	// registration, readLoop demux, apply, waiter wake.
	rc.res.set("client.overhead_p50_us", pct(base.whole, 50)/1e3-firstP50, int64(len(base.whole)))

	protoKernels(rc)
	obsKernels(rc)
	return registryOverhead(rc)
}

// registryOverhead runs the fault-churn op stream on two fresh clusters, one
// with no obs registry anywhere and one with a registry attached to every
// component, in alternating slices, and reports how much throughput the
// registries cost.
func registryOverhead(rc *runCtx) error {
	var sides [2]struct {
		cl     *cluster
		ws     []worker
		slices []*windowStats
	}
	defer func() {
		for _, s := range sides {
			if s.cl != nil {
				closeAll(s.cl, s.ws)
			}
		}
	}()
	for i, reg := range []*obs.Registry{nil, obs.NewRegistry()} {
		cl, err := startCluster(clusterOpt{pages: rc.sz.pages, cache: rc.sz.cache, shards: 1, metrics: reg})
		if err != nil {
			return err
		}
		ws, err := churnWorkers(false)(rc, cl)
		sides[i].cl, sides[i].ws = cl, ws
		if err != nil {
			return err
		}
	}
	const pairs = 4
	var ops int64
	for k := 0; k < pairs; k++ {
		for i := range sides {
			st := runWindow(sides[i].ws, rc.window/3/(2*pairs), nil)
			rc.count(st)
			sides[i].slices = append(sides[i].slices, st)
			ops += st.ops
		}
	}
	rc.res.set("obs.registry_overhead_pct", 100*(medianRate(sides[0].slices)/medianRate(sides[1].slices)-1), ops)
	return nil
}

// atmPairLayers: the live Table 2 — first and last arrival per policy on the
// paced wire — and how far pacing overshoots the ideal serialization time.
func atmPairLayers(rc *runCtx, cl *cluster, _, _ *windowStats) error {
	rc.spanP("client.subpage_p99_us", "client.Read", 99, 1e3)
	rc.spanP("client.page_p50_us", "op", 50, 1e3)
	rc.spanP("client.page_p99_us", "op", 99, 1e3)
	l := rc.rec.lane(0)
	for _, pol := range []struct {
		name string
		b    uint8
	}{{"fullpage", proto.PolicyFullPage}, {"eager", proto.PolicyEager}, {"pipelined", proto.PolicyPipelined}, {"lazy", proto.PolicyLazy}} {
		g, err := probeGets(rc, cl, l, pol.b, rc.sz.probes/4)
		if err != nil {
			return err
		}
		n := int64(len(g.first))
		rc.res.set("server.getv2_first_p50_us."+pol.name, pct(g.first, 50)/1e3, n)
		rc.res.set("server.getv2_last_p50_us."+pol.name, pct(g.last, 50)/1e3, n)
		if pol.b == proto.PolicyPipelined {
			nsPerByte := math.Round(8000.0 / atmMbps) // Server.SetWireMbps rounds the same way
			rc.res.set("server.pace_excess_page_us", pct(g.last, 50)/1e3-units.PageSize*nsPerByte/1e3, n)
		}
	}
	return nil
}

// writebackLayers: the write and whole-page read paths in situ, and a raw
// PutPage followed by a get of the same page.
func writebackLayers(rc *runCtx, cl *cluster, _, _ *windowStats) error {
	rc.spanP("client.write_p50_us", "client.Write", 50, 1e3)
	rc.spanP("client.readpage_p50_us", "client.Read.page", 50, 1e3)

	conns, hangUp, err := dialAll(cl.serverAddrs())
	if err != nil {
		return err
	}
	defer hangUp()
	// The probe writes pages above the workload's set, so it cannot disturb
	// a shadow copy.
	l := rc.rec.lane(0)
	r := rng.New(rc.seed * 37)
	data := make([]byte, units.PageSize)
	var d []float64
	for i := 0; i < rc.sz.probes/4; i++ {
		page := uint64(rc.sz.pages + r.Intn(64))
		pattern(data, page)
		c := conns[page%numServers]
		c.arm()
		sp := l.begin("probe.put_then_get")
		t0 := now()
		if err := c.w.SendPutPage(proto.PutPage{Page: page, Data: data}); err != nil {
			return err
		}
		err := c.w.SendGetPageV2(proto.GetPageV2{ReqID: uint64(i + 1), Page: page,
			SubpageSize: subpageSize, Policy: proto.PolicyPipelined})
		if err != nil {
			return err
		}
		_, last, _, err := readReply(c, uint64(i+1), page, t0)
		l.end(sp)
		if err != nil {
			return fmt.Errorf("raw put then get of page %d: %w", page, err)
		}
		d = append(d, float64(last))
	}
	rc.res.set("server.put_then_get_p50_us", pct(sortedNs(d), 50)/1e3, int64(len(d)))
	return nil
}

// hitLayers: the cost of one resident read.
func hitLayers(rc *runCtx, _ *cluster, base, _ *windowStats) error {
	rc.res.set("client.hit_ns", pct(base.whole, 50), int64(len(base.whole)))
	return nil
}

// coldScanLayers: connection set-up in situ, the directory under raw lookups
// (to the owner, to the wrong shard), a journaled lease renewal, and the
// journal's own kernels.
func coldScanLayers(rc *runCtx, cl *cluster, _, _ *windowStats) error {
	rc.spanP("client.dial_us", "client.Dial", 50, 1e3)
	rc.spanP("client.close_us", "client.Close", 50, 1e3)

	m := cl.shards.Map()
	ring := proto.NewRing(m)
	conns, hangUp, err := dialAll(m.Shards)
	if err != nil {
		return err
	}
	defer hangUp()
	l := rc.rec.lane(0)
	r := rng.New(rc.seed * 41)
	var owned, wrong []float64
	for i := 0; i < rc.sz.probes; i++ {
		page := uint64(r.Intn(rc.sz.pages))
		owner := ring.Owner(page)
		for _, to := range []int{owner, (owner + 1) % len(conns)} {
			c := conns[to]
			c.arm()
			sp := l.begin("probe.lookup")
			t0 := now()
			if err := c.w.SendLookup(proto.Lookup{Page: page}); err != nil {
				return err
			}
			f, err := c.r.Next()
			d := float64(since(t0))
			l.end(sp)
			if err != nil {
				return err
			}
			switch {
			case to == owner && f.Type == proto.TLookupReply:
				rep, err := proto.DecodeLookupReply(f.Payload)
				if err != nil || len(rep.Addrs) == 0 || rep.Addrs[0] != cl.servers[page%numServers].Addr() {
					return fmt.Errorf("lookup of page %d answered %v (%v)", page, rep.Addrs, err)
				}
				owned = append(owned, d)
			case to != owner && f.Type == proto.TWrongShard:
				wrong = append(wrong, d)
			default:
				return fmt.Errorf("shard %d answered %v to a lookup of page %d owned by shard %d", to, f.Type, page, owner)
			}
		}
	}
	sortedNs(owned)
	rc.res.set("directory.lookup_rtt_p50_us", pct(owned, 50)/1e3, int64(len(owned)))
	rc.res.set("directory.lookup_rtt_p99_us", pct(owned, 99)/1e3, int64(len(owned)))
	rc.res.set("directory.wrongshard_rtt_us", pct(sortedNs(wrong), 50)/1e3, int64(len(wrong)))

	// A lease renewal is journaled by each shard; renew server 0's lease.
	srv := cl.servers[0]
	var hb []float64
	for i := 0; i < rc.sz.probes/4; i++ {
		c := conns[i%len(conns)]
		c.arm()
		sp := l.begin("probe.heartbeat")
		t0 := now()
		if err := c.w.SendHeartbeat(proto.Heartbeat{Addr: srv.Addr(), Epoch: srv.Epoch()}); err != nil {
			return err
		}
		f, err := c.r.Next()
		d := float64(since(t0))
		l.end(sp)
		if err != nil {
			return err
		}
		if f.Type != proto.TAck {
			return fmt.Errorf("heartbeat answered %v", f.Type)
		}
		hb = append(hb, d)
	}
	rc.res.set("directory.heartbeat_rtt_us", pct(sortedNs(hb), 50)/1e3, int64(len(hb)))

	dir := cl.shards.Shard(0)
	rc.kernel("directory.replicas_call_ns", "", func(n int) {
		for i := 0; i < n; i++ {
			sinkInt += len(dir.Replicas(uint64(i % rc.sz.pages)))
		}
	})
	return dirlogKernels(rc)
}
