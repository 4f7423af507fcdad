package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/dirlog"
	"github.com/gms-sim/gmsubpage/internal/gms"
	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/netmodel"
	"github.com/gms-sim/gmsubpage/internal/obs"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/trace"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// Kernels push a fixed batch through one public function of one layer and
// report nanoseconds (and, where named, allocations) per call. They say what
// a layer costs in isolation; README.md says which end-to-end metric each
// should move, and for most the honest prediction is "none you can see".

// Results go to package-level sinks so the compiler cannot drop a call.
var (
	sinkInt   int
	sinkBytes []byte
	sinkErr   error
)

// kernel times fn. fn(n) must perform n calls. The count grows until one
// timing lasts rc.sz.kernelTime (at least rc.sz.kernelIters calls), and that
// last, longest timing is the one reported, per call, in the metric's unit.
func (rc *runCtx) kernel(metric, allocsMetric string, fn func(n int)) {
	n := rc.sz.kernelIters
	var d time.Duration
	var mallocs uint64
	for {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := now()
		fn(n)
		d = since(t0)
		runtime.ReadMemStats(&m1)
		mallocs = m1.Mallocs - m0.Mallocs
		if d >= rc.sz.kernelTime || n >= 1<<30 {
			break
		}
		grow := 2.0
		if d > 0 {
			grow = 1.2 * float64(rc.sz.kernelTime) / float64(d)
		}
		if grow > 100 {
			grow = 100
		}
		n = int(float64(n)*grow) + 1
	}
	perCall := float64(d.Nanoseconds()) / float64(n)
	if def, _ := findDef(metric); def.Unit == "us" {
		perCall /= 1e3
	}
	rc.res.set(metric, perCall, int64(n))
	if allocsMetric != "" {
		rc.res.set(allocsMetric, float64(mallocs)/float64(n), int64(n))
	}
}

func protoKernels(rc *runCtx) {
	var buf bytes.Buffer
	w := proto.NewWriter(&buf)
	get := proto.GetPageV2{ReqID: 7, Page: 1234, FaultOff: 3000, SubpageSize: subpageSize, Policy: proto.PolicyPipelined}
	rc.kernel("proto.send_getv2_ns", "", func(n int) {
		for i := 0; i < n; i++ {
			buf.Reset()
			sinkErr = w.SendGetPageV2(get)
		}
	})
	getPayload := append([]byte(nil), buf.Bytes()[5:]...)
	rc.kernel("proto.decode_getv2_ns", "", func(n int) {
		for i := 0; i < n; i++ {
			g, err := proto.DecodeGetPageV2(getPayload)
			sinkInt += int(g.FaultOff)
			sinkErr = err
		}
	})

	page := make([]byte, units.PageSize)
	pattern(page, 9)
	one := []proto.SubpageRun{{Off: 2048, Data: page[2048:3072]}}
	var many []proto.SubpageRun // 16 alternate blocks: the worst run table a want bitmap produces
	for b := 0; b < units.ValidBitsPerPage; b += 2 {
		many = append(many, proto.SubpageRun{Off: uint32(b * units.MinSubpage), Data: page[b*units.MinSubpage : (b+1)*units.MinSubpage]})
	}
	hdr := make([]byte, 0, 1024)
	for _, k := range []struct {
		metric string
		runs   []proto.SubpageRun
	}{{"proto.append_batch_ns", one}, {"proto.append_batch32_ns", many}} {
		rc.kernel(k.metric, "", func(n int) {
			for i := 0; i < n; i++ {
				sinkBytes, sinkErr = proto.AppendSubpageBatchFrame(hdr[:0], 7, 1234, proto.FlagFirst, k.runs)
			}
		})
	}

	buf.Reset()
	sinkErr = w.SendSubpageBatch(7, 1234, proto.FlagFirst|proto.FlagLast, many)
	frame := append([]byte(nil), buf.Bytes()...)
	rc.kernel("proto.decode_batch_ns", "", func(n int) {
		for i := 0; i < n; i++ {
			b, err := proto.DecodeSubpageBatch(frame[5:])
			sinkInt += b.Runs()
			sinkErr = err
		}
	})
	// Reader.Next over a long stream of that frame, re-armed when it runs dry.
	stream := bytes.Repeat(frame, 256)
	rc.kernel("proto.reader_next_ns", "proto.reader_next_allocs", func(n int) {
		src := bytes.NewReader(stream)
		rd := proto.NewReader(src)
		for i := 0; i < n; i++ {
			f, err := rd.Next()
			if err != nil {
				src.Reset(stream)
				continue
			}
			sinkInt += len(f.Payload)
		}
	})

	reply := proto.LookupReply{Page: 1234, Addrs: []string{"127.0.0.1:40001", "127.0.0.1:40002"}}
	rc.kernel("proto.send_lookup_reply_ns", "", func(n int) {
		for i := 0; i < n; i++ {
			buf.Reset()
			sinkErr = w.SendLookupReply(reply)
		}
	})
	replyPayload := append([]byte(nil), buf.Bytes()[5:]...)
	rc.kernel("proto.decode_lookup_reply_ns", "", func(n int) {
		for i := 0; i < n; i++ {
			r, err := proto.DecodeLookupReply(replyPayload)
			sinkInt += len(r.Addrs)
			sinkErr = err
		}
	})

	m := proto.ShardMap{Version: 1, Shards: []string{"127.0.0.1:40001", "127.0.0.1:40002", "127.0.0.1:40003", "127.0.0.1:40004"}}
	ring := proto.NewRing(m)
	rc.kernel("proto.ring_owner_ns", "", func(n int) {
		for i := 0; i < n; i++ {
			sinkInt += ring.Owner(uint64(i))
		}
	})
	rc.kernel("proto.newring_us", "", func(n int) {
		for i := 0; i < n; i++ {
			sinkInt += proto.NewRing(m).Owner(uint64(i))
		}
	})
}

func obsKernels(rc *runCtx) {
	var off *obs.Counter
	rc.kernel("obs.counter_disabled_ns", "", func(n int) {
		for i := 0; i < n; i++ {
			off.Inc()
		}
	})
	reg := obs.NewRegistry()
	on := reg.Counter("bench_counter_total", "kernel")
	rc.kernel("obs.counter_enabled_ns", "", func(n int) {
		for i := 0; i < n; i++ {
			on.Inc()
		}
	})
	h := reg.Histogram("bench_latency_us", "kernel", nil)
	rc.kernel("obs.histogram_observe_ns", "", func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(float64(i & 1023))
		}
	})
	sinkInt += int(on.Value()) + int(h.Count())
}

func coreKernels(rc *runCtx) error {
	for _, name := range []string{"fullpage", "eager", "pipelined"} {
		pol, err := core.ByName(name)
		if err != nil {
			return err
		}
		allocs := ""
		if name == "pipelined" {
			allocs = "core.plan_allocs.pipelined"
		}
		rc.kernel("core.plan_ns."+name, allocs, func(n int) {
			for i := 0; i < n; i++ {
				sinkInt += len(pol.Plan(512, (i*264)&(units.PageSize-1)))
			}
		})
	}
	rc.kernel("core.byname_ns", "", func(n int) {
		for i := 0; i < n; i++ {
			p, err := core.ByName("pipelined")
			sinkErr = err
			sinkInt += len(p.Name())
		}
	})
	pf := core.NewPrefetcher()
	rc.kernel("core.prefetch_record_ns", "", func(n int) {
		for i := 0; i < n; i++ {
			pf.Record(uint64(i>>3)&1023, (i&7)*1024)
		}
	})
	rc.kernel("core.prefetch_predict_ns", "", func(n int) {
		for i := 0; i < n; i++ {
			m, ok := pf.Predict(uint64(i>>3)&1023, 1024, (i&7)*1024)
			if ok {
				sinkInt += m.Count()
			}
		}
	})
	// One whole fault through the engine: plan and schedule, apply what
	// arrived, attribute the overlap.
	eng := core.NewEngine(netmodel.AN2ATM(), core.Pipelined{}, 512)
	rc.kernel("core.engine_fault_ns", "core.engine_fault_allocs", func(n int) {
		tr := eng.StartFault(0, 0, 0)
		for i := 0; i < n; i++ {
			at := tr.CompleteAt
			sinkInt += tr.ApplyArrived(at).Count()
			eng.FinishTransfer(tr, at)
			tr = eng.StartFault(at, memmodel.PageID(i&4095), (i*264)&(units.PageSize-1))
		}
	})
	return nil
}

func modelKernels(rc *runCtx) {
	net := netmodel.AN2ATM()
	msgs := []netmodel.Message{{Bytes: 512, Deliver: true}, {Bytes: 512}, {Bytes: 512}, {Bytes: 512}, {Bytes: 512}, {Bytes: 512}, {Bytes: 5120, Deliver: true}}
	rc.kernel("netmodel.transfer_ns", "", func(n int) {
		var res netmodel.Resources
		for i := 0; i < n; i++ {
			sinkInt += len(net.Transfer(res.WireFree, &res, msgs))
		}
	})
	rc.kernel("netmodel.fetch_latency_ns", "", func(n int) {
		for i := 0; i < n; i++ {
			if net.FetchLatency(256+(i&7)*1024) > 0 {
				sinkInt++
			}
		}
	})
	gc := gms.NewCluster(gms.DefaultConfig())
	const gmsPages = 4096
	for p := 0; p < gmsPages; p++ {
		gc.Store(memmodel.PageID(p))
	}
	rc.kernel("gms.fetch_store_ns", "", func(n int) {
		for i := 0; i < n; i++ {
			p := memmodel.PageID((i * 2654435761) & (gmsPages - 1))
			if _, ok := gc.Fetch(p); ok {
				sinkInt++
			}
			gc.Store(p)
		}
	})
}

func memKernels(rc *runCtx) {
	const capacity = 1024
	pt := memmodel.NewPageTable(capacity)
	for p := 0; p < capacity; p++ {
		pt.Insert(memmodel.PageID(p), memmodel.FullBitmap)
	}
	rc.kernel("memmodel.pt_lookup_hit_ns", "", func(n int) {
		for i := 0; i < n; i++ {
			if pt.Lookup(memmodel.PageID((i*2654435761)&(capacity-1))) != nil {
				sinkInt++
			}
		}
	})
	next := memmodel.PageID(capacity)
	rc.kernel("memmodel.pt_insert_evict_ns", "", func(n int) {
		for i := 0; i < n; i++ {
			if _, ev := pt.Insert(next, memmodel.FullBitmap); ev != nil {
				sinkInt++
			}
			next++
		}
	})
}

// traceKernels times the trace layer on the smallest paper app: generating
// its stream (a reader that bypasses the memo), replaying the memoized packed
// copy, and scanning its footprint.
func traceKernels(rc *runCtx) {
	app := trace.Gdb(rc.sz.simScale)
	refs := float64(app.TotalRefs())
	buf := make([]trace.Ref, 8192)
	drain := func(rd trace.Reader) {
		for n := rd.Read(buf); n > 0; n = rd.Read(buf) {
			sinkInt += n
		}
	}
	// A zero budget makes NewReader fall back to the generators. The probe
	// app carries its own seed so its never-admitted memo entry cannot
	// shadow the real gdb trace.
	fresh := trace.Gdb(rc.sz.simScale)
	fresh.Seed ^= 0xbe7c
	prev := trace.SetCacheBudget(0)
	t0 := now()
	drain(fresh.NewReader())
	gen := since(t0)
	trace.SetCacheBudget(prev)
	rc.res.set("trace.generate_mrefs_per_s", refs/1e6/gen.Seconds(), int64(refs))

	drain(app.NewReader()) // memoize (sim-apps set-up has already, normally)
	t0 = now()
	drain(app.NewReader())
	rc.res.set("trace.packed_read_mrefs_per_s", refs/1e6/since(t0).Seconds(), int64(refs))

	t0 = now()
	sinkInt += len(trace.TouchedPages(fresh))
	rc.res.set("trace.touched_pages_ms", ms(since(t0)), int64(refs))
	rc.res.set("trace.cache_mb", float64(trace.CacheUsage().Bytes)/units.MiB, int64(trace.CacheUsage().Entries))
}

// dirlogKernels times the journal in a scratch directory: an append under
// each fsync extreme, and recovery, replay and compaction of a 10 000-record
// journal (dirlog.Bench's realistic record mix).
func dirlogKernels(rc *runCtx) error {
	root, err := tmpDir(rc.scratch, "dirlog-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	rec := dirlog.RenewBatch{Renews: []dirlog.Renew{{Addr: "127.0.0.1:40001", Epoch: 3, Expires: 1e9}}}
	appendWith := func(sub string, pol dirlog.FsyncPolicy, n int) (time.Duration, error) {
		j, _, err := dirlog.Open(dirlog.Options{Dir: root + "/" + sub, Fsync: pol, SnapshotEvery: -1})
		if err != nil {
			return 0, err
		}
		t0 := now()
		for i := 0; i < n; i++ {
			if err := j.Append(rec); err != nil {
				_ = j.Close()
				return 0, err
			}
		}
		d := since(t0)
		return d, j.Close()
	}
	n := rc.sz.kernelIters * 20
	d, err := appendWith("never", dirlog.FsyncNever, n)
	if err != nil {
		return fmt.Errorf("dirlog append: %w", err)
	}
	rc.res.set("dirlog.append_ns", float64(d.Nanoseconds())/float64(n), int64(n))
	n = rc.sz.fsyncAppends
	if d, err = appendWith("always", dirlog.FsyncAlways, n); err != nil {
		return fmt.Errorf("dirlog fsync append: %w", err)
	}
	rc.res.set("dirlog.append_fsync_us", us(d)/float64(n), int64(n))

	pts, err := dirlog.Bench(root+"/bench", []int{rc.sz.journalRecs})
	if err != nil {
		return err
	}
	pt := pts[0]
	rc.res.set("dirlog.recover_ms_10k", pt.RecoverMs, int64(pt.Records))
	rc.res.set("dirlog.replay_krecs_per_s", pt.ReplayRecsPerSec/1e3, int64(pt.Records))
	rc.res.set("dirlog.snapshot_ms_10k", pt.SnapshotMs, int64(pt.Records))
	return nil
}
