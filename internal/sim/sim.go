// Package sim is the trace-driven simulator of the paper (§3.2): it
// replays an application's memory-reference trace against a model of local
// memory, global (network) memory and disk, under a configurable subpage
// transfer policy, and reports the paging behaviour — fault counts, the
// time spent waiting for subpages and for page remainders, overlap
// attribution, and the per-fault and temporal distributions behind
// Figures 5–7 and 10.
//
// The simulator's clock counts memory references: each reference is one
// event of 12 ns (units.EventNs). Network and disk latencies convert to
// events at the boundary, so the reported runtime decomposes exactly as
//
//	Runtime = Events + SpLatency + PageWait + DiskWait + PALTicks + TLBTicks
package sim

import (
	"fmt"
	"sort"
	"sync"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/disk"
	"github.com/gms-sim/gmsubpage/internal/gms"
	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/netmodel"
	"github.com/gms-sim/gmsubpage/internal/obs"
	"github.com/gms-sim/gmsubpage/internal/stats"
	"github.com/gms-sim/gmsubpage/internal/trace"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// Backing selects where faults are served from.
type Backing int

const (
	// GlobalMemory serves faults from network memory via GMS (with disk
	// only as a fallback for pages not in the global cache).
	GlobalMemory Backing = iota
	// Disk serves every fault from the local disk: the paper's
	// disk_8192 baseline.
	Disk
)

// GlobalCache is the global-memory interface the simulator pages against;
// *gms.Cluster and *gms.EpochCluster implement it. Store is only ever given
// a page the cache does not hold: a page enters local memory by a Fetch,
// which removes it from the cache, or from disk because the cache does not
// have it, and it is stored when it leaves.
type GlobalCache interface {
	Fetch(memmodel.PageID) (gms.NodeID, bool)
	Store(memmodel.PageID) gms.NodeID
}

// TraceSource supplies a reference stream that is not a built-in App.
type TraceSource struct {
	// Name labels the run.
	Name string
	// Pages is the footprint, used to size MemFraction configurations.
	Pages int
	// NewReader returns a fresh reader over the stream; it must be
	// repeatable for warm-cache preloading to see the same pages.
	NewReader func() trace.Reader
	// Touched optionally returns the stream's distinct page numbers in
	// ascending order, sparing the warm-cache preload a full scan of the
	// stream. When nil the preload scans NewReader().
	Touched func() []uint64
}

// Config describes one simulation run.
type Config struct {
	App *trace.App

	// MemFraction sizes local memory as a fraction of the app's
	// footprint: 1 (full-mem), 0.5 (1/2-mem), 0.25 (1/4-mem).
	// MemPages overrides it when positive.
	MemFraction float64
	MemPages    int

	Policy      core.Policy
	SubpageSize int

	Backing Backing
	// ColdStart leaves the global cache empty (faults fall through to
	// disk until pages have been evicted once). The default is the
	// paper's warm cache: every page starts in network memory.
	ColdStart bool

	Net     *netmodel.Params // default netmodel.AN2ATM()
	Disk    *disk.Params     // default disk.Default()
	Cluster gms.Config       // default gms.DefaultConfig()

	// Source replays a custom reference stream instead of App's
	// generator — e.g. a trace captured with cmd/tracegen or another
	// node's offset view in a multi-node run. App may be nil when
	// Source is set.
	Source *TraceSource

	// Global overrides the run's global memory with a shared instance
	// (multi-node simulations). When set, the caller owns warming and
	// capacity; ColdStart is ignored. Runs sharing one must reference
	// disjoint pages.
	Global GlobalCache

	// PALEmulation charges Table 1 software costs for accesses to
	// incomplete pages (the prototype's software valid bits) instead of
	// assuming free TLB-based hardware support.
	PALEmulation bool

	// TLBEntries, when positive, models a TLB with that many entries
	// over pages of TLBPageSize bytes (default: the full page size).
	// Used by the small-page ablation.
	TLBEntries  int
	TLBPageSize int

	// TrackPerFault collects the per-fault arrays behind Figures 5 and 6
	// and the distance histogram behind Figure 7.
	TrackPerFault bool

	// TrackPrefetch counts speculative transfer usage: how many blocks
	// arrived beyond each fault's demanded subpage (Result.PrefetchIssued)
	// and how many of those were later accessed (Result.PrefetchUsed).
	// Tracked runs keep complete pages off the reference loop's fast path,
	// so this costs simulation wall time; results are unaffected.
	TrackPrefetch bool

	// Trace, when non-nil, records every fault's anatomy (transfer plan,
	// restart, follow-on arrivals, stall re-entries) into the given tracer
	// for JSONL / Chrome trace-event export. Tracing never advances the
	// clock; a traced run and an untraced run produce identical Results.
	Trace *obs.SimTrace
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Net == nil {
		out.Net = netmodel.AN2ATM()
	}
	if out.Disk == nil {
		out.Disk = disk.Default()
	}
	if out.Cluster.Nodes == 0 {
		out.Cluster = gms.DefaultConfig()
	}
	if out.SubpageSize == 0 {
		out.SubpageSize = units.PageSize
	}
	if out.Policy == nil {
		out.Policy = core.FullPage{}
	}
	if out.MemFraction == 0 {
		out.MemFraction = 1
	}
	if out.TLBPageSize == 0 {
		out.TLBPageSize = units.PageSize
	}
	return out
}

// memPages resolves the local memory size in pages.
func (c *Config) memPages() int {
	if c.MemPages > 0 {
		return c.MemPages
	}
	n := int(float64(c.footprint())*c.MemFraction + 0.5)
	if n < 2 {
		n = 2
	}
	return n
}

// footprint returns the workload's page count.
func (c *Config) footprint() int {
	if c.Source != nil {
		return c.Source.Pages
	}
	return c.App.TotalPages
}

// name labels the workload.
func (c *Config) name() string {
	if c.Source != nil {
		return c.Source.Name
	}
	return c.App.Name
}

// newReader opens the workload's reference stream.
func (c *Config) newReader() trace.Reader {
	if c.Source != nil {
		return c.Source.NewReader()
	}
	return c.App.NewReader()
}

// Result is the outcome of one run.
type Result struct {
	AppName  string
	Policy   string
	Subpage  int
	MemPages int

	// Time decomposition, in simulator ticks (memory-reference events).
	Events    int64       // references executed (1 tick each)
	SpLatency units.Ticks // stalls waiting for the faulted subpage
	PageWait  units.Ticks // stalls waiting for later parts of a page
	DiskWait  units.Ticks // stalls on disk service
	PALTicks  units.Ticks // software subpage-protection emulation
	TLBTicks  units.Ticks // TLB miss handling
	Runtime   units.Ticks

	// Fault counts.
	Faults        int64 // page faults (new page brought in)
	SubpageFaults int64 // lazy refetches on resident pages
	RemoteFaults  int64 // served from network memory
	DiskFaults    int64 // served from disk
	Evictions     int64
	Canceled      int64 // transfers aborted by eviction

	// Overlap attribution (see core.Engine).
	IOOverlap      units.Ticks
	CompOverlap    units.Ticks
	IOOverlapShare float64
	BytesMoved     int64

	// PAL emulation detail.
	EmulatedOps int64
	// TLB detail.
	TLBMisses int64

	// Prefetch usage (TrackPrefetch only). Issued counts blocks moved
	// beyond each fault's demanded subpage — speculative under any policy,
	// whether an eager remainder or a learned stride window; Used counts
	// the issued blocks the program went on to access. accuracy =
	// Used/Issued; unprefetched demand shows up in SubpageFaults.
	PrefetchIssued int64
	PrefetchUsed   int64

	// Per-fault data (TrackPerFault only).
	PerFaultWait []units.Ticks // total wait attributable to each fault
	// FaultEvents is the number of references executed when each page
	// fault occurred: the x-axis of the paper's Figures 6 and 10, which
	// plot fault arrival against simulation events rather than wall time.
	FaultEvents  []int64
	NextDistance stats.Hist // subpage distance to next access (Fig 7)
}

// RuntimeMs is the modelled wall time in milliseconds.
func (r *Result) RuntimeMs() float64 { return r.Runtime.Ms() }

// Speedup returns other.Runtime / r.Runtime: how much faster r is.
func (r *Result) Speedup(other *Result) float64 {
	if r.Runtime == 0 {
		return 0
	}
	return float64(other.Runtime) / float64(r.Runtime)
}

// String summarizes the run for logs.
func (r *Result) String() string {
	return fmt.Sprintf("%s %s sub=%d mem=%d: runtime=%.1fms exec=%d sp=%.1fms pw=%.1fms disk=%.1fms faults=%d",
		r.AppName, r.Policy, r.Subpage, r.MemPages, r.RuntimeMs(), r.Events,
		r.SpLatency.Ms(), r.PageWait.Ms(), r.DiskWait.Ms(), r.Faults)
}

// runner holds one run's state.
type runner struct {
	cfg     Config
	res     *Result
	pt      *memmodel.PageTable
	cluster GlobalCache
	engine  *core.Engine
	diskTr  disk.Tracker
	emu     *memmodel.Emulator
	tlb     *memmodel.TLB
	now     units.Ticks
	subpage int
	// trackUse maintains Frame.Prefetched marks: set for TrackPrefetch
	// runs (reporting) and for stateful policies, which need the consumed
	// marks fed back as history (core.Engine.RecordUse) to see the demand
	// stream their own predictions would otherwise hide.
	trackUse bool

	// own is the cluster the runner warms when the run has no shared
	// Global, and ids the warm-up's page list: both kept for the next run.
	own *gms.Cluster
	ids []memmodel.PageID
}

// runners recycles runners across Runs: a Run's page table, engine and
// owned cluster are what it allocates, and reset takes them up again, so a
// warmed Run makes almost no garbage.
var runners = sync.Pool{New: func() any { return new(runner) }}

// Run executes the simulation described by cfg and returns its Result.
func Run(cfg Config) *Result {
	r := runners.Get().(*runner)
	res := r.runOnce(cfg)
	runners.Put(r)
	return res
}

// runOnce executes the run cfg describes on r, reusing what r's last run
// allocated, and leaves r ready for the next.
func (r *runner) runOnce(cfg Config) *Result {
	r.reset(cfg)
	r.run()
	r.finishRun()
	res := r.res
	r.release()
	return res
}

// newRunner prepares a run without executing it; multi-node drivers use
// it to interleave several runners on a shared global memory.
func newRunner(cfg Config) *runner {
	r := new(runner)
	r.reset(cfg)
	return r
}

// reset prepares r for the run cfg describes, reusing the page table, engine
// and owned cluster of its last run.
func (r *runner) reset(cfg Config) {
	cfg = cfg.withDefaults()
	if cfg.App == nil && cfg.Source == nil {
		panic("sim: Config.App or Config.Source is required")
	}
	mem := cfg.memPages()
	if r.pt == nil {
		r.pt = memmodel.NewPageTable(mem)
	} else {
		r.pt.Reset(mem)
	}
	if r.engine == nil {
		r.engine = core.NewEngine(cfg.Net, cfg.Policy, cfg.SubpageSize)
	} else {
		r.engine.Reset(cfg.Net, cfg.Policy, cfg.SubpageSize)
	}
	*r = runner{
		cfg:     cfg,
		subpage: cfg.SubpageSize,
		pt:      r.pt,
		cluster: cfg.Global,
		engine:  r.engine,
		diskTr:  *disk.NewTracker(cfg.Disk),
		res: &Result{
			AppName:  cfg.name(),
			Policy:   cfg.Policy.Name(),
			Subpage:  cfg.SubpageSize,
			MemPages: mem,
		},
		own: r.own,
		ids: r.ids,
	}
	r.trackUse = cfg.TrackPrefetch || r.engine.Stateful()
	if cfg.Trace != nil {
		r.engine.SetTrace(cfg.Trace)
	}
	if r.cluster == nil {
		if r.own == nil {
			r.own = gms.NewCluster(cfg.Cluster)
		} else {
			r.own.Reset(cfg.Cluster)
		}
		r.cluster = r.own
		if cfg.Backing == GlobalMemory && !cfg.ColdStart {
			r.own.Warm(r.pagesTouched())
		}
	}
	if cfg.PALEmulation {
		r.emu = memmodel.NewEmulator(memmodel.Alpha250())
	}
	if cfg.TLBEntries > 0 {
		r.tlb = memmodel.NewTLB(cfg.TLBEntries, cfg.TLBPageSize)
	}
}

// release drops the finished run's config, result and tracer, keeping what
// reset reuses.
func (r *runner) release() {
	r.engine.SetTrace(nil)
	*r = runner{pt: r.pt, engine: r.engine, own: r.own, ids: r.ids}
}

// pagesTouched returns every page the workload references, ascending, for
// warm-cache preloading. App-backed runs and sources with a Touched hook
// use the memoized footprint; other sources pay a scan of the stream.
func (r *runner) pagesTouched() []memmodel.PageID {
	if src := r.cfg.Source; src != nil && src.Touched != nil {
		r.ids = toPageIDs(r.ids, src.Touched())
		return r.ids
	}
	if r.cfg.Source == nil {
		r.ids = toPageIDs(r.ids, trace.TouchedPages(r.cfg.App))
		return r.ids
	}
	pages := make(map[memmodel.PageID]struct{}, r.cfg.footprint())
	buf := make([]trace.Ref, 8192)
	rd := r.cfg.newReader()
	for {
		n := rd.Read(buf)
		if n == 0 {
			break
		}
		for _, ref := range buf[:n] {
			pages[memmodel.PageID(ref.Addr/units.PageSize)] = struct{}{}
		}
	}
	ids := make([]memmodel.PageID, 0, len(pages))
	for p := range pages {
		ids = append(ids, p)
	}
	// Map iteration order would otherwise leak into the warm cache's age
	// ordering and node placement, making cluster runs nondeterministic.
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// toPageIDs converts ascending page numbers to PageIDs in buf's storage,
// preserving order (the warm cache's age ordering depends on it).
func toPageIDs(buf []memmodel.PageID, pages []uint64) []memmodel.PageID {
	ids := buf[:0]
	for _, p := range pages {
		ids = append(ids, memmodel.PageID(p))
	}
	return ids
}

// runReader is a reader that knows where its stream changes page: trace's
// memoized app streams. NextRun returns the page, what is left of the
// current maximal run of references to it, packed (trace.Unpack), empty at
// end of trace, and the blocks those references touch.
type runReader interface {
	NextRun() (page uint64, offs []uint16, blocks uint32)
}

// run is the main reference loop.
func (r *runner) run() {
	rd := r.cfg.newReader()
	if rr, ok := rd.(runReader); ok {
		r.replayRuns(rr)
		return
	}
	buf := make([]trace.Ref, 8192)
	for {
		n := rd.Read(buf)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			r.step(buf[i])
		}
	}
}

// replayRuns is the reference loop over a stream with a page-run index. A
// run whose page is resident and complete is charged whole from the index:
// step on its first reference would make the same Lookup and take its fast
// path, and so would every later one — same page, so the page table answers
// from its last frame and the LRU order stands — and that path only counts
// the reference's execution event. Any other run is walked (walk). A TLB
// model looks at every address, so with one on every reference is stepped.
// A run may come in pieces, each with the whole run's blocks (RunCluster's
// turns split runs): the pieces replay as the run does.
func (r *runner) replayRuns(rd runReader) {
	for page, offs, blocks := rd.NextRun(); len(offs) > 0; page, offs, blocks = rd.NextRun() {
		switch f := r.pt.Lookup(memmodel.PageID(page)); {
		case r.tlb != nil:
			for _, v := range offs {
				r.step(trace.Unpack(page, v))
			}
		case f != nil && complete(f):
			r.now += units.Ticks(len(offs))
			r.res.Events += int64(len(offs))
		default:
			r.walk(f, page, offs, blocks)
		}
	}
}

// walk replays a run of references to page, whose frame f is nil when the
// page is not resident, in a run without a TLB. The stretches step would do
// nothing in but count and apply arrivals — each reference to a block ready
// allows — are charged whole; step takes only the rest, the faulting
// reference among them. blocks are the run's, so a run whose blocks are all
// ready is charged whole from the index even while its page's transfer is in
// flight. blocks may hold more than offs touch (a piece of a split run): a
// block among them that is not ready then only sends offs to the check one
// reference at a time, which is exact.
func (r *runner) walk(f *memmodel.Frame, page uint64, offs []uint16, blocks uint32) {
	if f == nil {
		f = r.step(trace.Unpack(page, offs[0]))
		offs = offs[1:]
	}
	for len(offs) > 0 {
		ok := uint32(r.ready(f))
		i := len(offs)
		if blocks&ok != blocks {
			i = 0
			for i < len(offs) && ok&trace.Block(offs[i]) != 0 {
				i++
			}
		}
		r.charge(f, i)
		if i == len(offs) {
			return
		}
		f = r.step(trace.Unpack(page, offs[i]))
		offs = offs[i+1:]
	}
}

// ready applies the arrivals due by the next reference's tick to f and
// returns the blocks a reference then may touch and be charged without step:
// any on a complete page, else the valid ones — of the faulted subpage only
// while Figure 7 waits for the first access to another. PAL emulation
// charges, and usage tracking consumes marks, per reference on an incomplete
// page, so with either on none are: every reference is stepped until one
// leaves the page complete. A transfer this completes is left for charge or
// step to finish at that tick.
func (r *runner) ready(f *memmodel.Frame) memmodel.Bitmap {
	if complete(f) {
		return memmodel.FullBitmap
	}
	if r.emu != nil || r.trackUse {
		return 0
	}
	if f.Xfer != nil {
		f.Valid |= f.Xfer.(*core.Transfer).ApplyArrived(r.now + 1)
	}
	if f.DistFrom >= 0 {
		return f.Valid & memmodel.MaskFor(r.subpage, int(f.DistFrom))
	}
	return f.Valid
}

// charge executes the next k references, all to f's page, each of which
// step would only count and apply arrivals for: the clock and Events advance
// by k, and the arrivals due by the last are applied. A transfer that
// completes among them finishes at the tick the first reference at or after
// its last arrival would have finished it.
func (r *runner) charge(f *memmodel.Frame, k int) {
	if k == 0 {
		return
	}
	start := r.now
	r.now += units.Ticks(k)
	r.res.Events += int64(k)
	if f.Xfer != nil {
		tr := f.Xfer.(*core.Transfer)
		r.apply(f, tr)
		if tr.Done() {
			r.finish(tr, f, max(start+1, tr.CompleteAt))
		}
	}
}

// complete reports whether references to the frame's page take step's fast
// path: nothing in flight, every block valid and no speculative mark left to
// consume (TrackPrefetch runs and stateful policies only).
func complete(f *memmodel.Frame) bool {
	return f.Xfer == nil && f.Valid == memmodel.FullBitmap && f.Prefetched == 0
}

// finishRun closes open transfers and assembles the result.
func (r *runner) finishRun() {
	r.flush()
	r.res.Runtime = r.now
	r.res.IOOverlap = r.engine.IOOverlap
	r.res.CompOverlap = r.engine.CompOverlap
	r.res.IOOverlapShare = r.engine.IOOverlapShare()
	r.res.BytesMoved = r.engine.BytesMoved
	if r.trackUse {
		r.res.PrefetchIssued = r.engine.PrefetchIssued
	}
	if r.emu != nil {
		r.res.EmulatedOps = r.emu.EmulatedOps
	}
	if r.tlb != nil {
		r.res.TLBMisses = r.tlb.Misses()
	}
}

// step processes one reference and returns the frame it touched.
func (r *runner) step(ref trace.Ref) *memmodel.Frame {
	r.now++ // this reference's execution event
	r.res.Events++

	if r.tlb != nil && !r.tlb.Access(ref.Addr) {
		d := memmodel.TLBMissCost.ToTicks()
		r.now += d
		r.res.TLBTicks += d
	}

	page := memmodel.PageID(ref.Addr / units.PageSize)
	off := int(ref.Addr % units.PageSize)

	f := r.pt.Lookup(page)
	if f == nil {
		f = r.pageFault(page, off)
	}

	// Fast path: complete page. Pages with unconsumed speculative marks
	// stay on the slow path so usage is counted.
	if complete(f) {
		return f
	}

	// Figure 7: first access to a different subpage after the fault.
	if f.DistFrom >= 0 {
		idx := off / r.subpage
		if idx != int(f.DistFrom) {
			if r.cfg.TrackPerFault {
				r.res.NextDistance.Add(idx - int(f.DistFrom))
			}
			f.DistFrom = -1
		}
	}

	if f.Xfer != nil {
		tr := f.Xfer.(*core.Transfer)
		r.apply(f, tr)
		if tr.Done() {
			r.finish(tr, f, r.now)
		} else if !f.Valid.Has(off) {
			if at, ok := tr.ArrivalCovering(off); ok {
				// Stall until the covering message lands.
				r.engine.NoteStall(r.now, at, tr, false)
				r.res.PageWait += at - r.now
				r.now = at
				r.apply(f, tr)
				if tr.Done() {
					r.finish(tr, f, r.now)
				}
			} else {
				// In-flight transfer does not cover this byte
				// (lazy fetch): wait it out, then refault.
				r.engine.NoteStall(r.now, tr.CompleteAt, tr, false)
				r.res.PageWait += tr.CompleteAt - r.now
				r.now = tr.CompleteAt
				r.apply(f, tr)
				r.finish(tr, f, r.now)
			}
		}
	}

	if !f.Valid.Has(off) {
		// Resident but the needed subpage never transferred: a
		// subpage fault (lazy fetch).
		r.subpageFault(f, off)
	}

	if f.Prefetched != 0 {
		// A usage-tracked run: consume the covering subpage's speculative
		// marks on its first access. Consumption is per subpage — the
		// policies' prediction unit — and feeds the stateful policy's
		// history, so the detector sees the demand stream even where a
		// correct prediction suppressed the fault.
		m := memmodel.MaskFor(r.subpage, off/r.subpage)
		if used := f.Prefetched & m; used != 0 {
			f.Prefetched &^= m
			r.res.PrefetchUsed += int64(used.Count())
			r.engine.RecordUse(f.Page, off)
		}
	}

	if r.emu != nil && f.Valid != memmodel.FullBitmap {
		d := r.emu.Access(f.Page, ref.Store).ToTicks()
		r.now += d
		r.res.PALTicks += d
	}
	return f
}

// apply folds a transfer's arrived messages into the frame, marking the
// speculative blocks (beyond the fault's demanded subpage) when the run
// tracks prefetch usage.
func (r *runner) apply(f *memmodel.Frame, tr *core.Transfer) {
	got := tr.ApplyArrived(r.now)
	f.Valid |= got
	if r.trackUse {
		f.Prefetched |= got &^ tr.Demand()
	}
}

// pageFault brings a non-resident page in and returns its frame, with the
// clock advanced past the stall.
func (r *runner) pageFault(page memmodel.PageID, off int) *memmodel.Frame {
	r.res.Faults++
	if r.cfg.TrackPerFault {
		r.res.FaultEvents = append(r.res.FaultEvents, r.res.Events)
	}

	if r.cfg.Backing == Disk {
		return r.diskFault(page)
	}
	if _, hit := r.cluster.Fetch(page); !hit {
		// Not in network memory: cold start or globally discarded.
		return r.diskFault(page)
	}
	r.res.RemoteFaults++
	// Evict before starting the fault: the victim's transfer leaves the
	// engine's live list before this fault's joins it. That fixes the order
	// flush closes transfers in, and so the tail of PerFaultWait.
	f := r.insert(page, 0)
	tr := r.engine.StartFault(r.now, page, off)
	f.Xfer = tr
	f.DistFrom = int16(tr.FaultIdx)

	r.engine.NoteStall(r.now, tr.FirstArrival, tr, true)
	r.res.SpLatency += tr.FirstArrival - r.now
	r.now = tr.FirstArrival

	r.apply(f, tr)
	if tr.Done() {
		r.finish(tr, f, r.now)
	}
	return f
}

// diskFault serves a fault synchronously from disk.
func (r *runner) diskFault(page memmodel.PageID) *memmodel.Frame {
	r.res.DiskFaults++
	lat := r.diskTr.Access(int64(page), units.PageSize).ToTicks()
	r.res.DiskWait += lat
	if r.cfg.Trace != nil {
		r.cfg.Trace.DiskFault(uint64(page), r.now, r.now+lat)
	}
	r.now += lat
	if r.cfg.TrackPerFault {
		r.res.PerFaultWait = append(r.res.PerFaultWait, lat)
	}
	return r.insert(page, memmodel.FullBitmap)
}

// subpageFault refetches one subpage of a resident page (lazy fetch).
func (r *runner) subpageFault(f *memmodel.Frame, off int) {
	r.res.SubpageFaults++
	tr := r.engine.StartFault(r.now, f.Page, off)
	if r.cfg.Trace != nil {
		r.cfg.Trace.SetKind(tr.TraceID(), obs.FaultSubpage)
	}
	f.Xfer = tr

	r.engine.NoteStall(r.now, tr.FirstArrival, tr, true)
	r.res.SpLatency += tr.FirstArrival - r.now
	r.now = tr.FirstArrival

	r.apply(f, tr)
	if tr.Done() {
		r.finish(tr, f, r.now)
	}
}

// insert makes page resident, handling eviction (putpage to global memory)
// and cancellation of in-flight transfers on the victim.
func (r *runner) insert(page memmodel.PageID, valid memmodel.Bitmap) *memmodel.Frame {
	f, evicted := r.pt.Insert(page, valid)
	if evicted != nil {
		r.res.Evictions++
		if evicted.Xfer != nil {
			tr := evicted.Xfer.(*core.Transfer)
			r.res.Canceled++
			if r.cfg.Trace != nil {
				r.cfg.Trace.Cancel(tr.TraceID())
			}
			r.finish(tr, evicted, r.now)
		}
		if r.cfg.Backing == GlobalMemory {
			// putpage: the evicted page enters the global cache
			// (asynchronously; not on the fault's critical path).
			r.cluster.Store(evicted.Page)
		}
	}
	return f
}

// finish closes a transfer at tick at: per-fault wait recording, detaching
// it from its frame, and overlap attribution — last, because the engine
// recycles the transfer there.
func (r *runner) finish(tr *core.Transfer, f *memmodel.Frame, at units.Ticks) {
	if r.cfg.TrackPerFault {
		wait := (tr.FirstArrival - tr.Started) + tr.PageWait
		r.res.PerFaultWait = append(r.res.PerFaultWait, wait)
	}
	if f != nil && f.Xfer == tr {
		f.Xfer = nil
	}
	r.engine.FinishTransfer(tr, at)
}

// flush closes transfers still open at end of trace, in the engine's live
// order: always the first, whose slot the last then takes.
func (r *runner) flush() {
	for live := r.engine.Live(); len(live) > 0; live = r.engine.Live() {
		r.finish(live[0], r.pt.Peek(live[0].Page), r.now)
	}
}
