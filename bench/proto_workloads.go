package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/gms-sim/gmsubpage/internal/obs"
	"github.com/gms-sim/gmsubpage/internal/remote"
	"github.com/gms-sim/gmsubpage/internal/rng"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// protoWorkload describes one live-prototype workload: how its cluster is
// shaped, how its workers are made (both are set-up), and which layers its
// traced run probes.
type protoWorkload struct {
	shards    int
	journaled bool
	wireMbps  float64 // applied as set-up's last step, so warm-up runs unpaced
	workers   func(rc *runCtx, cl *cluster) ([]worker, error)
	// layers reports the workload's own per-layer metrics in the traced run:
	// in-situ spans, raw probes against the live cluster, kernels.
	layers func(rc *runCtx, cl *cluster, base, traced *windowStats) error
}

var protoWorkloads = map[string]protoWorkload{
	"fault-churn":   {shards: 1, workers: churnWorkers(false), layers: faultChurnLayers},
	"atm-pair":      {shards: 1, wireMbps: atmMbps, workers: churnWorkers(true), layers: atmPairLayers},
	"writeback-mix": {shards: 1, workers: writebackWorkers, layers: writebackLayers},
	"hit-resident":  {shards: 1, workers: hitWorkers, layers: hitLayers},
	"cold-scan":     {shards: 2, journaled: true, workers: coldWorkers, layers: coldScanLayers},
}

// An untraced run sets its workload up several times and reports the median
// as setup_s, so one slow listen or fsync does not read as a regression: at
// least setupReps times, and until setupBudget is spent (a set-up of a few
// milliseconds needs many repetitions before its median is steady).
const (
	setupReps    = 3
	maxSetupReps = 31
	setupBudget  = 600 * time.Millisecond
)

// timeSetUps times setUp, tearing each result but the last down again. once
// is for a set-up that cannot be repeated in one process.
func timeSetUps(once bool, setUp func() error, tearDown func()) ([]float64, error) {
	var secs []float64
	var total time.Duration
	for {
		t0 := now()
		if err := setUp(); err != nil {
			return nil, err
		}
		d := since(t0)
		secs = append(secs, d.Seconds())
		total += d
		if n := len(secs); once || n >= maxSetupReps || (n >= setupReps && total >= setupBudget) {
			return secs, nil
		}
		tearDown()
		// Collect the torn-down cluster now, so that peak_rss_mb does not
		// depend on whether the collector happened to run between set-ups.
		runtime.GC()
	}
}

// each runs fn(0..n-1) concurrently and returns the first error.
func each(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func workerRand(rc *runCtx, g int) *rng.Rand {
	return rng.New(rc.seed*1_000_003 + uint64(g)*7919 + 1)
}

// touch reads 64 B of each page in [lo, hi) once and checks it: the warm-up
// that leaves the client holding a directory answer for every page.
func touch(c *remote.Client, lo, hi int) error {
	var buf [readSize]byte
	for p := lo; p < hi; p++ {
		if err := c.Read(buf[:], uint64(p)*units.PageSize); err != nil {
			return err
		}
		if !checkPattern(buf[:], uint64(p), 0) {
			return fmt.Errorf("warm-up read of page %d returned wrong bytes", p)
		}
	}
	return nil
}

func churnWorkers(pair bool) func(rc *runCtx, cl *cluster) ([]worker, error) {
	return func(rc *runCtx, cl *cluster) ([]worker, error) {
		ws := make([]worker, numClients)
		err := each(numClients, func(g int) error {
			c, err := cl.dial()
			if err != nil {
				return err
			}
			ws[g] = &churnWorker{clientWorker: clientWorker{c: c, r: workerRand(rc, g)},
				pages: rc.sz.pages, pair: pair, page: make([]byte, units.PageSize)}
			return touch(c, 0, rc.sz.pages)
		})
		return ws, err
	}
}

func writebackWorkers(rc *runCtx, cl *cluster) ([]worker, error) {
	ws := make([]worker, numClients)
	per := rc.sz.pages / numClients
	err := each(numClients, func(g int) error {
		c, err := cl.dial()
		if err != nil {
			return err
		}
		w := &writebackWorker{clientWorker: clientWorker{c: c, r: workerRand(rc, g)},
			base: g * per, n: per, shadow: make([]byte, per*units.PageSize), page: make([]byte, units.PageSize)}
		for i := 0; i < per; i++ {
			pattern(w.shadow[i*units.PageSize:(i+1)*units.PageSize], uint64(w.base+i))
		}
		ws[g] = w
		return touch(c, w.base, w.base+per)
	})
	return ws, err
}

func hitWorkers(rc *runCtx, cl *cluster) ([]worker, error) {
	c, err := cl.dial()
	if err != nil {
		return nil, err
	}
	page := make([]byte, units.PageSize)
	for p := 0; p < rc.sz.resident; p++ {
		if err := c.Read(page, uint64(p)*units.PageSize); err != nil {
			return nil, err
		}
		if !checkPattern(page, uint64(p), 0) {
			return nil, fmt.Errorf("warm-up read of page %d returned wrong bytes", p)
		}
	}
	ws := make([]worker, numClients)
	for g := range ws {
		r := workerRand(rc, g)
		table := make([]uint32, 1<<16)
		for k := range table {
			table[k] = uint32(r.Intn(rc.sz.resident))<<16 | uint32(r.Intn(units.PageSize-readSize+1))
		}
		ws[g] = &hitWorker{clientWorker: clientWorker{c: c, r: r}, owner: g == 0,
			slots: make([]byte, hitBatch*readSize), table: table}
	}
	return ws, nil
}

func coldWorkers(rc *runCtx, cl *cluster) ([]worker, error) {
	ws := make([]worker, numClients)
	per := rc.sz.pages / numClients
	for g := range ws {
		r := workerRand(rc, g)
		perm := make([]int, per)
		r.Perm(perm)
		order := make([]uint64, per)
		for i, k := range perm {
			order[i] = uint64(g*per + k)
		}
		ws[g] = &coldWorker{cl: cl, r: r, order: order}
	}
	return ws, nil
}

// setUp starts the workload's cluster and workers; everything in here is what
// setup_s times.
func (pw protoWorkload) setUp(rc *runCtx, reg *obs.Registry) (*cluster, []worker, error) {
	opt := clusterOpt{pages: rc.sz.pages, cache: rc.sz.cache, shards: pw.shards, metrics: reg}
	if pw.journaled {
		dir, err := tmpDir(rc.scratch, "journal-")
		if err != nil {
			return nil, nil, err
		}
		opt.journalDir = dir
	}
	cl, err := startCluster(opt)
	if err != nil {
		return nil, nil, err
	}
	ws, err := pw.workers(rc, cl)
	if err != nil {
		closeAll(cl, ws)
		return nil, nil, fmt.Errorf("start workers: %w", err)
	}
	cl.setWire(pw.wireMbps)
	if rc.tamper != nil {
		rc.tamper(cl)
	}
	return cl, ws, nil
}

func closeAll(cl *cluster, ws []worker) {
	for _, w := range ws {
		if w != nil {
			w.close()
		}
	}
	cl.close()
}

// run is one run of a prototype workload: the untraced run reports the
// end-to-end metrics, the traced run the per-layer ones.
func (pw protoWorkload) run(rc *runCtx) error {
	if rc.traced {
		return pw.runTraced(rc)
	}
	var cl *cluster
	var ws []worker
	setups, err := timeSetUps(false, func() (err error) {
		cl, ws, err = pw.setUp(rc, nil)
		return err
	}, func() { closeAll(cl, ws) })
	if err != nil {
		return err
	}
	defer func() { closeAll(cl, ws) }()

	// The window runs as windowSlices back-to-back slices and every timing
	// is the median over slices: a collector cycle or a burst of host noise
	// lands in one slice and leaves the median alone.
	var rate, p50, p99, first, cpu []float64
	var ops, units int64
	runtime.GC()
	for i := 0; i < windowSlices; i++ {
		st := runWindow(ws, rc.window/windowSlices, nil)
		rc.count(st)
		if st.ops == 0 {
			continue // every op of the slice failed; the run is invalid anyway
		}
		rate = append(rate, st.opsPerS())
		p50 = append(p50, pct(st.whole, 50)/1e3)
		p99 = append(p99, pct(st.whole, 99)/1e3)
		first = append(first, pct(st.first, 50)/1e3)
		cpu = append(cpu, us(st.cpu)/float64(st.ops))
		ops += st.ops
		units += int64(len(st.whole))
	}
	rc.endToEnd(e2eSamples{rate: rate, p50: p50, p99: p99, first: first, cpu: cpu, setups: setups}, ops, units)
	return nil
}

// e2eSamples holds one value per slice (or simulator pass) of each timing, in
// the metric's unit, and one per set-up.
type e2eSamples struct{ rate, p50, p99, first, cpu, setups []float64 }

// endToEnd reports the seven end-to-end metrics: the median over slices of
// each timing, the process's peak RSS, the median set-up.
func (rc *runCtx) endToEnd(v e2eSamples, ops, units int64) {
	rc.res.set("ops_per_s", median(v.rate), ops)
	rc.res.set("op_p50_us", median(v.p50), units)
	rc.res.set("op_p99_us", median(v.p99), units)
	rc.res.set("first_p50_us", median(v.first), units)
	rc.res.set("cpu_us_per_op", median(v.cpu), ops)
	rc.res.set("peak_rss_mb", peakRSSMB(), 1)
	rc.res.set("setup_s", median(v.setups), int64(len(v.setups)))
}

// windowSlices is how many slices an untraced window is measured in.
const windowSlices = 32

// count folds a window into the run's attempted/failed/correct verdict.
func (rc *runCtx) count(st *windowStats) {
	rc.attempted += st.ops + st.failed
	rc.failed += st.failed
	if st.bad > 0 {
		rc.correct = false
		rc.notef("%d ops returned wrong bytes", st.bad)
	}
}

func (pw protoWorkload) runTraced(rc *runCtx) error {
	reg := obs.NewRegistry()
	cl, ws, err := pw.setUp(rc, reg)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			closeAll(cl, ws)
		}
	}()

	// Untraced and traced slices alternate on the same workers and cluster,
	// so the recorder is the only difference between the two sets and a slow
	// drift of the host lands on both: the ratio of their median rates is the
	// tracing overhead.
	const pairs = 8
	slice := rc.window * 2 / 3 / (2 * pairs)
	rc.rec = newRecorder(len(ws))
	var plain, recorded []*windowStats
	runtime.GC()
	before := snapshotRegistry(reg)
	for i := 0; i < pairs; i++ {
		plain = append(plain, runWindow(ws, slice, nil))
		recorded = append(recorded, runWindow(ws, slice, rc.rec))
	}
	after := snapshotRegistry(reg)
	base, traced := mergeWindows(plain), mergeWindows(recorded)
	rc.count(base)
	rc.count(traced)
	if base.ops == 0 || traced.ops == 0 {
		return fmt.Errorf("no op completed in the traced run's windows")
	}

	rc.spans = rc.rec.durations()
	rc.res.set("trace_overhead_pct", 100*(medianRate(plain)/medianRate(recorded)-1), traced.ops)
	rc.clientLayer(traced)
	both := float64(base.ops + traced.ops) // the registry counted both sets of slices
	rc.res.set("server.bytes_out_per_op", (after.serverBytesOut-before.serverBytesOut)/both, base.ops+traced.ops)
	rc.res.set("directory.lookups_per_op", (after.dirLookups-before.dirLookups)/both, base.ops+traced.ops)
	rc.res.set("server.store_ns", float64(cl.store.Nanoseconds())/float64(rc.sz.pages), int64(rc.sz.pages))
	rc.res.set("server.register_ms", ms(cl.register), numServers)
	rc.res.set("dirshard.start_ms", ms(cl.shardStart), int64(pw.shards))
	rc.procLayer(traced.mem, traced.ops)
	if err := pw.layers(rc, cl, base, traced); err != nil {
		return err
	}
	// Server.Cancels is the server's published statistic; Close has joined
	// every goroutine that writes it.
	closeAll(cl, ws)
	closed = true
	var cancels int64
	for _, s := range cl.servers {
		cancels += s.Cancels
	}
	rc.res.set("server.cancels", float64(cancels), 1)
	return nil
}

// clientLayer reports what remote.Client.Stats says about the traced window.
func (rc *runCtx) clientLayer(w *windowStats) {
	ops := float64(w.ops)
	st := w.client
	faults := float64(st.Faults)
	rc.res.set("client.faults_per_op", faults/ops, w.ops)
	hit := 1 - faults/ops
	if hit < 0 {
		hit = 0
	}
	rc.res.set("client.hit_ratio", hit, w.ops)
	rc.res.set("client.evictions_per_op", float64(st.Evictions)/ops, w.ops)
	perFault := 0.0
	if faults > 0 {
		perFault = float64(st.BytesIn) / faults
	}
	rc.res.set("client.bytes_in_per_fault", perFault, st.Faults)
	// Wire bytes per op: page data in, plus whole pages written back.
	rc.res.set("client.bytes_in_per_op", (float64(st.BytesIn)+float64(st.PutPages)*units.PageSize)/ops, w.ops)
	rc.res.set("client.putpages_per_op", float64(st.PutPages)/ops, w.ops)
	rc.res.set("client.retries", float64(st.Retries), 1)
	rc.res.set("client.failovers", float64(st.Failovers), 1)
	rc.res.set("client.hedges", float64(st.Hedges), 1)
	rc.res.set("client.cancels", float64(st.Cancels), 1)
	if st.Retries+st.Failovers+st.Hedges+st.Cancels > 0 {
		rc.notef("suspect run: retries=%d failovers=%d hedges=%d cancels=%d on an undisturbed loopback",
			st.Retries, st.Failovers, st.Hedges, st.Cancels)
	}
	if w.lats.subN > 0 {
		rc.res.set("client.subpage_lat_mean_us", w.lats.subSum/w.lats.subN, int64(w.lats.subN))
	}
	if w.lats.fullN > 0 {
		rc.res.set("client.full_lat_mean_us", w.lats.fullSum/w.lats.fullN, int64(w.lats.fullN))
	}
	if reads := rc.spans["client.Read"]; len(reads) > 0 {
		rc.res.set("client.read_p999_us", pct(reads, 99.9)/1e3, int64(len(reads)))
		rc.res.set("client.read_max_us", reads[len(reads)-1]/1e3, int64(len(reads)))
	}
}

// procLayer reports what the Go runtime did over a traced window.
func (rc *runCtx) procLayer(m memDelta, ops int64) {
	rc.res.set("proc.allocs_per_op", float64(m.mallocs)/float64(ops), ops)
	rc.res.set("proc.alloc_bytes_per_op", float64(m.bytes)/float64(ops), ops)
	rc.res.set("proc.gc_cycles", float64(m.gcs), 1)
	rc.res.set("proc.gc_pause_ms", ms(m.pause), int64(m.gcs))
}

// spanP reports a percentile of the traced window's spans of one name.
func (rc *runCtx) spanP(metric, spanName string, p, scale float64) {
	d := rc.spans[spanName]
	if len(d) > 0 {
		rc.res.set(metric, pct(d, p)/scale, int64(len(d)))
	}
}

// registrySnap holds the counters the traced run differences over its window.
type registrySnap struct{ serverBytesOut, dirLookups float64 }

func snapshotRegistry(reg *obs.Registry) registrySnap {
	return registrySnap{
		serverBytesOut: float64(reg.Counter("gms_server_bytes_out_total", "").Value()),
		dirLookups:     float64(reg.Counter("gms_dir_lookups_total", "").Value()),
	}
}
