package remote

import (
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/obs"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// DefaultHeartbeatInterval is the lease-renewal period used unless
// SetHeartbeatInterval overrides it. It must stay well under the
// directory's lease TTL so a healthy server never expires.
const DefaultHeartbeatInterval = 5 * time.Second

// Server is a page server: a node donating memory to the global cache. It
// answers GetPageV2 requests by streaming the faulted subpage first and the
// remainder according to the requested policy, and accepts PutPage traffic
// from evicting clients.
type Server struct {
	serving *proto.Service

	mu    sync.Mutex
	pages map[uint64]*pageBuf
	done  bool

	// Control-plane state. dirAddr is the bootstrap directory remembered
	// from the last RegisterWith so lease renewal and post-restart
	// re-registration reuse it; dirAddrs is every directory holding a lease
	// for this server — just the bootstrap when the deployment is
	// unsharded, all shards from the bootstrap's shard map when it is.
	// epoch is the registration epoch: drawn from the wall clock at first
	// registration (so a restarted incarnation always registers higher) or
	// pinned by SetEpoch in tests. hbOn records that the heartbeat loop is
	// running.
	dirAddr  string
	dirAddrs []string
	epoch    uint64
	hbEvery  time.Duration
	hbOn     bool

	// wireNsPerByte emulates a slower link: each connection's writer paces
	// its data batches at this rate (see link). Loopback TCP is effectively
	// infinitely fast, which hides the transfer-size effects the paper
	// measures on a 155 Mb/s ATM; throttling restores them. Zero means no
	// throttling. Accessed atomically.
	wireNsPerByte int64

	// Stats.
	Gets    int64
	Puts    int64
	Cancels int64 // requests withdrawn by TCancel before completion
	Reregs  int64 // full re-registrations after a directory answered "no lease"

	// met holds the gms_server_* metric handles (nil-safe no-ops until
	// SetMetrics is called).
	met serverMetrics

	hbStop    chan struct{}
	closeOnce sync.Once
	closeErr  error
	wg        sync.WaitGroup
}

// SetWireMbps emulates a link of the given megabits per second (0 disables
// emulation). 155 reproduces the paper's AN2 ATM rate.
func (s *Server) SetWireMbps(mbps float64) {
	var perByte int64
	if mbps > 0 {
		perByte = int64(math.Round(8_000 / mbps)) // ns per byte
	}
	atomic.StoreInt64(&s.wireNsPerByte, perByte)
}

// link is one connection's emulated wire: the rate snapshot of the reply
// being sent, the wire's clock and the writer's precise sleeper (see
// delay_linux.go: Go's own timers can have a millisecond floor, and
// thread-blocking sleeps can starve the client's goroutines on a single
// CPU).
//
// The clock, free, is the instant the wire next goes idle. A reply starts
// at max(free, now), taken when its first batch is ready, so the server's
// own software time stays outside the wire. Each batch then advances free
// by its serialization time and is written at that absolute deadline,
// never before. A wake-up that overshoots one deadline is absorbed by the
// next batch's instead of being added to it, so a paced page pays one
// timer overshoot, not one per plan message: netmodel.Resources.WireFree's
// rule, with every batch of a reply ready at the reply's start. The clock
// is per connection, like a client's own link; one clock per server would
// queue one client's reply behind another's.
type link struct {
	nsPerByte int64 // 0: the reply is not paced
	free      time.Time
	slp       *sleeper
}

// begin snapshots the emulated rate for one reply and reports whether the
// reply is paced.
func (l *link) begin(nsPerByte int64) bool {
	l.nsPerByte = nsPerByte
	return nsPerByte > 0
}

// pace holds a batch of n data bytes until the wire has carried it; first
// marks a reply's first batch, which starts the reply on the clock.
func (l *link) pace(first bool, n int) {
	if first {
		if now := time.Now(); now.After(l.free) {
			l.free = now
		}
	}
	l.free = l.free.Add(time.Duration(l.nsPerByte * int64(n)))
	l.slp.Sleep(time.Until(l.free))
}

// ListenServer starts a page server on addr.
func ListenServer(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: server listen: %w", err)
	}
	return ListenServerOn(ln), nil
}

// ListenServerOn starts a page server on an existing listener — the hook
// for serving through a chaos injector or a custom transport.
func ListenServerOn(ln net.Listener) *Server {
	s := &Server{
		pages:   make(map[uint64]*pageBuf),
		hbEvery: DefaultHeartbeatInterval,
		hbStop:  make(chan struct{}),
	}
	s.serving = proto.Serve(ln, s.serve)
	return s
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.serving.Addr() }

// SetMetrics registers the server's gms_server_* metrics on r (nil
// disables them). Call before serving traffic; the handles themselves are
// nil-safe, so an unset registry costs one pointer compare per event.
func (s *Server) SetMetrics(r *obs.Registry) {
	s.mu.Lock()
	s.met = newServerMetrics(r)
	s.met.pages.Set(int64(len(s.pages)))
	s.mu.Unlock()
}

// Close stops the server, severing active connections and stopping the
// lease-renewal heartbeat. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		close(s.hbStop)
		s.mu.Lock()
		s.done = true
		s.mu.Unlock()
		s.closeErr = s.serving.Close()
		s.wg.Wait()
	})
	return s.closeErr
}

// SetEpoch pins the server's registration epoch; call before RegisterWith.
// Tests use it to model server incarnations deterministically. By default
// the epoch is drawn from the wall clock at first registration, so a
// restarted server always registers with a higher epoch than its
// predecessor and fences out that incarnation's directory entries.
func (s *Server) SetEpoch(e uint64) {
	s.mu.Lock()
	s.epoch = e
	s.mu.Unlock()
}

// Epoch reports the server's registration epoch (zero before the first
// RegisterWith if SetEpoch was never called).
func (s *Server) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// SetHeartbeatInterval overrides the lease-renewal period. It takes effect
// from the next heartbeat; keep it well under the directory's lease TTL.
func (s *Server) SetHeartbeatInterval(d time.Duration) {
	if d <= 0 {
		d = DefaultHeartbeatInterval
	}
	s.mu.Lock()
	s.hbEvery = d
	s.mu.Unlock()
}

// pageBuf is one page-sized buffer with a reference count: the pages map
// holds one reference, and every in-flight reply stream holds another for
// as long as it reads the data. Buffers recycle through pagePool when the
// last reference drops, so a steady stream of Store calls — the client
// write-back path, the load harness warm-up — runs without allocating or
// garbage-collecting a page per call (the Server.Store bugfix; budget
// pinned by BenchmarkServerStoreAllocs).
type pageBuf struct {
	data []byte // always units.PageSize long
	refs atomic.Int64
}

var pagePool = sync.Pool{
	New: func() any { return &pageBuf{data: make([]byte, units.PageSize)} },
}

// newPageBuf takes a buffer from the pool holding one reference, filled
// with data and zero-padded to a full page.
func newPageBuf(data []byte) *pageBuf {
	pb := pagePool.Get().(*pageBuf)
	pb.refs.Store(1)
	n := copy(pb.data, data)
	clear(pb.data[n:]) // pooled buffers carry a previous page's bytes
	return pb
}

func (pb *pageBuf) retain() { pb.refs.Add(1) }

func (pb *pageBuf) release() {
	if pb.refs.Add(-1) == 0 {
		pagePool.Put(pb)
	}
}

// Store makes the server hold a page. The data is copied into a pooled
// buffer; short data is zero-padded to a full page.
func (s *Server) Store(page uint64, data []byte) {
	pb := newPageBuf(data)
	s.mu.Lock()
	old := s.pages[page]
	s.pages[page] = pb
	s.met.pages.Set(int64(len(s.pages)))
	s.mu.Unlock()
	if old != nil {
		// Dropped outside the lock: release may return the buffer to the
		// pool, and an in-flight reply stream may still hold a reference.
		old.release()
	}
}

// Pages returns the number of pages stored.
func (s *Server) Pages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pages)
}

// RegisterWith announces every stored page to the directory at dirAddr and
// takes out a lease there, which the server then renews on a heartbeat
// ticker until Close. If the bootstrap directory serves a sharded map, the
// page list is partitioned by ring owner and the server registers with —
// and leases itself to — every shard, so each shard's janitor tracks this
// server's liveness independently. The addresses are remembered so renewal
// and post-restart re-registration reuse them. An unreachable directory
// yields a typed error matching ErrDirectoryUnreachable.
func (s *Server) RegisterWith(dirAddr string) error {
	s.mu.Lock()
	if s.epoch == 0 {
		s.epoch = uint64(time.Now().UnixNano())
	}
	epoch := s.epoch
	s.dirAddr = dirAddr
	startHB := !s.hbOn && !s.done
	if startHB {
		s.hbOn = true
	}
	ids := make([]uint64, 0, len(s.pages))
	for p := range s.pages {
		ids = append(ids, p)
	}
	s.mu.Unlock()
	if startHB {
		s.wg.Add(1)
		go s.heartbeatLoop()
	}

	m, err := getShardMap(dirAddr)
	if err != nil {
		return err
	}
	ring := proto.NewRing(m)
	if ring == nil {
		s.mu.Lock()
		s.dirAddrs = []string{dirAddr}
		s.mu.Unlock()
		return s.registerAt(dirAddr, epoch, ids)
	}
	byShard := make([][]uint64, len(m.Shards))
	for _, p := range ids {
		byShard[ring.Owner(p)] = append(byShard[ring.Owner(p)], p)
	}
	s.mu.Lock()
	s.dirAddrs = append([]string(nil), m.Shards...)
	s.mu.Unlock()
	for i, addr := range m.Shards {
		// An empty batch still takes out a lease: the shard tracks this
		// server even before it owns any of its pages.
		if err := s.registerAt(addr, epoch, byShard[i]); err != nil {
			return err
		}
	}
	return nil
}

// registerTimeout bounds each dial and each round trip with a directory:
// a wedged or silent one fails the registration or the renewal (and the
// heartbeat self-heal behind it) instead of hanging it forever.
const registerTimeout = 2 * time.Second

// registerAt sends one registration, in frame-bounded batches, to the
// directory at dirAddr. An empty server still sends one registration so it
// holds a lease.
func (s *Server) registerAt(dirAddr string, epoch uint64, ids []uint64) error {
	const batch = (proto.MaxPayload - 256) / 8
	for first := true; first || len(ids) > 0; first = false {
		n := len(ids)
		if n > batch {
			n = batch
		}
		// One exchange per batch, each under its own deadline: it is
		// per-exchange progress that proves the directory alive.
		_, err := proto.Ask(dirAddr, registerTimeout, func(w *proto.Writer) error {
			return w.SendRegister(proto.Register{Addr: s.Addr(), Epoch: epoch, Pages: ids[:n]})
		}, proto.TAck)
		if err != nil {
			return fmt.Errorf("remote: register with %s: %w", dirAddr, err)
		}
		ids = ids[n:]
	}
	return nil
}

// getShardMap asks the directory at addr which shard map it serves. The
// empty map means the deployment is unsharded.
func getShardMap(addr string) (proto.ShardMap, error) {
	f, err := proto.Ask(addr, registerTimeout, (*proto.Writer).SendGetShardMap, proto.TShardMap)
	if err != nil {
		return proto.ShardMap{}, fmt.Errorf("remote: shard map from %s: %w", addr, err)
	}
	return proto.DecodeShardMap(f.Payload)
}

// heartbeatLoop renews the directory lease until Close. A lost lease
// (directory restarted, or renewals delayed past the TTL) triggers a full
// re-registration; an unreachable directory is retried next tick.
func (s *Server) heartbeatLoop() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		every := s.hbEvery
		s.mu.Unlock()
		t := time.NewTimer(every)
		select {
		case <-s.hbStop:
			t.Stop()
			return
		case <-t.C:
		}
		s.heartbeat()
	}
}

// heartbeat sends one lease renewal to every directory holding a lease
// (each shard in a sharded deployment). Errors are deliberately swallowed:
// the loop's only obligation is to try again next tick. Any directory that
// answers "no lease" triggers one full re-registration, which refreshes
// every shard, so the remaining renewals this tick are skipped.
func (s *Server) heartbeat() {
	s.mu.Lock()
	boot, epoch, met := s.dirAddr, s.epoch, s.met
	dirs := append([]string(nil), s.dirAddrs...)
	s.mu.Unlock()
	if len(dirs) == 0 {
		if boot == "" {
			return
		}
		dirs = []string{boot}
	}
	for _, dir := range dirs {
		renewed, err := s.renewAt(dir, epoch)
		if err != nil {
			continue // unreachable: retried next tick
		}
		met.heartbeats.Inc()
		if !renewed {
			met.reregs.Inc()
			atomic.AddInt64(&s.Reregs, 1)
			_ = s.RegisterWith(boot)
			return
		}
	}
}

// renewAt sends one lease renewal to the directory at dir, reporting
// whether the directory still recognized the lease: its TError is the "no
// lease" answer, and anything else unasked-for is a failed renewal.
func (s *Server) renewAt(dir string, epoch uint64) (bool, error) {
	f, err := proto.Ask(dir, registerTimeout, func(w *proto.Writer) error {
		return w.SendHeartbeat(proto.Heartbeat{Addr: s.Addr(), Epoch: epoch})
	}, proto.TAck, proto.TError)
	return f.Type == proto.TAck, err
}

// connState is the per-connection serving state shared by the reader and
// writer halves. The reader decodes requests into queue and records
// cancellations; the writer drains queue, streaming replies and checking
// canceled between batches. live bounds canceled: a TCancel for an ID
// that is not queued or streaming is dropped, so a peer cannot grow the
// map with IDs the server never saw.
type connState struct {
	conn  net.Conn
	queue chan proto.GetPageV2
	link  link // the writer's

	cmu      sync.Mutex
	live     map[uint64]bool
	canceled map[uint64]bool

	// Writer-goroutine scratch, reused across replies so the steady-state
	// reply path allocates nothing per request. hdr and bufs hold the frames
	// queued since the last flush (pending counts their data bytes).
	batches []memmodel.Bitmap
	hdr     []byte
	bufs    net.Buffers
	wbufs   net.Buffers // the copy of bufs WriteTo consumes (a local would escape)
	pending int
	runs    []proto.SubpageRun
	brs     []byteRun
}

// begin records a request as live (called by the reader on enqueue).
func (st *connState) begin(id uint64) {
	st.cmu.Lock()
	st.live[id] = true
	st.cmu.Unlock()
}

// cancel marks a live request canceled; cancels for unknown IDs no-op.
func (st *connState) cancel(id uint64) {
	st.cmu.Lock()
	if st.live[id] {
		st.canceled[id] = true
	}
	st.cmu.Unlock()
}

// isCanceled is the writer's between-batches poll.
func (st *connState) isCanceled(id uint64) bool {
	st.cmu.Lock()
	defer st.cmu.Unlock()
	return st.canceled[id]
}

// finish retires a request's cancel-tracking state.
func (st *connState) finish(id uint64) {
	st.cmu.Lock()
	delete(st.live, id)
	delete(st.canceled, id)
	st.cmu.Unlock()
}

// serve sets up one connection: its writer half streams replies while the
// read loop Serve runs keeps decoding, so a TCancel racing a reply stream is
// seen mid-stream (the point of the split). The Close hook stops the writer
// once it has sent every reply queued, ahead of any refusal.
func (s *Server) serve(pc *proto.Conn) proto.Handler {
	st := &connState{
		conn:     pc.Conn,
		queue:    make(chan proto.GetPageV2, 64),
		live:     make(map[uint64]bool),
		canceled: make(map[uint64]bool),
	}
	writerDone := make(chan struct{})
	go func() { s.writeLoop(st, pc.Writer); close(writerDone) }()
	return proto.Handler{
		Frame: func(f proto.Frame) error { return s.handle(st, f) },
		Close: func() {
			close(st.queue)
			<-writerDone
		},
	}
}

// handle takes one request frame off a connection.
func (s *Server) handle(st *connState, f proto.Frame) error {
	switch f.Type {
	case proto.TGetPageV2:
		req, err := proto.DecodeGetPageV2(f.Payload)
		if err != nil {
			return err
		}
		st.begin(req.ReqID)
		st.queue <- req
	case proto.TCancel:
		cn, err := proto.DecodeCancel(f.Payload)
		if err != nil {
			return err
		}
		st.cancel(cn.ReqID)
	case proto.TPutPage:
		put, err := proto.DecodePutPage(f.Payload)
		if err != nil {
			return err
		}
		s.Store(put.Page, put.Data)
		s.mu.Lock()
		s.Puts++
		met := s.met
		s.mu.Unlock()
		met.puts.Inc()
	default:
		return fmt.Errorf("server: unexpected %v", f.Type)
	}
	return nil
}

// writeLoop is a connection's writer half: it owns every byte written to
// the connection until the Close hook, serving queued gets in arrival
// order. After a write error the connection is severed (unblocking the
// reader) and the remaining queue is drained without touching the wire.
func (s *Server) writeLoop(st *connState, w *proto.Writer) {
	st.link.slp = newSleeper()
	defer st.link.slp.Close()
	dead := false
	for req := range st.queue {
		if !dead && s.sendPageV2(st, w, req) != nil {
			dead = true
			_ = st.conn.Close()
		}
		st.finish(req.ReqID)
	}
}

// openGet validates one get request and pins its page: the returned
// pageBuf holds a reference the caller must release. A non-empty errMsg
// means the request is refused (pb is nil).
func (s *Server) openGet(page uint64, policy uint8, subpageSize, faultOff uint32) (pb *pageBuf, pol core.Policy, sub, off int, errMsg string) {
	s.mu.Lock()
	pb = s.pages[page]
	if pb != nil {
		pb.retain()
	}
	s.Gets++
	met := s.met
	s.mu.Unlock()
	met.gets.Inc()
	if pb == nil {
		return nil, nil, 0, 0, fmt.Sprintf("server: page %d not stored", page)
	}
	var err error
	if pol, err = core.WirePolicy(policy); err != nil {
		pb.release()
		return nil, nil, 0, 0, err.Error()
	}
	sub = int(subpageSize)
	if !units.ValidSubpageSize(sub) {
		pb.release()
		return nil, nil, 0, 0, fmt.Sprintf("server: bad subpage size %d", sub)
	}
	off = int(faultOff)
	if off < 0 || off >= units.PageSize {
		pb.release()
		return nil, nil, 0, 0, fmt.Sprintf("server: bad fault offset %d", off)
	}
	return pb, pol, sub, off, ""
}

func (s *Server) metrics() serverMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.met
}

// sendPageV2 streams one page as TSubpageBatch frames: the plan message
// covering the fault goes first (FlagFirst), the remainder follows, and the
// final batch carries FlagLast. The want bitmap trims the plan to the blocks
// the client still misses (the faulted block is always sent).
//
// What paces the wire decides the batches and the writes. On a raw loopback
// nothing does: the faulted message and one maximal batch for the remainder
// (a full page minus one subpage fits a single frame) leave in one vectored
// write — the faulted subpage still first in the byte stream, so a real link
// delivers it first, at one syscall per reply. With wire emulation on, every
// plan message is its own batch, written on its own when the connection's
// link has carried it, which keeps the arrival timing the transfer plans
// model. The request's cancel flag is polled before each batch after the
// first is appended, so a withdrawn hedge stops mid-page instead of burning
// the rest of its bandwidth.
func (s *Server) sendPageV2(st *connState, w *proto.Writer, req proto.GetPageV2) error {
	pb, pol, sub, off, errMsg := s.openGet(req.Page, req.Policy, req.SubpageSize, req.FaultOff)
	if errMsg != "" {
		return w.SendError(errMsg)
	}
	defer pb.release()
	met := s.metrics()

	want := memmodel.Bitmap(req.Want)
	if want == 0 {
		want = ^memmodel.Bitmap(0)
	}
	want |= 1 << (off / units.MinSubpage) // the faulted block is never optional

	// The want bitmap is a request, not a filter: blocks the client asks for
	// beyond the plan's coverage (prefetch predictions on a lazy fault) are
	// still owed. The plan shapes timing and batching; want decides content,
	// and whatever no plan message covers rides the last batch.
	plan := pol.Plan(sub, off)
	paced := st.link.begin(atomic.LoadInt64(&s.wireNsPerByte))
	st.batches = st.batches[:0]
	if !paced {
		first := plan[0].Covers & want
		st.batches = append(st.batches, first)
		if rest := want &^ first; rest != 0 {
			st.batches = append(st.batches, rest)
		}
	} else {
		sent := memmodel.Bitmap(0)
		for i, msg := range plan {
			covers := msg.Covers & want &^ sent
			if i == len(plan)-1 {
				covers = want &^ sent // sent even when empty: it carries FlagLast
			} else if covers == 0 {
				continue
			}
			st.batches = append(st.batches, covers)
			sent |= covers
		}
	}

	for i, covers := range st.batches {
		if i > 0 && st.isCanceled(req.ReqID) {
			s.mu.Lock()
			s.Cancels++
			s.mu.Unlock()
			break
		}
		flags := uint8(0)
		if i == 0 {
			flags |= proto.FlagFirst
		}
		if i == len(st.batches)-1 {
			flags |= proto.FlagLast
		}
		bytes, err := st.appendBatch(req.ReqID, req.Page, flags, covers, pb.data)
		if err != nil {
			return err
		}
		if paced {
			st.link.pace(i == 0, bytes)
			if err := st.flush(met); err != nil {
				return err
			}
		}
	}
	return st.flush(met)
}

// appendBatch queues one TSubpageBatch covering the given valid bits behind
// whatever the connection's write vector already holds, returning its data
// bytes: the frame header and run table build into the connection's reused
// scratch buffer, and the page data rides as scatter-gather ranges straight
// out of the (refcount-pinned) page buffer — no per-batch copies, no
// per-batch allocations.
func (st *connState) appendBatch(reqID, page uint64, flags uint8, covers memmodel.Bitmap, data []byte) (int, error) {
	st.runs = st.runs[:0]
	st.brs = appendBitmapRuns(st.brs[:0], covers)
	bytes := 0
	for _, run := range st.brs {
		st.runs = append(st.runs, proto.SubpageRun{Off: uint32(run.start), Data: data[run.start:run.end]})
		bytes += run.end - run.start
	}
	at := len(st.hdr)
	hdr, err := proto.AppendSubpageBatchFrame(st.hdr, reqID, page, flags, st.runs)
	if err != nil {
		return 0, err
	}
	// A header that outgrew the scratch buffer moved to a new array; the
	// frames queued before it keep the old one, which stays intact.
	st.hdr = hdr
	st.bufs = append(st.bufs, hdr[at:])
	for _, r := range st.runs {
		st.bufs = append(st.bufs, r.Data)
	}
	st.pending += bytes
	return bytes, nil
}

// flush hands every queued frame to the connection in one vectored write;
// with nothing queued it does nothing.
func (st *connState) flush(met serverMetrics) error {
	if len(st.bufs) == 0 {
		return nil
	}
	st.wbufs = st.bufs // WriteTo consumes its receiver; keep st.bufs's backing array
	_, err := st.wbufs.WriteTo(st.conn)
	if err == nil {
		met.bytesOut.Add(int64(st.pending))
	}
	st.hdr, st.bufs, st.pending = st.hdr[:0], st.bufs[:0], 0
	return err
}

// byteRun is a contiguous valid range within a page.
type byteRun struct{ start, end int }

// appendBitmapRuns converts a valid-bit set into contiguous byte ranges,
// appended to dst so the reply path allocates nothing.
func appendBitmapRuns(dst []byteRun, b memmodel.Bitmap) []byteRun {
	runs := dst
	inRun := false
	var start int
	for i := 0; i < units.ValidBitsPerPage; i++ {
		set := b&(1<<i) != 0
		switch {
		case set && !inRun:
			start = i * units.MinSubpage
			inRun = true
		case !set && inRun:
			runs = append(runs, byteRun{start, i * units.MinSubpage})
			inRun = false
		}
	}
	if inRun {
		runs = append(runs, byteRun{start, units.PageSize})
	}
	return runs
}
