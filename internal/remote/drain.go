package remote

import (
	"fmt"
	"sort"
	"time"

	"github.com/gms-sim/gmsubpage/internal/dirlog"
	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// Drain transfer timeouts: dialing a server and one page copy
// (fetch + put + ordered confirmation) each get a bounded window, so a
// dead peer fails the drain instead of wedging it.
const (
	drainDialTimeout = 2 * time.Second
	drainOpTimeout   = 5 * time.Second
)

// Drain gracefully decommissions the server registered at addr: every
// page whose only live replica sits on that server is copied to a peer
// first, the destination's registration is extended to cover it, and
// only then is the server's lease dropped with its epoch fenced — so a
// planned shutdown never turns a page unavailable and the drained
// incarnation can never re-register as if nothing happened. Pages that
// already have live replicas elsewhere need no copy; expunging the
// drained holder leaves them served by the survivors.
//
// Drain returns the number of pages transferred. It fails — leaving the
// server registered and serving, with the draining mark rolled back —
// when addr is unknown or expired, already draining, re-registered with
// a new epoch mid-drain, or when its sole-copy pages have no live peer
// to move to (the last server cannot be drained away).
//
// In a sharded deployment each shard drains the pages it owns;
// decommissioning a server means draining it on every shard.
func (d *Directory) Drain(addr string) (int, error) {
	plan, epoch, err := d.beginDrain(addr)
	if err != nil {
		return 0, err
	}
	moved := 0
	for _, t := range plan {
		if err := transferPages(addr, t.dest, t.pages); err != nil {
			d.abortDrain(addr, epoch)
			return moved, fmt.Errorf("transferring %d pages to %s: %w", len(t.pages), t.dest, err)
		}
		if err := d.commitTransfer(addr, epoch, t.dest, t.pages); err != nil {
			d.abortDrain(addr, epoch)
			return moved, err
		}
		moved += len(t.pages)
	}
	if err := d.finishDrain(addr, epoch); err != nil {
		return moved, err
	}
	return moved, nil
}

// transfer is one destination's share of a drain plan.
type transfer struct {
	dest  string
	pages []uint64
}

// beginDrain validates the drain, marks addr draining (journaled), and
// plans the sole-copy transfers round-robin across the live peers. The
// plan is deterministic: pages and destinations are sorted.
func (d *Directory) beginDrain(addr string) ([]transfer, uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done {
		return nil, 0, fmt.Errorf("directory closed")
	}
	t := d.nanos(time.Now())
	s := d.st.Servers[addr]
	if s == nil || t > s.Expires {
		return nil, 0, fmt.Errorf("no live registration")
	}
	if d.st.Draining[addr] {
		return nil, 0, fmt.Errorf("already draining")
	}

	var dests []string
	for a, peer := range d.st.Servers {
		if a != addr && !d.st.Draining[a] && t <= peer.Expires {
			dests = append(dests, a)
		}
	}
	sort.Strings(dests)

	var sole []uint64
	for p := range s.Pages {
		alone := true
		for holder := range d.st.Holders[p] {
			if holder != addr && t <= d.st.Servers[holder].Expires {
				alone = false
				break
			}
		}
		if alone {
			sole = append(sole, p)
		}
	}
	sort.Slice(sole, func(i, j int) bool { return sole[i] < sole[j] })
	if len(sole) > 0 && len(dests) == 0 {
		return nil, 0, fmt.Errorf("%d sole-copy pages and no live peer to move them to", len(sole))
	}

	byDest := make(map[string][]uint64, len(dests))
	for i, p := range sole {
		dst := dests[i%len(dests)]
		byDest[dst] = append(byDest[dst], p)
	}
	plan := make([]transfer, 0, len(byDest))
	for _, dst := range dests {
		if pages := byDest[dst]; len(pages) > 0 {
			plan = append(plan, transfer{dest: dst, pages: pages})
		}
	}

	d.commit(dirlog.Drain{Addr: addr})
	return plan, s.Epoch, nil
}

// commitTransfer records that dest now holds pages: the directory's
// table and the journal both gain the replicas before the source is
// expunged, so a lookup never sees a window with no holder. The drain must
// still be the drained epoch's: pages copied from an incarnation that has
// since re-registered may be older than what the new one serves.
func (d *Directory) commitTransfer(addr string, epoch uint64, dest string, pages []uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.st.Servers[dest]
	if s == nil || d.nanos(time.Now()) > s.Expires {
		return fmt.Errorf("destination %s lost its lease mid-drain", dest)
	}
	if d.st.Draining[dest] {
		// A concurrent drain of dest started after our plan was computed.
		// Committing sole-copy pages onto it would let its finishDrain
		// expunge them with no live holder; refuse so the caller aborts
		// and retries against a live destination.
		return fmt.Errorf("destination %s began draining mid-drain", dest)
	}
	if src := d.st.Servers[addr]; src == nil || src.Epoch != epoch || !d.st.Draining[addr] {
		// Expunged with its registration, aborted, or re-registered as a new
		// incarnation, whose own drain may have set the mark again.
		return fmt.Errorf("drain of %s epoch %d superseded mid-transfer", addr, epoch)
	}
	d.commit(dirlog.Register{Addr: dest, Epoch: s.Epoch, Seq: s.Seq, Expires: s.Expires, Pages: pages})
	d.met.drainMoved.Add(int64(len(pages)))
	return nil
}

// finishDrain fences the drained epoch and drops the lease: the fence is
// journaled before the expunge applies, so even a crash between the two
// recovers with the old incarnation locked out.
func (d *Directory) finishDrain(addr string, epoch uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch s := d.st.Servers[addr]; {
	case s == nil:
		// The lease expired and was expunged mid-drain (the server died
		// during the transfers); nothing left to drop.
		return fmt.Errorf("registration of epoch %d gone mid-drain", epoch)
	case s.Epoch != epoch:
		// The server re-registered as a new incarnation mid-drain; its new
		// lease, and any drain of it, are not ours to end.
		return fmt.Errorf("server re-registered with epoch %d mid-drain", s.Epoch)
	case !d.st.Draining[addr]:
		// An abort cleared the mark, so peers may have placed pages here
		// since; dropping the lease now could strand them.
		return fmt.Errorf("drain of %s aborted mid-drain", addr)
	}
	fenced := max(epoch+1, d.st.Epochs[addr])
	d.commit(dirlog.Fence{Addr: addr, Epoch: fenced}, dirlog.Expunge{Addrs: []string{addr}})
	d.maybeSnapshotLocked()
	d.met.drains.Inc()
	return nil
}

// abortDrain rolls back the draining mark after a failed transfer, if the
// mark is still the drained epoch's: a new incarnation that registered
// mid-drain dropped that mark, and the mark it may carry now belongs to a
// drain of its own, which a stale abort must not end.
func (d *Directory) abortDrain(addr string, epoch uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s := d.st.Servers[addr]; s != nil && s.Epoch == epoch && d.st.Draining[addr] {
		d.commit(dirlog.DrainAbort{Addr: addr})
	}
}

// transferPages copies pages from the draining server src to dest: a
// full-page fetch from src, a put to dest, and one ordered read-back so
// the puts are known applied before the source's lease is dropped. All
// I/O is deadline-bounded.
func transferPages(src, dest string, pages []uint64) error {
	sc, err := proto.Dial(nil, src, drainDialTimeout)
	if err != nil {
		return fmt.Errorf("dial source: %w", err)
	}
	defer func() { _ = sc.Close() }()
	dc, err := proto.Dial(nil, dest, drainDialTimeout)
	if err != nil {
		return fmt.Errorf("dial destination: %w", err)
	}
	defer func() { _ = dc.Close() }()

	buf := make([]byte, units.PageSize)
	for i, p := range pages {
		// buf still holds the previous page: only a reply that covers every
		// block of this one may be put to the destination under its ID.
		got, err := getPage(sc, proto.GetPageV2{
			ReqID: uint64(i) + 1, Page: p, SubpageSize: units.PageSize, Policy: proto.PolicyFullPage,
		}, buf)
		if err == nil && !got.Full() {
			err = fmt.Errorf("reply ended %d blocks short of a page", units.ValidBitsPerPage-got.Count())
		}
		if err != nil {
			return fmt.Errorf("fetch page %d from %s: %w", p, src, err)
		}
		if err := dc.SetDeadline(time.Now().Add(drainOpTimeout)); err != nil {
			return err
		}
		if err := dc.SendPutPage(proto.PutPage{Page: p, Data: buf}); err != nil {
			return fmt.Errorf("put page %d to %s: %w", p, dest, err)
		}
	}
	// Puts carry no ack; a one-block lazy read-back of the last page flushes
	// the destination's receive pipeline (frames on one connection apply in
	// order), proving every put above is stored before we fence the source.
	if _, err := getPage(dc, proto.GetPageV2{
		ReqID: 1, Page: pages[len(pages)-1], SubpageSize: units.MinSubpage,
		Want: uint32(memmodel.BlockMask(0)), Policy: proto.PolicyLazy,
	}, nil); err != nil {
		return fmt.Errorf("confirm on %s: %w", dest, err)
	}
	return nil
}

// getPage issues one get on a drain connection and consumes its reply
// through FlagLast under drainOpTimeout, copying the runs into buf (PageSize bytes) when non-nil.
// It returns the blocks the reply covered; what coverage is enough is the
// caller's call. A batch echoing another request ID or page fails the
// exchange rather than landing in buf.
func getPage(c *proto.Conn, req proto.GetPageV2, buf []byte) (memmodel.Bitmap, error) {
	if err := c.SetDeadline(time.Now().Add(drainOpTimeout)); err != nil {
		return 0, err
	}
	if err := c.SendGetPageV2(req); err != nil {
		return 0, err
	}
	var got memmodel.Bitmap
	for {
		f, err := c.Next()
		if err != nil {
			return got, err
		}
		switch f.Type {
		case proto.TSubpageBatch:
			b, err := proto.DecodeSubpageBatch(f.Payload)
			if err != nil {
				return got, err
			}
			if b.ReqID != req.ReqID || b.Page != req.Page {
				return got, fmt.Errorf("batch for request %d (page %d) in the reply to request %d (page %d)",
					b.ReqID, b.Page, req.ReqID, req.Page)
			}
			for i := 0; i < b.Runs(); i++ {
				off, data := b.Run(i) // in-page and block-aligned: DecodeSubpageBatch checked
				if buf != nil {
					copy(buf[off:], data)
				}
				got = got.Set(neededMask(off, len(data)))
			}
			if b.Flags&proto.FlagLast != 0 {
				return got, nil
			}
		case proto.TError:
			return got, fmt.Errorf("%s", proto.DecodeError(f.Payload).Text)
		case proto.TPutPage, proto.TAck, proto.TLookup, proto.TLookupReply,
			proto.TRegister, proto.THeartbeat, proto.TGetShardMap,
			proto.TShardMap, proto.TWrongShard, proto.TGetPageV2,
			proto.TCancel, proto.TDrain, proto.TDrainReply:
			return got, fmt.Errorf("unexpected %v in page reply", f.Type)
		}
	}
}

// DrainVia is the admin client for TDrain: it asks the directory at
// dirAddr to drain the server at serverAddr and reports how many pages
// were moved. The deadline bounds the whole drain; zero selects a
// minute, enough for thousands of page transfers on a LAN.
func DrainVia(dirAddr, serverAddr string, timeout time.Duration) (int, error) {
	if timeout <= 0 {
		timeout = time.Minute
	}
	f, err := proto.Ask(dirAddr, timeout, func(w *proto.Writer) error {
		return w.SendDrain(proto.Drain{Addr: serverAddr})
	}, proto.TDrainReply)
	if err != nil {
		return 0, fmt.Errorf("remote: drain: %w", err)
	}
	rep, err := proto.DecodeDrainReply(f.Payload)
	return int(rep.Moved), err
}
