// Package proto defines the binary wire protocol of the remote-memory
// prototype: a small length-prefixed message format carrying page
// requests, subpage data, putpage traffic and directory operations over
// TCP. It is the stand-in for the paper's AN2 ATM transport.
//
// Frame layout (little endian):
//
//	byte 0     message type
//	bytes 1-4  payload length n
//	bytes 5..  payload (n bytes)
//
// Payload layouts are fixed per type and documented on each message
// struct. Data payloads carry at most one full page.
package proto

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"github.com/gms-sim/gmsubpage/internal/units"
	"github.com/gms-sim/gmsubpage/internal/wire"
)

// Type identifies a message.
type Type uint8

// Message types. Tag bytes 1 and 2 belonged to the retired v1 fault wire
// (a per-fragment GetPage/PageData pair) and stay reserved: the surviving
// tags keep their values and Reader.Next rejects 1 and 2 as unknown. Were
// the tags renumbered, an old peer's GetPage would decode as a TPutPage and
// overwrite a stored page with its request header.
const (
	// TPutPage stores a page, or merges some of its blocks, on the server.
	TPutPage Type = iota + 3
	// TAck acknowledges a TPutPage or TRegister.
	TAck
	// TLookup asks the directory which server stores a page, or (the group
	// form) where every page of the page's placement group lives.
	TLookup
	// TLookupReply answers a TLookup.
	TLookupReply
	// TRegister announces to the directory that a server stores pages.
	TRegister
	// TError reports a failure in place of the normal reply.
	TError
	// THeartbeat renews a page server's directory lease.
	THeartbeat
	// TGetShardMap asks a directory for the current shard map.
	TGetShardMap
	// TShardMap answers a TGetShardMap. An unsharded directory answers
	// with an empty map (version 0, no shards): "I am the whole
	// directory, keep using the address you dialed".
	TShardMap
	// TWrongShard answers a TLookup or TRegister sent to a shard that
	// does not own the page: the payload carries the shard's current map
	// so the sender can re-route in one round trip.
	TWrongShard
	// TGetPageV2 is the page request: it carries a request ID so a
	// connection can keep many gets in flight, and a subpage want-bitmap
	// so a partially valid page fetches only its missing blocks. The
	// server answers with TSubpageBatch frames echoing the ID.
	TGetPageV2
	// TSubpageBatch carries many subpage ranges of one page in a single
	// frame: one header, a run table, then the concatenated data. It is
	// the reply to TGetPageV2.
	TSubpageBatch
	// TCancel withdraws an in-flight TGetPageV2 by request ID: the server
	// stops streaming the reply at the next batch boundary. Best effort —
	// batches already on the wire still arrive and are discarded by ID.
	TCancel
	// TDrain is the admin request to gracefully decommission a page
	// server: the directory transfers the server's sole-copy pages to
	// its peers, fences the server's epoch, and drops the lease — so
	// planned maintenance never looks like a failure to clients.
	TDrain
	// TDrainReply answers a TDrain with the number of pages the
	// directory transferred off the drained server.
	TDrainReply
	// TPlacements answers a group TLookup with the placements of the
	// asked page's placement group.
	TPlacements
)

// String names the type for diagnostics.
func (t Type) String() string {
	if t >= TPutPage && t <= TPlacements {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

var typeNames = [...]string{
	TPutPage: "PutPage", TAck: "Ack", TLookup: "Lookup", TLookupReply: "LookupReply",
	TRegister: "Register", TError: "Error", THeartbeat: "Heartbeat", TGetShardMap: "GetShardMap",
	TShardMap: "ShardMap", TWrongShard: "WrongShard", TGetPageV2: "GetPageV2",
	TSubpageBatch: "SubpageBatch", TCancel: "Cancel", TDrain: "Drain", TDrainReply: "DrainReply",
	TPlacements: "Placements",
}

// MaxPayload bounds a frame's payload: a full page plus the largest
// header — for TSubpageBatch that is the batch header and a run table
// with one entry per valid bit.
const MaxPayload = units.PageSize + 512

const headerSize = 5

// Fetch policies a GetPageV2 may request: the wire-format definition of the
// policy byte. Each value indexes core's wire-policy table, which ties the
// byte to the policy that plans the reply and to its name.
const (
	PolicyFullPage = uint8(iota)
	PolicyLazy
	PolicyEager
	PolicyPipelined
)

// SubpageBatch flags.
const (
	// FlagFirst marks the batch covering the faulted offset; the client
	// unblocks on it.
	FlagFirst = 1 << iota
	// FlagLast marks the final batch of a reply.
	FlagLast
)

// PutPage writes page data back to a server. Payload layout:
//
//	bytes 0-7    page
//	bytes 8-11   blocks: a bitmap of 256 B blocks, bit i for [256i, 256i+256)
//	bytes 12..   data
//
// Blocks == 0 makes Data a page image from offset 0, at most a page long;
// the server stores it, zero-padding a short one. Any other Blocks makes
// Data exactly those blocks, in ascending order (256 B per bit set), and
// the server merges them into its copy of the page, leaving the rest as it
// was: a write-back costs what was written, not the page.
type PutPage struct {
	Page   uint64
	Blocks uint32
	Data   []byte
}

// check reports a put whose data is not what its blocks promise.
func (m PutPage) check() error {
	if m.Blocks == 0 && len(m.Data) <= units.PageSize ||
		m.Blocks != 0 && len(m.Data) == bits.OnesCount32(m.Blocks)*units.MinSubpage {
		return nil
	}
	return fmt.Errorf("proto: put of blocks %#x carries %d data bytes", m.Blocks, len(m.Data))
}

// PlacementGroup is the number of pages a group lookup answers for: the
// aligned run of PlacementGroup pages holding the page asked about. A
// fault's neighbours are likely to fault soon, so their placements ride
// back in the same round trip.
const PlacementGroup = 64

// GroupBase returns the first page of page's placement group.
func GroupBase(page uint64) uint64 { return page &^ (PlacementGroup - 1) }

// Lookup asks where a page lives. Payload: page u64, then, for the group
// form, one flag byte 1 — 8 or 9 bytes exactly. The 8-byte form is
// answered by a TLookupReply, the group form by a TPlacements.
type Lookup struct {
	Page  uint64
	Group bool
}

// LookupReply answers: Addrs lists every server holding a replica of the
// page, primary first; it is empty when the page is unknown. Clients fail
// over down the list when the primary is unreachable.
type LookupReply struct {
	Page  uint64
	Addrs []string
}

// Placement is one page's replica list, primary first.
type Placement struct {
	Page  uint64
	Addrs []string
}

// Placements answers a group Lookup: one entry for every page of Page's
// placement group that the answering directory owns and a live server
// holds, Page's own entry first when it has one. Payload layout:
//
//	bytes 0-7  page asked about
//	byte  8    n: address-table entries, then n × (length u8, address)
//	byte       m: entries, then m × (page − GroupBase(page) u8,
//	           k u8 ≥ 1, k address-table indexes u8, primary first)
//
// Each address crosses the wire once however many pages it holds.
type Placements struct {
	Page    uint64
	Entries []Placement
}

// Register announces pages stored at Addr. Epoch is the server's
// registration epoch: a number that grows across the server's incarnations
// (a restart registers with a higher epoch) so the directory can fence out
// the stale entries of a crashed predecessor instead of accumulating
// duplicates. Registrations with an epoch below the directory's current
// epoch for Addr are rejected as stale.
type Register struct {
	Addr  string
	Epoch uint64
	Pages []uint64
}

// Heartbeat renews the directory lease for the server at Addr. The epoch
// must match the server's registered epoch; a heartbeat for an unknown or
// superseded registration draws a TError so the server knows to
// re-register.
type Heartbeat struct {
	Addr  string
	Epoch uint64
}

// ShardMap is the versioned layout of a sharded directory: Shards lists
// every directory shard address, and pages map onto shards by consistent
// hashing (see Ring). Both sides of the wire must agree on the hash, so
// the mapping is defined here alongside the message. The zero map
// (version 0, no shards) means "unsharded": a single directory serves
// every page.
//
// Versions order maps: a client or server holding version v replaces it
// on seeing any map with a higher version, so a stale map converges to
// the deployment's current one in a single TWrongShard round trip.
type ShardMap struct {
	Version uint64
	Shards  []string
}

// Sharded reports whether the map describes a sharded deployment.
func (m ShardMap) Sharded() bool { return len(m.Shards) > 0 }

// WrongShard reports that a lookup or registration reached a shard that
// does not own the page. Map is the answering shard's current shard map,
// so one forwarding round trip both corrects the route and refreshes the
// sender's cache.
type WrongShard struct {
	Page uint64
	Map  ShardMap
}

// Drain asks a directory to decommission the server at Addr: move its
// sole-copy pages to peers with epoch-fenced ownership transfer, then
// drop the lease. Addr must match the server's registered address.
type Drain struct{ Addr string }

// DrainReply reports a completed drain: Moved counts the pages the
// directory copied off the drained server before fencing it.
type DrainReply struct{ Moved uint32 }

// ErrorMsg reports a remote failure.
type ErrorMsg struct{ Text string }

// Frame is a decoded message.
type Frame struct {
	Type    Type
	Payload []byte
}

// writerRetainCap bounds the frame buffer a Writer keeps between sends;
// writerShrinkAfter is how many consecutive sends must fit under the cap
// before an oversized buffer is released. Control-plane writers see an
// occasional large frame (a ShardMap for a wide deployment, a written-back
// page) between long runs of tiny acks and lookups; without the cap one
// such frame would pin page-sized capacity on every idle connection
// forever. The hysteresis keeps steady large-frame senders (a drain's
// put stream) from reallocating on every small frame in between.
const (
	writerRetainCap   = 2 * units.KiB
	writerShrinkAfter = 8
)

// A Writer serializes messages onto a stream. Not safe for concurrent use.
type Writer struct {
	w     io.Writer
	buf   []byte
	small int      // consecutive sends that fit in writerRetainCap
	tab   []string // SendPlacements' address table, reused
}

// NewWriter returns a Writer on w. The frame buffer grows on demand and
// shrinks back after a run of small frames, so a writer costs what its
// recent traffic needs, not what its largest frame ever needed.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

func (w *Writer) send(t Type, payload []byte) error {
	w.begin(t)
	w.buf = append(w.buf, payload...)
	return w.finish()
}

// begin starts a frame of type t in the frame buffer; the caller appends
// the payload and calls finish.
func (w *Writer) begin(t Type) { w.buf = append(w.buf[:0], byte(t), 0, 0, 0, 0) }

// finish fills in the length of the frame begin started and writes it.
func (w *Writer) finish() error {
	var err error
	if n := len(w.buf) - headerSize; n > MaxPayload {
		err = fmt.Errorf("proto: payload %d exceeds max %d", n, MaxPayload)
	} else {
		binary.LittleEndian.PutUint32(w.buf[1:headerSize], uint32(n))
		_, err = w.w.Write(w.buf)
	}
	w.afterSend()
	return err
}

// afterSend applies the retention-cap hysteresis to the frame buffer just
// written: after writerShrinkAfter consecutive small frames, an oversized
// buffer left behind by a one-off large frame is released.
func (w *Writer) afterSend() {
	if len(w.buf) <= writerRetainCap {
		if w.small++; w.small >= writerShrinkAfter && cap(w.buf) > writerRetainCap {
			w.buf = nil // release the one-off large frame's capacity
			w.small = 0
		}
	} else {
		w.small = 0
	}
}

// SendPutPage writes a TPutPage frame. Data must be as long as Blocks
// says (see PutPage).
func (w *Writer) SendPutPage(m PutPage) error {
	if err := m.check(); err != nil {
		return err
	}
	w.beginPut(m.Page, m.Blocks)
	w.buf = append(w.buf, m.Data...)
	return w.finish()
}

// SendPutBlocks writes a block put of page: the 256 B blocks of image that
// blocks names, gathered in order straight into the frame buffer, so a
// write-back copies each dirty byte once and allocates nothing. blocks
// must be non-zero and image a whole page.
func (w *Writer) SendPutBlocks(page uint64, blocks uint32, image []byte) error {
	if blocks == 0 || len(image) != units.PageSize {
		return fmt.Errorf("proto: block put of blocks %#x from a %d-byte image", blocks, len(image))
	}
	w.beginPut(page, blocks)
	for b := blocks; b != 0; b &= b - 1 {
		off := bits.TrailingZeros32(b) * units.MinSubpage
		w.buf = append(w.buf, image[off:off+units.MinSubpage]...)
	}
	return w.finish()
}

// beginPut starts a TPutPage frame; the caller appends the data.
func (w *Writer) beginPut(page uint64, blocks uint32) {
	w.begin(TPutPage)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, page)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, blocks)
}

// SendAck writes a TAck frame.
func (w *Writer) SendAck() error { return w.send(TAck, nil) }

// SendLookup writes a TLookup frame.
func (w *Writer) SendLookup(m Lookup) error {
	w.begin(TLookup)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, m.Page)
	if m.Group {
		w.buf = append(w.buf, 1)
	}
	return w.finish()
}

// SendLookupReply writes a TLookupReply frame.
func (w *Writer) SendLookupReply(m LookupReply) error {
	return w.sendList(TLookupReply, m.Addrs, m.Page)
}

// appendAddr appends an address behind its length byte. On error p comes
// back unchanged.
func appendAddr(p []byte, a string) ([]byte, error) {
	if len(a) > 255 {
		return p, fmt.Errorf("proto: address too long: %q", a)
	}
	return append(append(p, byte(len(a))), a...), nil
}

// appendAddrs appends an address list: a count byte, then each address
// behind a length byte. On error p comes back partly extended.
func appendAddrs(p []byte, addrs []string) ([]byte, error) {
	if len(addrs) > 255 {
		return p, fmt.Errorf("proto: too many addresses: %d", len(addrs))
	}
	p = append(p, byte(len(addrs)))
	var err error
	for _, a := range addrs {
		if p, err = appendAddr(p, a); err != nil {
			return p, err
		}
	}
	return p, nil
}

// decodeAddrs reads an address list (see appendAddrs): nil when it is
// empty.
func decodeAddrs(c wire.Cursor) []string {
	n := c.Count(int(c.U8()), 1)
	if n == 0 {
		return nil
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = c.Str()
	}
	return addrs
}

// SendPlacements writes a TPlacements frame, built in the frame buffer.
// Entries that would take the frame past MaxPayload, or the address table
// past 255 addresses, are dropped from the tail; the first entry is never
// dropped: if it alone does not fit, the send fails.
func (w *Writer) SendPlacements(m Placements) error {
	base := GroupBase(m.Page)
	tab, size, keep := w.tab[:0], 10, 0
	for i, e := range m.Entries {
		if e.Page-base >= PlacementGroup || len(e.Addrs) == 0 || len(e.Addrs) > 255 {
			return fmt.Errorf("proto: placement of page %d with %d replicas in the group of %d", e.Page, len(e.Addrs), m.Page)
		}
		n, add := len(tab), 2+len(e.Addrs)
		for _, a := range e.Addrs {
			if !slices.Contains(tab, a) {
				tab = append(tab, a)
				add += 1 + len(a)
			}
		}
		if size+add > MaxPayload || len(tab) > 255 || i == 255 {
			if i == 0 {
				return fmt.Errorf("proto: placement of page %d does not fit a frame", e.Page)
			}
			tab = tab[:n]
			break
		}
		size, keep = size+add, i+1
	}
	w.begin(TPlacements)
	var err error
	if w.buf, err = appendAddrs(binary.LittleEndian.AppendUint64(w.buf, m.Page), tab); err != nil {
		return err
	}
	w.buf = append(w.buf, byte(keep))
	for _, e := range m.Entries[:keep] {
		w.buf = append(w.buf, byte(e.Page-base), byte(len(e.Addrs)))
		for _, a := range e.Addrs {
			w.buf = append(w.buf, byte(slices.Index(tab, a)))
		}
	}
	w.tab = tab[:0]
	return w.finish()
}

// sendAddr writes a frame of type t whose payload is addr behind its
// length byte, then words, each a little-endian uint64.
func (w *Writer) sendAddr(t Type, addr string, words ...uint64) error {
	w.begin(t)
	var err error
	if w.buf, err = appendAddr(w.buf, addr); err != nil {
		return err
	}
	for _, v := range words {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	}
	return w.finish()
}

// sendList writes a frame of type t whose payload is words, each a
// little-endian uint64, then the address list addrs.
func (w *Writer) sendList(t Type, addrs []string, words ...uint64) error {
	w.begin(t)
	for _, v := range words {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	}
	var err error
	if w.buf, err = appendAddrs(w.buf, addrs); err != nil {
		return err
	}
	return w.finish()
}

// SendRegister writes a TRegister frame: the address, the epoch, then the
// pages.
func (w *Writer) SendRegister(m Register) error {
	return w.sendAddr(TRegister, m.Addr, append([]uint64{m.Epoch}, m.Pages...)...)
}

// SendHeartbeat writes a THeartbeat frame.
func (w *Writer) SendHeartbeat(m Heartbeat) error { return w.sendAddr(THeartbeat, m.Addr, m.Epoch) }

// SendGetShardMap writes a TGetShardMap frame.
func (w *Writer) SendGetShardMap() error { return w.send(TGetShardMap, nil) }

// SendShardMap writes a TShardMap frame: the version, then the shard
// address list.
func (w *Writer) SendShardMap(m ShardMap) error { return w.sendList(TShardMap, m.Shards, m.Version) }

// SendWrongShard writes a TWrongShard frame: the page, then the shard map.
func (w *Writer) SendWrongShard(m WrongShard) error {
	return w.sendList(TWrongShard, m.Map.Shards, m.Page, m.Map.Version)
}

// SendDrain writes a TDrain frame.
func (w *Writer) SendDrain(m Drain) error { return w.sendAddr(TDrain, m.Addr) }

// SendDrainReply writes a TDrainReply frame.
func (w *Writer) SendDrainReply(m DrainReply) error {
	return w.send(TDrainReply, binary.LittleEndian.AppendUint32(make([]byte, 0, 4), m.Moved))
}

// SendError writes a TError frame.
func (w *Writer) SendError(text string) error {
	if len(text) > MaxPayload {
		text = text[:MaxPayload]
	}
	return w.send(TError, []byte(text))
}

// A Reader decodes frames from a stream. Not safe for concurrent use. It
// reads ahead — one Read takes in as many frames as the stream has ready —
// so a stream must only ever be read through one Reader: a second Reader,
// or a raw Read, would miss the bytes the first already buffered.
type Reader struct {
	r      io.Reader
	buf    []byte
	rd, wr int // buf[rd:wr] is read ahead; the frame being decoded starts at rd
}

// NewReader returns a Reader on r. The buffer holds two maximal frames, so
// a frame that starts anywhere in the first half fits without moving.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, buf: make([]byte, 2*(headerSize+MaxPayload))}
}

// fill reads until n bytes of the current frame are buffered, with
// io.ReadFull's error rule: a read error is dropped once the bytes it came
// with complete the request (a persistent one surfaces on the next read).
func (r *Reader) fill(n int) error {
	if r.rd == r.wr {
		r.rd, r.wr = 0, 0
	} else if r.rd+n > len(r.buf) {
		// The frame would run off the end: move what is buffered to the front.
		r.wr = copy(r.buf, r.buf[r.rd:r.wr])
		r.rd = 0
	}
	for r.wr-r.rd < n {
		m, err := r.r.Read(r.buf[r.wr:])
		r.wr += m
		if err != nil && r.wr-r.rd < n {
			return err
		}
	}
	return nil
}

// Next returns the next frame, reading from the stream only if it is not
// buffered already. The returned payload is only valid until the next call.
// Only a stream that ends on a frame boundary yields a bare io.EOF.
func (r *Reader) Next() (Frame, error) {
	if err := r.fill(headerSize); err != nil {
		if err == io.EOF && r.wr > r.rd {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	head := r.buf[r.rd : r.rd+headerSize]
	t := Type(head[0])
	if t < TPutPage || t > TPlacements {
		// Reject unknown tag bytes at the framing layer (the reserved v1
		// bytes 1 and 2 included, see the tag declarations): every Frame
		// handed to callers carries one of the declared T* constants, so
		// tag switches downstream can be exhaustive with no default (and
		// gmslint's tagswitch check holds them to that). A stream that
		// produces an unknown byte is desynchronized or hostile either
		// way; the caller treats the error as a dead connection.
		return Frame{}, fmt.Errorf("proto: unknown message type %d", head[0])
	}
	n := binary.LittleEndian.Uint32(head[1:5])
	if n > MaxPayload {
		return Frame{}, fmt.Errorf("proto: oversized payload %d for %v", n, t)
	}
	size := headerSize + int(n)
	if err := r.fill(size); err != nil {
		if err == io.EOF && r.wr-r.rd > headerSize {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, fmt.Errorf("proto: truncated %v frame: %w", t, err)
	}
	payload := r.buf[r.rd+headerSize : r.rd+size]
	r.rd += size
	return Frame{Type: t, Payload: payload}, nil
}

// Decoding. Every decoder reads its payload through one wire.Cursor and
// returns its value together with end's verdict, in one statement: Go
// evaluates the reads, left to right, before end. A payload that runs
// short is "proto: short <Type> payload", one with a byte left over
// "proto: trailing bytes in <Type>". A decoded value is only meaningful
// when its error is nil.

// end returns the verdict on c's payload, a t: nil when the reads consumed
// it exactly, else one of t's two payload errors.
func end(c wire.Cursor, t Type) error { return c.End(payloadErrs[t].short, payloadErrs[t].trailing) }

// payloadErrs holds each type's two payload errors, made once so that a
// decoder's verdict calls and allocates nothing.
var payloadErrs = func() (e [TPlacements + 1]struct{ short, trailing error }) {
	for t := TPutPage; t <= TPlacements; t++ {
		e[t].short, e[t].trailing = fmt.Errorf("proto: short %v payload", t), fmt.Errorf("proto: trailing bytes in %v", t)
	}
	return e
}()

// DecodePutPage parses a TPutPage payload. The Data slice aliases p. A
// block put whose data is not exactly its blocks, or a page image longer
// than a page, is an error.
func DecodePutPage(p []byte) (PutPage, error) {
	c := wire.New(p)
	m := PutPage{Page: c.U64(), Blocks: c.U32(), Data: c.Rest()}
	if err := end(c, TPutPage); err != nil {
		return m, err
	}
	return m, m.check()
}

// DecodeLookup parses a TLookup payload: 8 bytes, or 9 whose last is the
// group flag 1.
func DecodeLookup(p []byte) (Lookup, error) {
	c := wire.New(p)
	m := Lookup{Page: c.U64(), Group: c.Len() == 1}
	if m.Group && c.U8() != 1 {
		return Lookup{}, fmt.Errorf("proto: Lookup group flag is not 1")
	}
	return m, end(c, TLookup)
}

// DecodeLookupReply parses a TLookupReply payload.
func DecodeLookupReply(p []byte) (LookupReply, error) {
	c := wire.New(p)
	return LookupReply{Page: c.U64(), Addrs: decodeAddrs(c)}, end(c, TLookupReply)
}

// DecodePlacements parses a TPlacements payload. It allocates each
// address once and each distinct replica list once, not once per page:
// entries with equal lists share one slice, which callers must not modify.
func DecodePlacements(p []byte) (Placements, error) {
	c := wire.New(p)
	m := Placements{Page: c.U64()}
	tab := decodeAddrs(c)
	n := c.Count(int(c.U8()), 3) // an entry is an offset, a length and at least one index
	m.Entries = make([]Placement, 0, n)
	for range n {
		off, idx := c.U8(), c.Bytes(int(c.U8()))
		if c.Short() {
			break
		}
		if off >= PlacementGroup || len(idx) == 0 || int(slices.Max(idx)) >= len(tab) {
			return Placements{}, fmt.Errorf("proto: Placements entry at offset %d names %v of %d addresses", off, idx, len(tab))
		}
		m.Entries = append(m.Entries, Placement{Page: GroupBase(m.Page) + uint64(off), Addrs: replicaList(m.Entries, tab, idx)})
	}
	return m, end(c, TPlacements)
}

// replicaList returns the replica list tab[idx...]: an earlier entry's
// slice when one is equal, else a new one.
func replicaList(prev []Placement, tab []string, idx []byte) []string {
	for i := len(prev) - 1; i >= 0; i-- {
		if a := prev[i].Addrs; len(a) == len(idx) && slices.EqualFunc(a, idx, func(s string, x byte) bool { return s == tab[x] }) {
			return a
		}
	}
	addrs := make([]string, len(idx))
	for i, x := range idx {
		addrs[i] = tab[x]
	}
	return addrs
}

// DecodeRegister parses a TRegister payload.
func DecodeRegister(p []byte) (Register, error) {
	c := wire.New(p)
	m := Register{Addr: c.Str(), Epoch: c.U64()}
	if c.Len()%8 != 0 {
		return Register{}, fmt.Errorf("proto: ragged page list in Register")
	}
	for range c.Len() / 8 {
		m.Pages = append(m.Pages, c.U64())
	}
	return m, end(c, TRegister)
}

// DecodeHeartbeat parses a THeartbeat payload.
func DecodeHeartbeat(p []byte) (Heartbeat, error) {
	c := wire.New(p)
	return Heartbeat{Addr: c.Str(), Epoch: c.U64()}, end(c, THeartbeat)
}

// DecodeShardMap parses a TShardMap payload.
func DecodeShardMap(p []byte) (ShardMap, error) {
	c := wire.New(p)
	return ShardMap{Version: c.U64(), Shards: decodeAddrs(c)}, end(c, TShardMap)
}

// DecodeWrongShard parses a TWrongShard payload.
func DecodeWrongShard(p []byte) (WrongShard, error) {
	c := wire.New(p)
	return WrongShard{Page: c.U64(), Map: ShardMap{Version: c.U64(), Shards: decodeAddrs(c)}}, end(c, TWrongShard)
}

// DecodeDrain parses a TDrain payload.
func DecodeDrain(p []byte) (Drain, error) {
	c := wire.New(p)
	return Drain{Addr: c.Str()}, end(c, TDrain)
}

// DecodeDrainReply parses a TDrainReply payload.
func DecodeDrainReply(p []byte) (DrainReply, error) {
	c := wire.New(p)
	return DrainReply{Moved: c.U32()}, end(c, TDrainReply)
}

// DecodeError parses a TError payload.
func DecodeError(p []byte) ErrorMsg { return ErrorMsg{Text: string(p)} }
