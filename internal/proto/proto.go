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

	"github.com/gms-sim/gmsubpage/internal/units"
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
	// TLookup asks the directory which server stores a page.
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
)

// String names the type for diagnostics.
func (t Type) String() string {
	switch t {
	case TPutPage:
		return "PutPage"
	case TAck:
		return "Ack"
	case TLookup:
		return "Lookup"
	case TLookupReply:
		return "LookupReply"
	case TRegister:
		return "Register"
	case TError:
		return "Error"
	case THeartbeat:
		return "Heartbeat"
	case TGetShardMap:
		return "GetShardMap"
	case TShardMap:
		return "ShardMap"
	case TWrongShard:
		return "WrongShard"
	case TGetPageV2:
		return "GetPageV2"
	case TSubpageBatch:
		return "SubpageBatch"
	case TCancel:
		return "Cancel"
	case TDrain:
		return "Drain"
	case TDrainReply:
		return "DrainReply"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
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

// putFixedLen is the PutPage payload ahead of the data: page and blocks.
const putFixedLen = 12

// check reports a put whose data is not what its blocks promise.
func (m PutPage) check() error {
	if m.Blocks == 0 && len(m.Data) <= units.PageSize ||
		m.Blocks != 0 && len(m.Data) == bits.OnesCount32(m.Blocks)*units.MinSubpage {
		return nil
	}
	return fmt.Errorf("proto: put of blocks %#x carries %d data bytes", m.Blocks, len(m.Data))
}

// Lookup asks where a page lives.
type Lookup struct{ Page uint64 }

// LookupReply answers: Addrs lists every server holding a replica of the
// page, primary first; it is empty when the page is unknown. Clients fail
// over down the list when the primary is unreachable.
type LookupReply struct {
	Page  uint64
	Addrs []string
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
	small int // consecutive sends that fit in writerRetainCap
}

// NewWriter returns a Writer on w. The frame buffer grows on demand and
// shrinks back after a run of small frames, so a writer costs what its
// recent traffic needs, not what its largest frame ever needed.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

func (w *Writer) send(t Type, payload []byte) error {
	if err := w.begin(t, len(payload)); err != nil {
		return err
	}
	w.buf = append(w.buf, payload...)
	return w.finish()
}

// begin starts a frame of type t with an n-byte payload in the frame
// buffer; the caller appends exactly n bytes and calls finish.
func (w *Writer) begin(t Type, n int) error {
	if n > MaxPayload {
		return fmt.Errorf("proto: payload %d exceeds max %d", n, MaxPayload)
	}
	w.buf = append(w.buf[:0], byte(t))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(n))
	return nil
}

// finish writes the frame begin started.
func (w *Writer) finish() error {
	_, err := w.w.Write(w.buf)
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
	if err := w.beginPut(m.Page, m.Blocks, len(m.Data)); err != nil {
		return err
	}
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
	if err := w.beginPut(page, blocks, bits.OnesCount32(blocks)*units.MinSubpage); err != nil {
		return err
	}
	for b := blocks; b != 0; b &= b - 1 {
		off := bits.TrailingZeros32(b) * units.MinSubpage
		w.buf = append(w.buf, image[off:off+units.MinSubpage]...)
	}
	return w.finish()
}

// beginPut starts a TPutPage frame carrying n data bytes.
func (w *Writer) beginPut(page uint64, blocks uint32, n int) error {
	if err := w.begin(TPutPage, putFixedLen+n); err != nil {
		return err
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, page)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, blocks)
	return nil
}

// SendAck writes a TAck frame.
func (w *Writer) SendAck() error { return w.send(TAck, nil) }

// SendLookup writes a TLookup frame.
func (w *Writer) SendLookup(m Lookup) error {
	p := binary.LittleEndian.AppendUint64(nil, m.Page)
	return w.send(TLookup, p)
}

// SendLookupReply writes a TLookupReply frame.
func (w *Writer) SendLookupReply(m LookupReply) error {
	if len(m.Addrs) > 255 {
		return fmt.Errorf("proto: too many replicas: %d", len(m.Addrs))
	}
	n := 9
	for _, a := range m.Addrs {
		if len(a) > 255 {
			return fmt.Errorf("proto: address too long: %q", a)
		}
		n += 1 + len(a)
	}
	p := make([]byte, 0, n)
	p = binary.LittleEndian.AppendUint64(p, m.Page)
	p = append(p, byte(len(m.Addrs)))
	for _, a := range m.Addrs {
		p = append(p, byte(len(a)))
		p = append(p, a...)
	}
	return w.send(TLookupReply, p)
}

// SendRegister writes a TRegister frame.
func (w *Writer) SendRegister(m Register) error {
	if len(m.Addr) > 255 {
		return fmt.Errorf("proto: address too long: %q", m.Addr)
	}
	p := make([]byte, 0, 9+len(m.Addr)+8*len(m.Pages))
	p = append(p, byte(len(m.Addr)))
	p = append(p, m.Addr...)
	p = binary.LittleEndian.AppendUint64(p, m.Epoch)
	for _, pg := range m.Pages {
		p = binary.LittleEndian.AppendUint64(p, pg)
	}
	return w.send(TRegister, p)
}

// SendHeartbeat writes a THeartbeat frame.
func (w *Writer) SendHeartbeat(m Heartbeat) error {
	if len(m.Addr) > 255 {
		return fmt.Errorf("proto: address too long: %q", m.Addr)
	}
	p := make([]byte, 0, 9+len(m.Addr))
	p = append(p, byte(len(m.Addr)))
	p = append(p, m.Addr...)
	p = binary.LittleEndian.AppendUint64(p, m.Epoch)
	return w.send(THeartbeat, p)
}

// appendShardMap appends the shard-map encoding: version, shard count,
// then length-prefixed addresses.
func appendShardMap(p []byte, m ShardMap) ([]byte, error) {
	if len(m.Shards) > 255 {
		return nil, fmt.Errorf("proto: too many shards: %d", len(m.Shards))
	}
	p = binary.LittleEndian.AppendUint64(p, m.Version)
	p = append(p, byte(len(m.Shards)))
	for _, a := range m.Shards {
		if len(a) > 255 {
			return nil, fmt.Errorf("proto: address too long: %q", a)
		}
		p = append(p, byte(len(a)))
		p = append(p, a...)
	}
	return p, nil
}

// decodeShardMapBody parses a shard-map encoding, requiring it to consume
// the whole input.
func decodeShardMapBody(p []byte, t Type) (ShardMap, error) {
	if len(p) < 9 {
		return ShardMap{}, short(t)
	}
	m := ShardMap{Version: binary.LittleEndian.Uint64(p[0:8])}
	count := int(p[8])
	rest := p[9:]
	for i := 0; i < count; i++ {
		if len(rest) < 1 {
			return ShardMap{}, short(t)
		}
		alen := int(rest[0])
		if len(rest) < 1+alen {
			return ShardMap{}, short(t)
		}
		m.Shards = append(m.Shards, string(rest[1:1+alen]))
		rest = rest[1+alen:]
	}
	if len(rest) != 0 {
		return ShardMap{}, fmt.Errorf("proto: trailing bytes in %v", t)
	}
	return m, nil
}

// SendGetShardMap writes a TGetShardMap frame.
func (w *Writer) SendGetShardMap() error { return w.send(TGetShardMap, nil) }

// SendShardMap writes a TShardMap frame.
func (w *Writer) SendShardMap(m ShardMap) error {
	p, err := appendShardMap(make([]byte, 0, 9+16*len(m.Shards)), m)
	if err != nil {
		return err
	}
	return w.send(TShardMap, p)
}

// SendWrongShard writes a TWrongShard frame.
func (w *Writer) SendWrongShard(m WrongShard) error {
	p := binary.LittleEndian.AppendUint64(make([]byte, 0, 17+16*len(m.Map.Shards)), m.Page)
	p, err := appendShardMap(p, m.Map)
	if err != nil {
		return err
	}
	return w.send(TWrongShard, p)
}

// SendDrain writes a TDrain frame.
func (w *Writer) SendDrain(m Drain) error {
	if len(m.Addr) > 255 {
		return fmt.Errorf("proto: address too long: %q", m.Addr)
	}
	p := make([]byte, 0, 1+len(m.Addr))
	p = append(p, byte(len(m.Addr)))
	p = append(p, m.Addr...)
	return w.send(TDrain, p)
}

// SendDrainReply writes a TDrainReply frame.
func (w *Writer) SendDrainReply(m DrainReply) error {
	p := binary.LittleEndian.AppendUint32(make([]byte, 0, 4), m.Moved)
	return w.send(TDrainReply, p)
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
	if t < TPutPage || t > TDrainReply {
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

// Decoding helpers. Each validates the payload length.

func short(t Type) error { return fmt.Errorf("proto: short %v payload", t) }

// DecodePutPage parses a TPutPage payload. The Data slice aliases p. A
// block put whose data is not exactly its blocks, or a page image longer
// than a page, is an error.
func DecodePutPage(p []byte) (PutPage, error) {
	if len(p) < putFixedLen {
		return PutPage{}, short(TPutPage)
	}
	m := PutPage{
		Page:   binary.LittleEndian.Uint64(p[0:8]),
		Blocks: binary.LittleEndian.Uint32(p[8:12]),
		Data:   p[putFixedLen:],
	}
	if err := m.check(); err != nil {
		return PutPage{}, err
	}
	return m, nil
}

// DecodeLookup parses a TLookup payload.
func DecodeLookup(p []byte) (Lookup, error) {
	if len(p) < 8 {
		return Lookup{}, short(TLookup)
	}
	return Lookup{Page: binary.LittleEndian.Uint64(p[0:8])}, nil
}

// DecodeLookupReply parses a TLookupReply payload.
func DecodeLookupReply(p []byte) (LookupReply, error) {
	if len(p) < 9 {
		return LookupReply{}, short(TLookupReply)
	}
	m := LookupReply{Page: binary.LittleEndian.Uint64(p[0:8])}
	count := int(p[8])
	rest := p[9:]
	for i := 0; i < count; i++ {
		if len(rest) < 1 {
			return LookupReply{}, short(TLookupReply)
		}
		alen := int(rest[0])
		if len(rest) < 1+alen {
			return LookupReply{}, short(TLookupReply)
		}
		m.Addrs = append(m.Addrs, string(rest[1:1+alen]))
		rest = rest[1+alen:]
	}
	if len(rest) != 0 {
		return LookupReply{}, fmt.Errorf("proto: trailing bytes in LookupReply")
	}
	return m, nil
}

// DecodeRegister parses a TRegister payload.
func DecodeRegister(p []byte) (Register, error) {
	if len(p) < 1 {
		return Register{}, short(TRegister)
	}
	alen := int(p[0])
	if len(p) < 1+alen+8 {
		return Register{}, short(TRegister)
	}
	m := Register{
		Addr:  string(p[1 : 1+alen]),
		Epoch: binary.LittleEndian.Uint64(p[1+alen : 9+alen]),
	}
	rest := p[9+alen:]
	if len(rest)%8 != 0 {
		return Register{}, fmt.Errorf("proto: ragged page list in Register")
	}
	for i := 0; i < len(rest); i += 8 {
		m.Pages = append(m.Pages, binary.LittleEndian.Uint64(rest[i:i+8]))
	}
	return m, nil
}

// DecodeHeartbeat parses a THeartbeat payload.
func DecodeHeartbeat(p []byte) (Heartbeat, error) {
	if len(p) < 1 {
		return Heartbeat{}, short(THeartbeat)
	}
	alen := int(p[0])
	if len(p) != 1+alen+8 {
		return Heartbeat{}, short(THeartbeat)
	}
	return Heartbeat{
		Addr:  string(p[1 : 1+alen]),
		Epoch: binary.LittleEndian.Uint64(p[1+alen:]),
	}, nil
}

// DecodeShardMap parses a TShardMap payload.
func DecodeShardMap(p []byte) (ShardMap, error) {
	return decodeShardMapBody(p, TShardMap)
}

// DecodeWrongShard parses a TWrongShard payload.
func DecodeWrongShard(p []byte) (WrongShard, error) {
	if len(p) < 8 {
		return WrongShard{}, short(TWrongShard)
	}
	m, err := decodeShardMapBody(p[8:], TWrongShard)
	if err != nil {
		return WrongShard{}, err
	}
	return WrongShard{Page: binary.LittleEndian.Uint64(p[0:8]), Map: m}, nil
}

// DecodeDrain parses a TDrain payload.
func DecodeDrain(p []byte) (Drain, error) {
	if len(p) < 1 {
		return Drain{}, short(TDrain)
	}
	alen := int(p[0])
	if len(p) != 1+alen {
		return Drain{}, short(TDrain)
	}
	return Drain{Addr: string(p[1 : 1+alen])}, nil
}

// DecodeDrainReply parses a TDrainReply payload.
func DecodeDrainReply(p []byte) (DrainReply, error) {
	if len(p) != 4 {
		return DrainReply{}, short(TDrainReply)
	}
	return DrainReply{Moved: binary.LittleEndian.Uint32(p)}, nil
}

// DecodeError parses a TError payload.
func DecodeError(p []byte) ErrorMsg { return ErrorMsg{Text: string(p)} }
