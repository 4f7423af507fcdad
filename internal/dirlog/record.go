// Record encoding for the directory journal.
//
// A journal file — write-ahead log and snapshot alike — is a stream of
// CRC-framed records (little endian):
//
//	bytes 0-3  payload length n
//	bytes 4-7  CRC-32C (Castagnoli) of the payload
//	bytes 8..  payload (n bytes)
//
// The payload's first byte is the record type, followed by a fixed
// per-type body documented on each record struct. Strings are
// length-prefixed with one byte, matching the wire protocol's convention,
// and frames and bodies decode through the same cursor the wire protocol's
// decoders use (internal/wire).
//
// The framing distinguishes two failure shapes. A *torn tail* — the
// stream ends mid-frame, or the final frame's checksum does not match
// because the crash interrupted the write — is expected after any crash
// and is handled by truncating to the last whole record. A *corrupt
// frame* — a length field beyond MaxRecord, an undeclared record type, or
// a body that fails to parse under a valid checksum — cannot be produced
// by a torn write and reports a typed *CorruptError instead.
package dirlog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/gms-sim/gmsubpage/internal/wire"
)

// RecType identifies a journal record.
type RecType uint8

// Record types. The journal replays these in order to rebuild directory
// state; State.Apply defines the exact semantics of each.
const (
	// RecMeta opens every journal file: the file's generation and the
	// shard identity of the directory that wrote it, so recovery can
	// refuse a journal written by a different shard assignment.
	RecMeta RecType = iota + 1
	// RecRegister is one applied registration: the server's address,
	// epoch, seniority sequence, absolute lease expiry, and the owned
	// pages the registration added.
	RecRegister
	// RecRenewBatch carries a batch of lease renewals. Heartbeats are
	// far too frequent to journal one record each; the directory buffers
	// renewals and flushes them as one record per janitor sweep.
	RecRenewBatch
	// RecExpunge removes servers whose leases expired (or were drained).
	// The address's epoch memory survives, exactly as in live operation.
	RecExpunge
	// RecDrain marks a server as draining: an admin asked the directory
	// to move its pages away before dropping the lease.
	RecDrain
	// RecDrainAbort clears a draining mark after a failed transfer.
	RecDrainAbort
	// RecFence raises the remembered epoch for an address without a
	// registration — the drain path's fence, so the drained incarnation
	// stays rejected even though it never re-registered.
	RecFence
	// RecSnapEnd terminates a snapshot stream. A snapshot file whose
	// last record is not RecSnapEnd was torn mid-write and is ignored in
	// favor of the previous generation.
	RecSnapEnd
)

// String names the record type for diagnostics.
func (t RecType) String() string {
	switch t {
	case RecMeta:
		return "Meta"
	case RecRegister:
		return "Register"
	case RecRenewBatch:
		return "RenewBatch"
	case RecExpunge:
		return "Expunge"
	case RecDrain:
		return "Drain"
	case RecDrainAbort:
		return "DrainAbort"
	case RecFence:
		return "Fence"
	case RecSnapEnd:
		return "SnapEnd"
	}
	return fmt.Sprintf("RecType(%d)", uint8(t))
}

// MaxRecord bounds one record's payload. The largest legitimate record is
// a RecRegister carrying one registration batch of pages; 1 MiB is far
// above any batch the wire protocol can deliver, so a larger length field
// can only come from corruption.
const MaxRecord = 1 << 20

const frameHeader = 8 // u32 length + u32 crc

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one journal entry. The concrete types are Meta, Register,
// RenewBatch, Expunge, Drain, DrainAbort, Fence and SnapEnd.
type Record interface{ recType() RecType }

// Meta identifies a journal file: its generation and the shard assignment
// of the directory that wrote it. Self is -1 for an unsharded directory.
type Meta struct {
	Gen          uint64
	ShardVersion uint64
	Shards       []string
	Self         int
}

func (Meta) recType() RecType { return RecMeta }

// SameShard reports whether two metas describe the same shard identity
// (generation excluded — that differs across rotations by design).
func (m Meta) SameShard(o Meta) bool {
	if m.ShardVersion != o.ShardVersion || m.Self != o.Self || len(m.Shards) != len(o.Shards) {
		return false
	}
	for i, a := range m.Shards {
		if o.Shards[i] != a {
			return false
		}
	}
	return true
}

// Sharded reports whether the meta describes one shard of a sharded
// deployment.
func (m Meta) Sharded() bool { return len(m.Shards) > 0 }

// Validate rejects a meta the frame encoding cannot represent: the shard
// count and each shard address carry one-byte length prefixes, so a
// deployment past either bound would journal a silently-wrong identity
// that SameShard later trusts. Open refuses such a configuration up
// front instead.
func (m Meta) Validate() error {
	if len(m.Shards) > 255 {
		return fmt.Errorf("dirlog: %d shards exceed the journal's one-byte shard count", len(m.Shards))
	}
	for _, a := range m.Shards {
		if len(a) > 255 {
			return fmt.Errorf("dirlog: shard address %.16q… exceeds the journal's 255-byte string bound", a)
		}
	}
	return nil
}

// Register is one applied registration. Expires is absolute wall time in
// Unix nanoseconds; Seq is the directory's seniority counter at the time
// the server first registered, preserved so primary ordering survives
// recovery.
type Register struct {
	Addr    string
	Epoch   uint64
	Seq     uint64
	Expires int64
	Pages   []uint64
}

func (Register) recType() RecType { return RecRegister }

// Renew is one lease renewal inside a RenewBatch.
type Renew struct {
	Addr    string
	Epoch   uint64
	Expires int64
}

// RenewBatch carries buffered lease renewals.
type RenewBatch struct{ Renews []Renew }

func (RenewBatch) recType() RecType { return RecRenewBatch }

// Expunge removes the named servers' registrations.
type Expunge struct{ Addrs []string }

func (Expunge) recType() RecType { return RecExpunge }

// Drain marks Addr as draining.
type Drain struct{ Addr string }

func (Drain) recType() RecType { return RecDrain }

// DrainAbort clears Addr's draining mark.
type DrainAbort struct{ Addr string }

func (DrainAbort) recType() RecType { return RecDrainAbort }

// Fence raises Addr's remembered epoch to Epoch.
type Fence struct {
	Addr  string
	Epoch uint64
}

func (Fence) recType() RecType { return RecFence }

// SnapEnd terminates a snapshot stream.
type SnapEnd struct{}

func (SnapEnd) recType() RecType { return RecSnapEnd }

// CorruptError reports a structurally impossible frame: not the torn tail
// a crash leaves behind, but a stream no writer of this package produced.
type CorruptError struct {
	Offset int    // byte offset of the offending frame
	Reason string // what was impossible about it
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("dirlog: corrupt record at offset %d: %s", e.Offset, e.Reason)
}

// appendRecord appends r's CRC-framed encoding to buf.
func appendRecord(buf []byte, r Record) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0) // frame header placeholder
	buf = appendBody(buf, r)
	payload := buf[start+frameHeader:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, crcTable))
	return buf
}

func appendBody(buf []byte, r Record) []byte {
	buf = append(buf, byte(r.recType()))
	switch m := r.(type) {
	case Meta:
		buf = binary.LittleEndian.AppendUint64(buf, m.Gen)
		buf = binary.LittleEndian.AppendUint64(buf, m.ShardVersion)
		self := uint32(0xFFFFFFFF)
		if m.Self >= 0 {
			self = uint32(m.Self)
		}
		buf = binary.LittleEndian.AppendUint32(buf, self)
		buf = append(buf, byte(len(m.Shards)))
		for _, a := range m.Shards {
			buf = appendString(buf, a)
		}
	case Register:
		buf = appendString(buf, m.Addr)
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
		buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Expires))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Pages)))
		for _, p := range m.Pages {
			buf = binary.LittleEndian.AppendUint64(buf, p)
		}
	case RenewBatch:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Renews)))
		for _, rn := range m.Renews {
			buf = appendString(buf, rn.Addr)
			buf = binary.LittleEndian.AppendUint64(buf, rn.Epoch)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(rn.Expires))
		}
	case Expunge:
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Addrs)))
		for _, a := range m.Addrs {
			buf = appendString(buf, a)
		}
	case Drain:
		buf = appendString(buf, m.Addr)
	case DrainAbort:
		buf = appendString(buf, m.Addr)
	case Fence:
		buf = appendString(buf, m.Addr)
		buf = binary.LittleEndian.AppendUint64(buf, m.Epoch)
	case SnapEnd:
	}
	return buf
}

func appendString(buf []byte, s string) []byte {
	if len(s) > 255 {
		// Unreachable for a validated journal: wire-decoded addresses
		// carry one-byte length prefixes and Open rejects oversized
		// shard metas (Meta.Validate). Clamp rather than corrupt the
		// frame if a future caller slips one through.
		s = s[:255]
	}
	buf = append(buf, byte(len(s)))
	return append(buf, s...)
}

// Decode parses a record stream. It returns the decoded records, the
// clean length — the byte offset up to which the stream parsed as whole,
// checksummed frames — and an error.
//
// A nil error with clean < len(data) is a torn tail: the input ends
// mid-frame or the last frame's checksum fails, which is what a crash
// mid-write leaves behind; the caller truncates at clean and continues. A
// *CorruptError reports a frame no writer produced (oversized length,
// undeclared type, or an unparseable body under a valid checksum) at
// offset clean. Decode never panics, whatever the input.
func Decode(data []byte) (recs []Record, clean int, err error) {
	c := wire.New(data)
	for c.Len() > 0 {
		clean = len(data) - c.Len()
		n, sum := int(c.U32()), c.U32()
		if c.Short() {
			return recs, clean, nil // torn header
		}
		if n > MaxRecord {
			return recs, clean, &CorruptError{Offset: clean, Reason: fmt.Sprintf("length %d exceeds max %d", n, MaxRecord)}
		}
		payload := c.Bytes(n)
		if c.Short() || crc32.Checksum(payload, crcTable) != sum {
			return recs, clean, nil // torn payload, or a checksum mismatch: a torn or half-written frame
		}
		rec, derr := decodeBody(payload)
		if derr != nil {
			// The checksum matched, so the bytes arrived as written — a
			// frame that still fails to parse was never valid.
			return recs, clean, &CorruptError{Offset: clean, Reason: derr.Error()}
		}
		recs = append(recs, rec)
	}
	return recs, len(data), nil
}

// decodeBody parses one record payload (type byte + body). It requires
// the body to be consumed exactly.
func decodeBody(p []byte) (Record, error) {
	d := wire.New(p)
	if d.Len() == 0 {
		return nil, fmt.Errorf("empty payload")
	}
	t := RecType(d.U8())
	var rec Record
	switch t {
	case RecMeta:
		m := Meta{Gen: d.U64(), ShardVersion: d.U64(), Self: -1}
		if self := d.U32(); self != 0xFFFFFFFF {
			m.Self = int(self)
		}
		for range d.Count(int(d.U8()), 1) {
			m.Shards = append(m.Shards, d.Str())
		}
		rec = m
	case RecRegister:
		m := Register{Addr: d.Str(), Epoch: d.U64(), Seq: d.U64(), Expires: int64(d.U64())}
		for range d.Count(int(d.U32()), 8) {
			m.Pages = append(m.Pages, d.U64())
		}
		rec = m
	case RecRenewBatch:
		var m RenewBatch
		for range d.Count(int(d.U32()), 17) {
			m.Renews = append(m.Renews, Renew{Addr: d.Str(), Epoch: d.U64(), Expires: int64(d.U64())})
		}
		rec = m
	case RecExpunge:
		var m Expunge
		for range d.Count(int(d.U32()), 1) {
			m.Addrs = append(m.Addrs, d.Str())
		}
		rec = m
	case RecDrain:
		rec = Drain{Addr: d.Str()}
	case RecDrainAbort:
		rec = DrainAbort{Addr: d.Str()}
	case RecFence:
		rec = Fence{Addr: d.Str(), Epoch: d.U64()}
	case RecSnapEnd:
		rec = SnapEnd{}
	default:
		return nil, fmt.Errorf("undeclared record type %d", uint8(t))
	}
	if err := d.End(bodyErrs[t].short, bodyErrs[t].trailing); err != nil {
		return nil, err
	}
	return rec, nil
}

// bodyErrs holds each record type's two body errors, made once.
var bodyErrs = func() (e [RecSnapEnd + 1]struct{ short, trailing error }) {
	for t := RecMeta; t <= RecSnapEnd; t++ {
		e[t].short = fmt.Errorf("short %v body", t)
		e[t].trailing = fmt.Errorf("trailing bytes in %v", t)
	}
	return e
}()
