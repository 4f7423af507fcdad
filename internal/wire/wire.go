// Package wire reads the little-endian payloads that the wire protocol
// (internal/proto) and the directory journal (internal/dirlog) share:
// fixed-width integers, byte strings behind a one-byte length, element
// counts, and raw byte runs. Every decoder in both packages reads its
// payload through one Cursor, so none indexes or slices bytes by hand and
// every length is summed in int, never in the byte it arrived in.
package wire

import "encoding/binary"

// A Cursor reads a payload left to right. The first read that runs past
// the end latches the cursor short: that read and every later one return
// zero values, and End reports the payload short. No read panics,
// whatever the bytes.
//
// A Cursor is two pointers, to the payload and to the count of bytes read,
// which only grows and passes the payload's end once a read runs short.
// Copies of a Cursor share both, so a Cursor is passed by value. A small
// value whose methods all inline, it lives in registers: the compiler
// forwards the count from read to read, and a fixed-width read costs a
// compare and a load, as a decoder that indexes its payload by hand
// would. Because the payload sits behind a pointer, a slice that Bytes or
// Rest returns carries only the payload's own pointer out, never the
// count's, so neither moves to the heap.
type Cursor struct {
	p   *[]byte
	off *int // bytes read; past len(*p) once a read ran short
}

// New returns a Cursor at the start of p. It inlines, so the cursor's
// state lives in the caller's frame.
func New(p []byte) Cursor { return Cursor{p: &p, off: new(int)} }

// Bytes returns the next n bytes, aliasing the payload, or nil when fewer
// than n are left.
func (c Cursor) Bytes(n int) (b []byte) {
	o, p := *c.off, *c.p
	next := len(p) + 1 // short
	if n >= 0 && n <= len(p)-o {
		b, next = p[o:o+n], o+n
	}
	*c.off = next
	return b
}

// Rest returns every byte left, aliasing the payload, and consumes them.
func (c Cursor) Rest() []byte { return c.Bytes(c.Len()) }

// Len reports how many bytes are left.
func (c Cursor) Len() int { return max(len(*c.p)-*c.off, 0) }

// Short reports whether a read has run past the end.
func (c Cursor) Short() bool { return *c.off > len(*c.p) }

// U8 reads one byte.
func (c Cursor) U8() uint8 {
	o, p := *c.off, *c.p
	*c.off = o + 1
	if uint(o) >= uint(len(p)) {
		return 0
	}
	return p[o]
}

// U32 reads a little-endian uint32.
func (c Cursor) U32() uint32 {
	o, p := *c.off, *c.p
	*c.off = o + 4
	if o < 0 || o > len(p)-4 {
		return 0
	}
	return binary.LittleEndian.Uint32(p[o : o+4 : o+4])
}

// U64 reads a little-endian uint64.
func (c Cursor) U64() uint64 {
	o, p := *c.off, *c.p
	*c.off = o + 8
	if o < 0 || o > len(p)-8 {
		return 0
	}
	return binary.LittleEndian.Uint64(p[o : o+8 : o+8])
}

// Str reads a string behind a one-byte length. The string is a copy. It
// is U8 and Bytes in one, written out so that it inlines.
func (c Cursor) Str() (s string) {
	o, p := *c.off, *c.p
	next := len(p) + 1 // short
	if o < len(p) && int(p[o]) < len(p)-o {
		n := int(p[o])
		s, next = string(p[o+1:o+1+n]), o+1+n
	}
	*c.off = next
	return s
}

// Count returns n, a count of elements just read, when the bytes left can
// hold n elements of at least size (> 0) bytes each. A count that promises
// more latches the cursor short and returns 0, so a decoder never sizes a
// slice, or loops, by a count the payload cannot back.
func (c Cursor) Count(n, size int) int {
	o := *c.off
	if uint(n) > uint(c.Len()/size) {
		n, o = 0, len(*c.p)+1 // short
	}
	*c.off = o
	return n
}

// End is the payload's verdict: nil when the reads consumed it exactly,
// short when a read ran past its end, trailing when bytes are left over.
// The caller makes the two errors once, ahead of any payload, so the
// verdict builds nothing.
func (c Cursor) End(short, trailing error) error {
	switch o := *c.off; {
	case o == len(*c.p):
		return nil
	case o > len(*c.p):
		return short
	}
	return trailing
}
