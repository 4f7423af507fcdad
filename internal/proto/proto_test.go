package proto

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"github.com/gms-sim/gmsubpage/internal/units"
)

func roundTrip(t *testing.T, send func(*Writer) error) Frame {
	t.Helper()
	var buf bytes.Buffer
	if err := send(NewWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	f, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestGetPageRoundTrip pins the page request's bytes on the wire, not just
// that encode and decode agree: tag 13, a 29-byte little-endian payload in
// field order. Peers of other builds parse exactly this.
func TestGetPageRoundTrip(t *testing.T) {
	in := GetPageV2{ReqID: 0x0102, Page: 0xdeadbeef, FaultOff: 4097, SubpageSize: 1024, Want: 0xf0, Policy: PolicyEager}
	var buf bytes.Buffer
	if err := NewWriter(&buf).SendGetPageV2(in); err != nil {
		t.Fatal(err)
	}
	want := []byte{13, 29, 0, 0, 0,
		0x02, 0x01, 0, 0, 0, 0, 0, 0, // ReqID
		0xef, 0xbe, 0xad, 0xde, 0, 0, 0, 0, // Page
		0x01, 0x10, 0, 0, // FaultOff
		0x00, 0x04, 0, 0, // SubpageSize
		0xf0, 0, 0, 0, // Want
		2} // Policy
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("request frame:\n%x\nwant\n%x", buf.Bytes(), want)
	}
	f, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	if out, err := DecodeGetPageV2(f.Payload); err != nil || out != in {
		t.Fatalf("round trip: %+v, %v; want %+v", out, err, in)
	}
}

// TestPageDataRoundTrip carries a whole page as one run of one batch — the
// fullpage policy's reply, and the largest data frame the wire has.
func TestPageDataRoundTrip(t *testing.T) {
	data := make([]byte, units.PageSize)
	for i := range data {
		data[i] = byte(i)
	}
	f := roundTrip(t, func(w *Writer) error {
		return w.SendSubpageBatch(5, 7, FlagFirst|FlagLast, []SubpageRun{{Off: 0, Data: data}})
	})
	out, err := DecodeSubpageBatch(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.ReqID != 5 || out.Page != 7 || out.Flags != FlagFirst|FlagLast || out.Runs() != 1 {
		t.Fatalf("header mismatch: %+v", out)
	}
	if off, got := out.Run(0); off != 0 || !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
}

func TestPutPageRoundTrip(t *testing.T) {
	in := PutPage{Page: 99, Data: bytes.Repeat([]byte{0xab}, units.PageSize)}
	f := roundTrip(t, func(w *Writer) error { return w.SendPutPage(in) })
	out, err := DecodePutPage(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.Page != 99 || !bytes.Equal(out.Data, in.Data) {
		t.Fatal("put page mismatch")
	}
}

func TestLookupRoundTrip(t *testing.T) {
	f := roundTrip(t, func(w *Writer) error { return w.SendLookup(Lookup{Page: 5}) })
	out, err := DecodeLookup(f.Payload)
	if err != nil || out.Page != 5 {
		t.Fatalf("lookup: %+v, %v", out, err)
	}
	f = roundTrip(t, func(w *Writer) error {
		return w.SendLookupReply(LookupReply{Page: 5, Addrs: []string{"10.0.0.2:9999"}})
	})
	rep, err := DecodeLookupReply(f.Payload)
	if err != nil || len(rep.Addrs) != 1 || rep.Addrs[0] != "10.0.0.2:9999" || rep.Page != 5 {
		t.Fatalf("lookup reply: %+v, %v", rep, err)
	}
}

func TestLookupReplyReplicas(t *testing.T) {
	in := LookupReply{Page: 7, Addrs: []string{"a:1", "b:2", "c:3"}}
	f := roundTrip(t, func(w *Writer) error { return w.SendLookupReply(in) })
	rep, err := DecodeLookupReply(f.Payload)
	if err != nil || len(rep.Addrs) != 3 {
		t.Fatalf("replica reply: %+v, %v", rep, err)
	}
	for i, a := range in.Addrs {
		if rep.Addrs[i] != a {
			t.Fatalf("replica %d = %q, want %q", i, rep.Addrs[i], a)
		}
	}
}

func TestLookupReplyEmptyAddr(t *testing.T) {
	f := roundTrip(t, func(w *Writer) error {
		return w.SendLookupReply(LookupReply{Page: 5})
	})
	rep, err := DecodeLookupReply(f.Payload)
	if err != nil || len(rep.Addrs) != 0 {
		t.Fatalf("empty addr reply: %+v, %v", rep, err)
	}
}

func TestLookupReplyTruncated(t *testing.T) {
	// A count that promises more replicas than the payload carries.
	if _, err := DecodeLookupReply([]byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 1, 'a'}); err == nil {
		t.Error("truncated replica list should fail")
	}
	// An address length that runs past the payload.
	if _, err := DecodeLookupReply([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 9, 'a'}); err == nil {
		t.Error("overlong address length should fail")
	}
}

// TestPolicyMapping pins the policy byte's wire values. core's wire-policy
// table is indexed by them (its own test covers names and the typed
// rejection), and deployed peers send them, so they never renumber.
func TestPolicyMapping(t *testing.T) {
	got := [...]uint8{PolicyFullPage, PolicyLazy, PolicyEager, PolicyPipelined}
	if got != [...]uint8{0, 1, 2, 3} {
		t.Fatalf("policy bytes (fullpage, lazy, eager, pipelined) = %v, want [0 1 2 3]", got)
	}
}

func TestRegisterRoundTrip(t *testing.T) {
	in := Register{Addr: "h:1", Epoch: 42, Pages: []uint64{1, 2, 3, 1 << 40}}
	f := roundTrip(t, func(w *Writer) error { return w.SendRegister(in) })
	out, err := DecodeRegister(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.Addr != in.Addr || out.Epoch != 42 || len(out.Pages) != 4 || out.Pages[3] != 1<<40 {
		t.Fatalf("register mismatch: %+v", out)
	}
}

func TestRegisterZeroEpochEmptyPages(t *testing.T) {
	in := Register{Addr: "h:1"}
	f := roundTrip(t, func(w *Writer) error { return w.SendRegister(in) })
	out, err := DecodeRegister(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.Addr != "h:1" || out.Epoch != 0 || len(out.Pages) != 0 {
		t.Fatalf("register mismatch: %+v", out)
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	in := Heartbeat{Addr: "10.0.0.2:9999", Epoch: 1 << 50}
	f := roundTrip(t, func(w *Writer) error { return w.SendHeartbeat(in) })
	if f.Type != THeartbeat {
		t.Fatalf("type = %v", f.Type)
	}
	out, err := DecodeHeartbeat(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
}

func TestHeartbeatAddrTooLong(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.SendHeartbeat(Heartbeat{Addr: strings.Repeat("x", 300)}); err == nil {
		t.Fatal("overlong address should fail")
	}
}

func TestAckAndError(t *testing.T) {
	f := roundTrip(t, func(w *Writer) error { return w.SendAck() })
	if f.Type != TAck || len(f.Payload) != 0 {
		t.Fatalf("ack frame: %+v", f)
	}
	f = roundTrip(t, func(w *Writer) error { return w.SendError("boom") })
	if f.Type != TError || DecodeError(f.Payload).Text != "boom" {
		t.Fatalf("error frame: %+v", f)
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.SendAck(); err != nil {
		t.Fatal(err)
	}
	if err := w.SendLookup(Lookup{Page: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.SendError("x"); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	want := []Type{TAck, TLookup, TError}
	for _, wt := range want {
		f, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != wt {
			t.Fatalf("got %v, want %v", f.Type, wt)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	var buf bytes.Buffer
	// Hand-craft a frame claiming a giant payload.
	buf.Write([]byte{byte(TPutPage), 0xff, 0xff, 0xff, 0x7f})
	if _, err := NewReader(&buf).Next(); err == nil {
		t.Fatal("oversized frame should be rejected")
	}
	// And the writer refuses to produce one.
	w := NewWriter(io.Discard)
	err := w.SendPutPage(PutPage{Data: make([]byte, MaxPayload+1)})
	if err == nil {
		t.Fatal("oversized send should fail")
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).SendPutPage(PutPage{Page: 1, Data: []byte("hello")}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := NewReader(bytes.NewReader(trunc)).Next(); err == nil {
		t.Fatal("truncated frame should error")
	}
}

// TestUnknownTypeByteRejected pins the framing contract that lets tag
// switches over Type be exhaustive with no default: Next never hands an
// undeclared tag to a caller.
func TestUnknownTypeByteRejected(t *testing.T) {
	for _, tag := range []byte{0, 1, 2, byte(TDrainReply) + 1, 200, 255} {
		raw := []byte{tag, 0, 0, 0, 0}
		_, err := NewReader(bytes.NewReader(raw)).Next()
		if err == nil {
			t.Fatalf("type byte %d accepted; exhaustive switches downstream would misdispatch it", tag)
		}
		if !strings.Contains(err.Error(), "unknown message type") {
			t.Fatalf("type byte %d: err = %v, want the unknown-type rejection", tag, err)
		}
	}
	for tag := TPutPage; tag <= TDrainReply; tag++ {
		raw := []byte{byte(tag), 0, 0, 0, 0}
		if _, err := NewReader(bytes.NewReader(raw)).Next(); err != nil {
			t.Fatalf("declared tag %v rejected at the framing layer: %v", tag, err)
		}
	}
}

// TestTagValuesPinned holds every tag to its byte on the wire. Bytes 1 and 2
// were the retired v1 get/data pair and stay reserved: renumbering would let
// an old peer's get decode as a TPutPage and overwrite a stored page.
func TestTagValuesPinned(t *testing.T) {
	want := map[Type]byte{
		TPutPage: 3, TAck: 4, TLookup: 5, TLookupReply: 6, TRegister: 7,
		TError: 8, THeartbeat: 9, TGetShardMap: 10, TShardMap: 11,
		TWrongShard: 12, TGetPageV2: 13, TSubpageBatch: 14, TCancel: 15,
		TDrain: 16, TDrainReply: 17,
	}
	for tag, b := range want {
		if byte(tag) != b {
			t.Errorf("%v = %d on the wire, want %d", tag, byte(tag), b)
		}
	}
	for _, b := range []byte{0, 1, 2, 18} {
		if _, err := NewReader(bytes.NewReader([]byte{b, 0, 0, 0, 0})).Next(); err == nil {
			t.Errorf("Reader.Next accepted tag byte %d", b)
		}
	}
}

func TestShortPayloadDecodes(t *testing.T) {
	if _, err := DecodePutPage(nil); err == nil {
		t.Error("short PutPage should fail")
	}
	if _, err := DecodeLookup([]byte{9}); err == nil {
		t.Error("short Lookup should fail")
	}
	if _, err := DecodeLookupReply(nil); err == nil {
		t.Error("short LookupReply should fail")
	}
	if _, err := DecodeRegister(nil); err == nil {
		t.Error("short Register should fail")
	}
	// Address present but epoch missing.
	if _, err := DecodeRegister([]byte{1, 'a', 0xff}); err == nil {
		t.Error("Register without epoch should fail")
	}
	if _, err := DecodeRegister([]byte{1, 'a', 1, 2, 3, 4, 5, 6, 7, 8, 0xff}); err == nil {
		t.Error("ragged Register page list should fail")
	}
	if _, err := DecodeHeartbeat(nil); err == nil {
		t.Error("short Heartbeat should fail")
	}
	if _, err := DecodeHeartbeat([]byte{1, 'a', 0xff}); err == nil {
		t.Error("Heartbeat without full epoch should fail")
	}
	// Trailing bytes after the epoch are also malformed.
	if _, err := DecodeHeartbeat([]byte{1, 'a', 1, 2, 3, 4, 5, 6, 7, 8, 9}); err == nil {
		t.Error("overlong Heartbeat should fail")
	}
}

func TestRegisterAddrTooLong(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.SendRegister(Register{Addr: strings.Repeat("x", 300)}); err == nil {
		t.Fatal("overlong address should fail")
	}
}

func TestQuickGetPageRoundTrip(t *testing.T) {
	f := func(id, page uint64, off, sub, want uint32, pol uint8) bool {
		in := GetPageV2{ReqID: id, Page: page, FaultOff: off, SubpageSize: sub, Want: want, Policy: pol}
		var buf bytes.Buffer
		if err := NewWriter(&buf).SendGetPageV2(in); err != nil {
			return false
		}
		fr, err := NewReader(&buf).Next()
		if err != nil {
			return false
		}
		out, err := DecodeGetPageV2(fr.Payload)
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPageDataRoundTrip sends page data of arbitrary length and
// content through the one frame that carries unaligned data, a put.
func TestQuickPageDataRoundTrip(t *testing.T) {
	f := func(page uint64, data []byte) bool {
		if len(data) > units.PageSize {
			data = data[:units.PageSize]
		}
		var buf bytes.Buffer
		if err := NewWriter(&buf).SendPutPage(PutPage{Page: page, Data: data}); err != nil {
			return false
		}
		fr, err := NewReader(&buf).Next()
		if err != nil {
			return false
		}
		out, err := DecodePutPage(fr.Payload)
		return err == nil && fr.Type == TPutPage && out.Page == page && bytes.Equal(out.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReaderNeverPanicsOnGarbage(t *testing.T) {
	f := func(raw []byte) bool {
		r := NewReader(bytes.NewReader(raw))
		for i := 0; i < 8; i++ {
			fr, err := r.Next()
			if err != nil {
				return true // rejecting garbage is fine
			}
			// A parsed frame must respect the payload bound.
			if len(fr.Payload) > MaxPayload {
				return false
			}
			// Decoders must not panic either.
			switch fr.Type {
			case TGetPageV2:
				DecodeGetPageV2(fr.Payload)
			case TSubpageBatch:
				DecodeSubpageBatch(fr.Payload)
			case TPutPage:
				DecodePutPage(fr.Payload)
			case TLookup:
				DecodeLookup(fr.Payload)
			case TLookupReply:
				DecodeLookupReply(fr.Payload)
			case TRegister:
				DecodeRegister(fr.Payload)
			case TError:
				DecodeError(fr.Payload)
			case THeartbeat:
				DecodeHeartbeat(fr.Payload)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDrainRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.SendDrain(Drain{Addr: "s:9"}); err != nil {
		t.Fatal(err)
	}
	if err := w.SendDrainReply(DrainReply{Moved: 123}); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	f, err := r.Next()
	if err != nil || f.Type != TDrain {
		t.Fatalf("frame: %v %v", f.Type, err)
	}
	d, err := DecodeDrain(f.Payload)
	if err != nil || d.Addr != "s:9" {
		t.Fatalf("DecodeDrain: %+v %v", d, err)
	}
	f, err = r.Next()
	if err != nil || f.Type != TDrainReply {
		t.Fatalf("frame: %v %v", f.Type, err)
	}
	rep, err := DecodeDrainReply(f.Payload)
	if err != nil || rep.Moved != 123 {
		t.Fatalf("DecodeDrainReply: %+v %v", rep, err)
	}
	if _, err := DecodeDrain(nil); err == nil {
		t.Error("empty Drain should fail")
	}
	if _, err := DecodeDrain([]byte{5, 'a'}); err == nil {
		t.Error("overrunning Drain addr should fail")
	}
	if _, err := DecodeDrainReply([]byte{1}); err == nil {
		t.Error("short DrainReply should fail")
	}
	if err := w.SendDrain(Drain{Addr: strings.Repeat("x", 256)}); err == nil {
		t.Error("overlong Drain addr accepted")
	}
}

func TestTypeStrings(t *testing.T) {
	types := []Type{TPutPage, TAck, TLookup,
		TLookupReply, TRegister, TError, THeartbeat,
		TGetShardMap, TShardMap, TWrongShard,
		TGetPageV2, TSubpageBatch, TCancel, TDrain, TDrainReply}
	seen := map[string]bool{}
	for _, tp := range types {
		s := tp.String()
		if s == "" || seen[s] {
			t.Errorf("bad or duplicate name for %d: %q", tp, s)
		}
		seen[s] = true
	}
	if got := Type(99).String(); got != "Type(99)" {
		t.Errorf("unknown type string = %q", got)
	}
}
