package proto

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/units"
)

func TestGetPageV2RoundTrip(t *testing.T) {
	in := GetPageV2{ReqID: 1 << 60, Page: 0xdeadbeef, FaultOff: 4097,
		SubpageSize: 1024, Want: 0x0f0f_0f0f, Policy: PolicyPipelined}
	f := roundTrip(t, func(w *Writer) error { return w.SendGetPageV2(in) })
	if f.Type != TGetPageV2 {
		t.Fatalf("type = %v", f.Type)
	}
	out, err := DecodeGetPageV2(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: %+v != %+v", out, in)
	}
	if _, err := DecodeGetPageV2(f.Payload[:getPageV2Len-1]); err == nil {
		t.Fatal("short GetPageV2 should fail")
	}
}

func TestCancelRoundTrip(t *testing.T) {
	f := roundTrip(t, func(w *Writer) error { return w.SendCancel(Cancel{ReqID: 77}) })
	if f.Type != TCancel {
		t.Fatalf("type = %v", f.Type)
	}
	out, err := DecodeCancel(f.Payload)
	if err != nil || out.ReqID != 77 {
		t.Fatalf("cancel: %+v, %v", out, err)
	}
	if _, err := DecodeCancel(f.Payload[:cancelLen-1]); err == nil {
		t.Fatal("short Cancel should fail")
	}
}

func mkRun(off, n int) SubpageRun {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(off + i)
	}
	return SubpageRun{Off: uint32(off), Data: d}
}

func TestSubpageBatchRoundTrip(t *testing.T) {
	runs := []SubpageRun{mkRun(0, 256), mkRun(1024, 512), mkRun(units.PageSize-256, 256)}
	f := roundTrip(t, func(w *Writer) error {
		return w.SendSubpageBatch(9, 42, FlagFirst|FlagLast, runs)
	})
	if f.Type != TSubpageBatch {
		t.Fatalf("type = %v", f.Type)
	}
	b, err := DecodeSubpageBatch(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if b.ReqID != 9 || b.Page != 42 || b.Flags != FlagFirst|FlagLast || b.Runs() != len(runs) {
		t.Fatalf("batch header: %+v", b)
	}
	for i, r := range runs {
		off, data := b.Run(i)
		if off != int(r.Off) || !bytes.Equal(data, r.Data) {
			t.Fatalf("run %d: off=%d len=%d, want off=%d len=%d", i, off, len(data), r.Off, len(r.Data))
		}
	}
}

// TestSubpageBatchEmptyTerminator pins the count-0 shape: a batch with no
// runs is a legal pure-signal frame (e.g. a FlagLast terminator when all
// requested blocks were already sent).
func TestSubpageBatchEmptyTerminator(t *testing.T) {
	f := roundTrip(t, func(w *Writer) error { return w.SendSubpageBatch(3, 4, FlagLast, nil) })
	b, err := DecodeSubpageBatch(f.Payload)
	if err != nil || b.Runs() != 0 || b.Flags != FlagLast || b.ReqID != 3 || b.Page != 4 {
		t.Fatalf("terminator batch: %+v, %v", b, err)
	}
}

// TestSubpageBatchScatterGatherMatchesWriter pins that the zero-copy
// server encoding (header via AppendSubpageBatchFrame + raw data ranges)
// is byte-identical to the Writer's copying form.
func TestSubpageBatchScatterGatherMatchesWriter(t *testing.T) {
	runs := []SubpageRun{mkRun(512, 256), mkRun(2048, 1024)}
	var viaWriter bytes.Buffer
	if err := NewWriter(&viaWriter).SendSubpageBatch(7, 11, FlagFirst, runs); err != nil {
		t.Fatal(err)
	}
	hdr, err := AppendSubpageBatchFrame(nil, 7, 11, FlagFirst, runs)
	if err != nil {
		t.Fatal(err)
	}
	gathered := append([]byte(nil), hdr...)
	for _, r := range runs {
		gathered = append(gathered, r.Data...)
	}
	if !bytes.Equal(gathered, viaWriter.Bytes()) {
		t.Fatalf("scatter-gather frame differs from writer frame:\n%x\n%x", gathered, viaWriter.Bytes())
	}
}

func TestSubpageBatchRejectsBadRuns(t *testing.T) {
	cases := []struct {
		name string
		runs []SubpageRun
	}{
		{"empty run", []SubpageRun{{Off: 0, Data: nil}}},
		{"misaligned offset", []SubpageRun{{Off: 100, Data: make([]byte, 256)}}},
		{"misaligned length", []SubpageRun{{Off: 0, Data: make([]byte, 300)}}},
		{"overruns page", []SubpageRun{{Off: units.PageSize - 256, Data: make([]byte, 512)}}},
		{"duplicate", []SubpageRun{mkRun(512, 256), mkRun(512, 256)}},
		{"overlap", []SubpageRun{mkRun(0, 1024), mkRun(512, 256)}},
		{"out of order", []SubpageRun{mkRun(1024, 256), mkRun(0, 256)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The encoder refuses to build the frame...
			if _, err := AppendSubpageBatchFrame(nil, 1, 2, 0, tc.runs); err == nil {
				t.Error("encoder accepted bad runs")
			}
			if err := NewWriter(io.Discard).SendSubpageBatch(1, 2, 0, tc.runs); err == nil {
				t.Error("writer accepted bad runs")
			}
			// ...and the decoder rejects a hand-forged frame carrying them,
			// so a malicious or buggy peer cannot smuggle overlapping
			// ranges past a conforming encoder.
			if _, err := DecodeSubpageBatch(forgeBatch(1, 2, 0, tc.runs)); err == nil {
				t.Error("decoder accepted bad runs")
			}
		})
	}
}

// forgeBatch builds a TSubpageBatch payload without the encoder's
// validation, for feeding deliberately-broken shapes to the decoder.
func forgeBatch(reqID, page uint64, flags uint8, runs []SubpageRun) []byte {
	p := make([]byte, 0, 64)
	p = appendU64(p, reqID)
	p = appendU64(p, page)
	p = append(p, flags, byte(len(runs)))
	for _, r := range runs {
		p = appendU32(p, r.Off)
		p = appendU32(p, uint32(len(r.Data)))
	}
	for _, r := range runs {
		p = append(p, r.Data...)
	}
	return p
}

func appendU64(p []byte, v uint64) []byte {
	return append(p, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func appendU32(p []byte, v uint32) []byte {
	return append(p, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func TestSubpageBatchDecodeTruncation(t *testing.T) {
	good := forgeBatch(1, 2, FlagLast, []SubpageRun{mkRun(0, 256), mkRun(512, 256)})
	if _, err := DecodeSubpageBatch(good); err != nil {
		t.Fatalf("control frame rejected: %v", err)
	}
	for cut := 1; cut <= len(good); cut++ {
		if _, err := DecodeSubpageBatch(good[:len(good)-cut]); err == nil {
			t.Fatalf("batch truncated by %d bytes decoded cleanly", cut)
		}
	}
	// Trailing garbage makes table and data disagree.
	if _, err := DecodeSubpageBatch(append(append([]byte(nil), good...), 0xff)); err == nil {
		t.Fatal("batch with trailing bytes decoded cleanly")
	}
	// A count byte promising more runs than any page can have.
	over := append([]byte(nil), good...)
	over[17] = MaxBatchRuns + 1
	if _, err := DecodeSubpageBatch(over); err == nil {
		t.Fatal("batch with oversized run count decoded cleanly")
	}
}

func TestSubpageBatchRunLimit(t *testing.T) {
	runs := make([]SubpageRun, MaxBatchRuns+1)
	for i := range runs {
		runs[i] = mkRun(i*units.MinSubpage, units.MinSubpage)
	}
	if _, err := AppendSubpageBatchFrame(nil, 1, 2, 0, runs); err == nil {
		t.Fatal("encoder accepted more runs than the page has blocks")
	}
	// Exactly the limit — a full page in minimum blocks — must fit MaxPayload.
	full := runs[:MaxBatchRuns]
	hdr, err := AppendSubpageBatchFrame(nil, 1, 2, FlagFirst|FlagLast, full)
	if err != nil {
		t.Fatalf("full-page batch rejected: %v", err)
	}
	const frameHdr = 5 // type byte + uint32 length prefix
	if payload := len(hdr) - frameHdr + units.PageSize; payload > MaxPayload {
		t.Fatalf("full-page batch payload %d bytes overruns MaxPayload %d", payload, MaxPayload)
	}
}

// TestWriterReleasesOversizedBuffer pins the satellite bugfix: a one-off
// large frame (a wide-deployment ShardMap, say) must not pin page-scale
// buffer capacity on a connection that otherwise sends tiny frames.
func TestWriterReleasesOversizedBuffer(t *testing.T) {
	w := NewWriter(io.Discard)
	wide := ShardMap{Version: 1}
	for i := 0; i < 100; i++ {
		wide.Shards = append(wide.Shards, fmt.Sprintf("shard-%03d.example.com:9999", i))
	}
	if err := w.SendShardMap(wide); err != nil {
		t.Fatal(err)
	}
	if cap(w.buf) <= writerRetainCap {
		t.Skipf("wide ShardMap frame only needed %d bytes; enlarge the fixture", cap(w.buf))
	}
	for i := 0; i < writerShrinkAfter-1; i++ {
		if err := w.SendAck(); err != nil {
			t.Fatal(err)
		}
		if cap(w.buf) <= writerRetainCap {
			t.Fatalf("buffer released after only %d small sends; hysteresis broken", i+1)
		}
	}
	if err := w.SendAck(); err != nil {
		t.Fatal(err)
	}
	if cap(w.buf) > writerRetainCap {
		t.Fatalf("after %d small sends the writer still retains %d bytes (cap %d)",
			writerShrinkAfter, cap(w.buf), writerRetainCap)
	}
	// And a steady stream of large frames never thrashes: the buffer
	// survives interleaved small terminators.
	data := make([]byte, units.PageSize)
	if err := w.SendPutPage(PutPage{Page: 1, Data: data}); err != nil {
		t.Fatal(err)
	}
	before := cap(w.buf)
	for i := 0; i < writerShrinkAfter-1; i++ {
		if err := w.SendAck(); err != nil {
			t.Fatal(err)
		}
		if err := w.SendPutPage(PutPage{Page: 1, Data: data}); err != nil {
			t.Fatal(err)
		}
	}
	if cap(w.buf) != before {
		t.Fatalf("steady large-frame writer reallocated: cap %d -> %d", before, cap(w.buf))
	}
}

// TestBatchEncodeDecodeAllocs pins the hot-path allocation budget at the
// proto layer: building a batch frame header into a reused buffer and
// decoding/iterating a received batch must not allocate at all.
func TestBatchEncodeDecodeAllocs(t *testing.T) {
	runs := []SubpageRun{mkRun(0, 256), mkRun(1024, 1024), mkRun(4096, 512)}
	hdr := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() {
		var err error
		hdr, err = AppendSubpageBatchFrame(hdr[:0], 1, 2, FlagFirst, runs)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendSubpageBatchFrame allocates %.1f/op; budget is 0", n)
	}
	payload := forgeBatch(1, 2, FlagFirst, runs)
	if n := testing.AllocsPerRun(100, func() {
		b, err := DecodeSubpageBatch(payload)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < b.Runs(); i++ {
			off, data := b.Run(i)
			if off < 0 || len(data) == 0 {
				t.Fatal("bad run")
			}
		}
	}); n != 0 {
		t.Fatalf("DecodeSubpageBatch+Run allocates %.1f/op; budget is 0", n)
	}
}

// TestV2TagsRejectedByOldReaders documents what a peer that predates the
// fault wire sees: the tag bytes lie past its last known tag, so it rejects
// them at the framing layer instead of misdispatching them.
func TestV2TagsRejectedByOldReaders(t *testing.T) {
	for _, tag := range []Type{TGetPageV2, TSubpageBatch, TCancel} {
		if tag <= TWrongShard {
			t.Fatalf("tag %v inside the pre-batching range; old peers would misdispatch it", tag)
		}
	}
	if got := TCancel.String(); got != "Cancel" {
		t.Fatalf("TCancel.String() = %q", got)
	}
	if !strings.HasPrefix(TGetPageV2.String(), "GetPage") {
		t.Fatalf("TGetPageV2.String() = %q", TGetPageV2.String())
	}
}
