package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"
)

// refReader is the unbuffered reader the buffered Reader replaced — two
// io.ReadFull calls per frame, header then payload — kept verbatim as the
// reference: under any chunking of any stream the Reader must hand out the
// same frames and then fail with the same error.
type refReader struct {
	r   io.Reader
	buf []byte
}

func newRefReader(r io.Reader) *refReader {
	return &refReader{r: r, buf: make([]byte, headerSize+MaxPayload)}
}

func (r *refReader) Next() (Frame, error) {
	head := r.buf[:headerSize]
	if _, err := io.ReadFull(r.r, head); err != nil {
		return Frame{}, err
	}
	t := Type(head[0])
	if t < TPutPage || t > TDrainReply {
		return Frame{}, fmt.Errorf("proto: unknown message type %d", head[0])
	}
	n := binary.LittleEndian.Uint32(head[1:5])
	if n > MaxPayload {
		return Frame{}, fmt.Errorf("proto: oversized payload %d for %v", n, t)
	}
	payload := r.buf[headerSize : headerSize+int(n)]
	if _, err := io.ReadFull(r.r, payload); err != nil {
		return Frame{}, fmt.Errorf("proto: truncated %v frame: %w", t, err)
	}
	return Frame{Type: t, Payload: payload}, nil
}

// frameResult is one Next outcome, payload copied out of the reader's buffer.
type frameResult struct {
	t       Type
	payload []byte
}

// drain calls next until it fails, returning the frames and the error.
func drain(next func() (Frame, error)) ([]frameResult, error) {
	var out []frameResult
	for {
		f, err := next()
		if err != nil {
			return out, err
		}
		out = append(out, frameResult{f.Type, append([]byte(nil), f.Payload...)})
	}
}

// sameError reports whether two terminal errors are the same outcome: the
// same text, and the same answer to the io.EOF / io.ErrUnexpectedEOF
// questions callers ask (io.EOF bare, as its contract requires).
func sameError(a, b error) bool {
	return a.Error() == b.Error() &&
		(a == io.EOF) == (b == io.EOF) &&
		errors.Is(a, io.EOF) == errors.Is(b, io.EOF) &&
		errors.Is(a, io.ErrUnexpectedEOF) == errors.Is(b, io.ErrUnexpectedEOF)
}

// chunkReader returns the stream in the given chunk sizes, cycling; several
// frames per Read when the sizes are large.
type chunkReader struct {
	data  []byte
	sizes []int
	i     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := c.sizes[c.i%len(c.sizes)]
	c.i++
	n = min(n, len(p), len(c.data))
	copy(p, c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// chunkings are the ways one stream is delivered to both readers.
var chunkings = map[string]func(data []byte) io.Reader{
	"whole":   func(d []byte) io.Reader { return bytes.NewReader(d) },
	"onebyte": func(d []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(d)) },
	"half":    func(d []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(d)) },
	"dataerr": func(d []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(d)) },
	"dataerr+half": func(d []byte) io.Reader {
		return iotest.DataErrReader(iotest.HalfReader(bytes.NewReader(d)))
	},
	"several-frames": func(d []byte) io.Reader { return &chunkReader{data: d, sizes: []int{3 * MaxPayload}} },
	"ragged":         func(d []byte) io.Reader { return &chunkReader{data: d, sizes: []int{1, 7, 4, 300, 5, 9000, 2}} },
}

// checkAgainstReference runs stream through Reader and refReader under
// every chunking and requires identical frames and terminal errors.
func checkAgainstReference(t *testing.T, stream []byte) (frames int, err error) {
	t.Helper()
	for name, chunk := range chunkings {
		want, wantErr := drain(newRefReader(chunk(stream)).Next)
		got, gotErr := drain(NewReader(chunk(stream)).Next)
		if len(got) != len(want) {
			t.Fatalf("%s: %d frames, reference read %d (errors %v / %v)", name, len(got), len(want), gotErr, wantErr)
		}
		for i := range want {
			if got[i].t != want[i].t || !bytes.Equal(got[i].payload, want[i].payload) {
				t.Fatalf("%s: frame %d = %v/%d bytes, reference %v/%d bytes",
					name, i, got[i].t, len(got[i].payload), want[i].t, len(want[i].payload))
			}
		}
		if !sameError(gotErr, wantErr) {
			t.Fatalf("%s: after %d frames failed with %q, reference with %q", name, len(got), gotErr, wantErr)
		}
		frames, err = len(got), gotErr
	}
	return frames, err
}

// recordedStream is a multi-frame conversation: every size class from the
// empty TAck to a MaxPayload frame, small frames packed between large ones.
func recordedStream(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	page := make([]byte, 8192)
	for i := range page {
		page[i] = byte(i * 31)
	}
	sends := []func() error{
		func() error {
			return w.SendGetPageV2(GetPageV2{ReqID: 1, Page: 7, FaultOff: 4096, SubpageSize: 1024, Policy: PolicyPipelined})
		},
		func() error {
			return w.SendSubpageBatch(1, 7, FlagFirst, []SubpageRun{{Off: 4096, Data: page[4096:5120]}})
		},
		func() error {
			return w.SendSubpageBatch(1, 7, FlagLast, []SubpageRun{{Off: 0, Data: page[:4096]}, {Off: 5120, Data: page[5120:]}})
		},
		w.SendAck,
		func() error { return w.SendCancel(Cancel{ReqID: 1}) },
		func() error { return w.SendPutPage(PutPage{Page: 9, Data: page}) },
		func() error { return w.SendLookupReply(LookupReply{Page: 12, Addrs: []string{"a:1", "b:2"}}) },
		func() error { return w.SendError(string(make([]byte, MaxPayload))) },
		w.SendAck,
		func() error { return w.SendPutPage(PutPage{Page: 3, Data: page[:512]}) },
	}
	for _, send := range sends {
		if err := send(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestReaderMatchesReferenceUnderChunking(t *testing.T) {
	stream := recordedStream(t)
	n, err := checkAgainstReference(t, stream)
	if n != 10 || err != io.EOF {
		t.Fatalf("recorded stream: %d frames then %v, want 10 then a clean io.EOF", n, err)
	}

	frame := func(tag byte, length uint32, payload int) []byte {
		b := binary.LittleEndian.AppendUint32([]byte{tag}, length)
		return append(b, make([]byte, payload)...)
	}
	ack := frame(byte(TAck), 0, 0)
	cases := []struct {
		name    string
		tail    []byte // appended to one good TAck
		wantErr string
		is      error // what errors.Is must find, if anything
	}{
		{"unknown tag", frame(0, 0, 0), "proto: unknown message type 0", nil},
		{"tag past the last", frame(byte(TDrainReply)+1, 0, 0), fmt.Sprintf("proto: unknown message type %d", TDrainReply+1), nil},
		{"oversized length", frame(byte(TPutPage), MaxPayload+1, 0), fmt.Sprintf("proto: oversized payload %d for PutPage", MaxPayload+1), nil},
		{"eof mid-header", []byte{byte(TPutPage), 1, 0}, "unexpected EOF", io.ErrUnexpectedEOF},
		{"eof mid-payload", frame(byte(TPutPage), 100, 40), "proto: truncated PutPage frame: unexpected EOF", io.ErrUnexpectedEOF},
		{"eof on the boundary", nil, "EOF", io.EOF},
	}
	for _, tc := range cases {
		n, err := checkAgainstReference(t, append(append([]byte(nil), ack...), tc.tail...))
		if n != 1 || err.Error() != tc.wantErr || (tc.is != nil && !errors.Is(err, tc.is)) {
			t.Errorf("%s: %d frames then %q, want 1 then %q", tc.name, n, err, tc.wantErr)
		}
		if tc.is == io.EOF && err != io.EOF {
			t.Errorf("%s: a stream ending on a frame boundary must fail with io.EOF itself, got %#v", tc.name, err)
		}
	}
}

// TestReaderCompaction parks a maximal frame across the point where the
// buffer must be compacted: one Read delivers a maximal frame, a small one
// and the first bytes of a second maximal frame, which then starts past
// mid-buffer and cannot fit behind them.
func TestReaderCompaction(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	big := make([]byte, MaxPayload)
	for i := range big {
		big[i] = byte(i % 251)
	}
	for _, send := range []func() error{
		func() error { return w.send(TError, big) },
		w.SendAck,
		func() error { return w.send(TPutPage, big) },
		w.SendAck,
	} {
		if err := send(); err != nil {
			t.Fatal(err)
		}
	}
	const lead = 2*headerSize + MaxPayload // the first two frames
	// The first Read ends mid-header, on the header's last byte, mid-payload.
	for _, split := range []int{lead + 2, lead + headerSize, lead + 4000} {
		r := NewReader(&chunkReader{data: append([]byte(nil), buf.Bytes()...), sizes: []int{split, 1 << 20}})
		if f, err := r.Next(); err != nil || f.Type != TError || !bytes.Equal(f.Payload, big) {
			t.Fatalf("split %d: first frame: %v, %d bytes, %v", split, f.Type, len(f.Payload), err)
		}
		if f, err := r.Next(); err != nil || f.Type != TAck {
			t.Fatalf("split %d: second frame: %v, %v", split, f.Type, err)
		}
		if r.rd+headerSize+MaxPayload <= len(r.buf) || r.wr == r.rd {
			t.Fatalf("split %d: a maximal frame at %d (read-ahead to %d) fits in %d: the test no longer straddles the compaction point",
				split, r.rd, r.wr, len(r.buf))
		}
		if f, err := r.Next(); err != nil || f.Type != TPutPage || !bytes.Equal(f.Payload, big) {
			t.Fatalf("split %d: maximal frame across the compaction point: %v, %d bytes, %v", split, f.Type, len(f.Payload), err)
		}
		if f, err := r.Next(); err != nil || f.Type != TAck {
			t.Fatalf("split %d: frame after compaction: %v, %v", split, f.Type, err)
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("split %d: end of stream: %v", split, err)
		}
	}
}

func TestReaderNextAllocs(t *testing.T) {
	stream := bytes.Repeat(recordedStream(t), 4)
	src := bytes.NewReader(stream)
	r := NewReader(src)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := r.Next(); err != nil {
			src.Reset(stream)
		}
	})
	if allocs != 0 {
		t.Fatalf("Reader.Next allocates %v per call, want 0", allocs)
	}
}

// FuzzReaderStream feeds arbitrary byte streams, arbitrarily chunked, to the
// Reader and the unbuffered reference: same frames, same terminal error.
func FuzzReaderStream(f *testing.F) {
	stream := recordedStream(f)
	f.Add(stream)
	f.Add(stream[:len(stream)-3])
	f.Add(stream[:headerSize+2])
	f.Add(stream[:headerSize]) // the stream ends right behind a header that promised a payload
	f.Add(append(append([]byte(nil), stream[:34]...), 0xff, 0, 0, 0, 0))
	f.Add([]byte{byte(TPutPage), 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, data)
	})
}
