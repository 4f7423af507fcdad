//go:build unix

package proto

import (
	"bytes"
	"io"
	"net"
	"os"
	"syscall"
	"testing"
)

// socketpair returns two connected unix stream sockets: the cheapest real
// kernel socket, so reads are real read(2) calls without TCP's pacing.
func socketpair(tb testing.TB) (a, b net.Conn) {
	tb.Helper()
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		tb.Skipf("socketpair: %v", err)
	}
	conns := make([]net.Conn, 2)
	for i, fd := range fds {
		f := os.NewFile(uintptr(fd), "socketpair")
		c, err := net.FileConn(f)
		_ = f.Close()
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { _ = c.Close() })
		conns[i] = c
	}
	return conns[0], conns[1]
}

// countingReader counts the Read calls that reach the stream.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// BenchmarkReaderNextSocketpair decodes one fault's reply — the faulted
// subpage's batch, then the rest of the page — written as the server
// writes it, from a real socket. frames/read is what the buffered reader
// buys: the unbuffered one managed 0.5.
func BenchmarkReaderNextSocketpair(b *testing.B) {
	rd, wr := socketpair(b)
	var reply bytes.Buffer
	w := NewWriter(&reply)
	page := make([]byte, 8192)
	if err := w.SendSubpageBatch(1, 7, FlagFirst, []SubpageRun{{Off: 0, Data: page[:1024]}}); err != nil {
		b.Fatal(err)
	}
	if err := w.SendSubpageBatch(1, 7, FlagLast, []SubpageRun{{Off: 1024, Data: page[1024:]}}); err != nil {
		b.Fatal(err)
	}
	src := &countingReader{r: rd}
	r := NewReader(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wr.Write(reply.Bytes()); err != nil {
			b.Fatal(err)
		}
		for k := 0; k < 2; k++ {
			if _, err := r.Next(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(2*b.N)/float64(src.reads), "frames/read")
}
