package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/gms-sim/gmsubpage/internal/proto"
)

// These tests pin the liveness fixes that came out of the gmslint
// deadlinecheck/tagswitch audit: unbounded waits on registration and
// misdirected-frame fallthroughs in the data stream. Each one fails by
// hanging (or stalling to a long timeout) if the corresponding fix is
// reverted, so they run their subject on a goroutine under a watchdog.

// silentDirectory accepts connections and speaks just enough protocol to
// let registration start: it serves the (empty) shard map, then swallows
// every Register without ever acking. This is the wedged-directory shape
// that used to hang RegisterWith forever.
func silentDirectory(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				r := proto.NewReader(conn)
				w := proto.NewWriter(conn)
				for {
					f, err := r.Next()
					if err != nil {
						return
					}
					if f.Type == proto.TGetShardMap {
						if err := w.SendShardMap(proto.ShardMap{}); err != nil {
							return
						}
					}
					// TRegister (and anything else): read it, never answer.
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

func TestRegisterWithSilentDirectoryTimesOut(t *testing.T) {
	dirAddr := silentDirectory(t)
	srv, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Store(0, pagePattern(0))

	done := make(chan error, 1)
	go func() { done <- srv.RegisterWith(dirAddr) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("RegisterWith succeeded against a directory that never acks")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RegisterWith hung on a silent directory; the register deadline did not fire")
	}
}

// fakeServer accepts data-stream connections and answers every frame it
// reads with the same raw bytes.
func fakeServer(t *testing.T, answer []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				r := proto.NewReader(conn)
				for {
					if _, err := r.Next(); err != nil {
						return
					}
					if _, err := conn.Write(answer); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// registerFake routes page 0 at addr by registering it with dir directly,
// the way a real server announces itself.
func registerFake(t *testing.T, dir *Directory, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", dir.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := proto.NewWriter(conn).SendRegister(proto.Register{Addr: addr, Epoch: 1, Pages: []uint64{0}}); err != nil {
		t.Fatal(err)
	}
	if f, err := proto.NewReader(conn).Next(); err != nil || f.Type != proto.TAck {
		t.Fatalf("register: %v %v", f.Type, err)
	}
}

// TestMisdirectedFrameFailsFastNotTimeout: a server that answers every
// GetPage with a TAck — a valid frame that has no business on a data
// stream. Before the tagswitch audit the client's read loop silently
// skipped such frames and the attempt stalled to the full RequestTimeout.
func TestMisdirectedFrameFailsFastNotTimeout(t *testing.T) {
	dir, err := ListenDirectory("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	registerFake(t, dir, fakeServer(t, []byte{byte(proto.TAck), 0, 0, 0, 0}))

	// A long request timeout so the test can tell "dropped on the bad
	// frame" apart from "waited out the deadline".
	cfg := ClientConfig{RequestTimeout: 10 * time.Second, MaxRetries: 1, RetryBackoff: 5 * time.Millisecond}
	c := testClient(t, dir, cfg)
	var b [8]byte
	start := time.Now()
	readErr := c.Read(b[:], 0)
	elapsed := time.Since(start)
	if readErr == nil {
		t.Fatal("read from a protocol-confused server succeeded")
	}
	if !errors.Is(readErr, ErrPageUnavailable) {
		t.Fatalf("err = %v, want ErrPageUnavailable", readErr)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("misdirected frame took %v to fail; the read loop should drop the server immediately, not wait out the deadline", elapsed)
	}
	var pe *PageError
	if errors.As(readErr, &pe) && !strings.Contains(pe.Err.Error(), "unexpected") {
		t.Fatalf("cause = %v, want the unexpected-frame drop", pe.Err)
	}
}

// TestMalformedBatchFailsOverNotTimeout: the primary answers a get with a
// TSubpageBatch whose run table promises a kilobyte and whose payload
// carries half of one. The stream is suspect from that frame on, so the
// read loop must drop the server — failing the attempt over to the healthy
// replica at once — rather than skip the frame and leave the attempt to its
// deadline.
func TestMalformedBatchFailsOverNotTimeout(t *testing.T) {
	dir, err := ListenDirectory("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	payload := make([]byte, 18+8+512) // ReqID, Page, Flags, one run; then the data
	payload[16], payload[17] = proto.FlagFirst|proto.FlagLast, 1
	binary.LittleEndian.PutUint32(payload[22:], 1024) // the run: offset 0, length 1024
	frame := binary.LittleEndian.AppendUint32([]byte{byte(proto.TSubpageBatch)}, uint32(len(payload)))
	registerFake(t, dir, fakeServer(t, append(frame, payload...))) // first, so primary
	srv, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Store(0, pagePattern(0))
	if err := srv.RegisterWith(dir.Addr()); err != nil {
		t.Fatal(err)
	}

	c := testClient(t, dir, ClientConfig{RequestTimeout: 5 * time.Second, RetryBackoff: 5 * time.Millisecond})
	var b [8]byte
	start := time.Now()
	if err := c.Read(b[:], 0); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("a malformed batch took %v to fail over; the read loop should drop the server on it, not wait out the deadline", el)
	}
	if !bytes.Equal(b[:], pagePattern(0)[:8]) {
		t.Fatal("wrong bytes after failing over")
	}
	if st := c.Stats(); st.Failovers == 0 {
		t.Fatalf("stats = %+v, want a failover to the replica", st)
	}
}
