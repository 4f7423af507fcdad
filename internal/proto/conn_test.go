package proto

import (
	"encoding/binary"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// pipeConn returns a Conn whose peer runs serve on the other end of an
// in-memory pipe, and closes both when the test ends.
func pipeConn(t *testing.T, serve func(peer net.Conn, r *Reader)) *Conn {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	go serve(b, NewReader(b))
	return NewConn(a)
}

// rawFrame encodes a frame of any type byte around payload.
func rawFrame(t Type, payload string) []byte {
	f := append([]byte{byte(t)}, binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))...)
	return append(f, payload...)
}

// TestCallReturnsOnlyWhatWasAskedFor walks every declared tag as the reply:
// it comes back iff the caller asked for it, a TError nobody asked for is an
// error carrying the peer's text, and every other tag is refused. This is
// the guarantee the reply-side tag switches in internal/remote used to spell
// out arm by arm.
func TestCallReturnsOnlyWhatWasAskedFor(t *testing.T) {
	const text = "directory: stale epoch 7"
	for reply := TPutPage; reply <= TDrainReply; reply++ {
		other := TAck
		if reply == TAck {
			other = TLookupReply
		}
		for _, asked := range []bool{true, false} {
			c := pipeConn(t, func(peer net.Conn, r *Reader) {
				if _, err := r.Next(); err == nil {
					_, _ = peer.Write(rawFrame(reply, text))
				}
			})
			want := other
			if asked {
				want = reply
			}
			f, err := c.Call(time.Second, (*Writer).SendGetShardMap, other, want)
			switch {
			case asked:
				if err != nil || f.Type != reply || string(f.Payload) != text {
					t.Errorf("asked for %v: got %v %q, err %v", reply, f.Type, f.Payload, err)
				}
			case err == nil:
				t.Errorf("%v came back to a caller that asked for %v only", reply, other)
			case reply == TError && !strings.Contains(err.Error(), text):
				t.Errorf("unasked TError: err %q does not carry the peer's text", err)
			case reply != TError && !strings.Contains(err.Error(), reply.String()):
				t.Errorf("refused %v: err %q does not name it", reply, err)
			}
		}
	}
}

// TestCallTimesOutOnSilentPeer: a peer that takes the request and never
// answers fails the Call within its timeout — for every caller, not only the
// registration path TestRegisterWithSilentDirectoryTimesOut pins.
func TestCallTimesOutOnSilentPeer(t *testing.T) {
	c := pipeConn(t, func(_ net.Conn, r *Reader) {
		for {
			if _, err := r.Next(); err != nil {
				return
			}
		}
	})
	start := time.Now()
	_, err := c.Call(50*time.Millisecond, (*Writer).SendGetShardMap, TShardMap)
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("Call took %v to give up on a silent peer with a 50ms timeout", el)
	}
}

// TestCallClearsItsDeadline: a connection that idles for longer than the
// last Call's timeout (a dirConn between lookups) is still good — for a bare
// read as much as for the next Call.
func TestCallClearsItsDeadline(t *testing.T) {
	const timeout = 40 * time.Millisecond
	c := pipeConn(t, func(peer net.Conn, r *Reader) {
		w := NewWriter(peer)
		for i := 0; ; i++ {
			if _, err := r.Next(); err != nil {
				return
			}
			if w.SendAck() != nil {
				return
			}
			if i == 0 {
				time.Sleep(2 * timeout)
				_ = w.SendError("unsolicited, after the idle")
			}
		}
	})
	if _, err := c.Call(timeout, (*Writer).SendGetShardMap, TAck); err != nil {
		t.Fatal(err)
	}
	if f, err := c.Next(); err != nil || f.Type != TError {
		t.Fatalf("read after idling 2x the timeout: %v %v; the deadline outlived its Call", f.Type, err)
	}
	if _, err := c.Call(timeout, (*Writer).SendGetShardMap, TAck); err != nil {
		t.Fatalf("Call after the idle: %v", err)
	}
}

// TestDialUsesTheGivenDialer: a caller's dialer replaces TCP (and bounds
// itself); nil means TCP under the timeout.
func TestDialUsesTheGivenDialer(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	c, err := Dial(func(network, addr string) (net.Conn, error) {
		if network != "tcp" || addr != "somewhere:1" {
			t.Errorf("dialer called with %q %q", network, addr)
		}
		return a, nil
	}, "somewhere:1", time.Nanosecond)
	if err != nil || c.Conn != a {
		t.Fatalf("Dial through a custom dialer: %v", err)
	}
	c.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err = Dial(nil, ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}
