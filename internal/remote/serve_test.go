package remote

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// servePeer is one conversation with a live page server or directory over a
// raw connection, bounded by a deadline so a wrong answer fails instead of
// hanging.
type servePeer struct {
	conn net.Conn
	w    *proto.Writer
	r    *proto.Reader
}

func dialPeer(t *testing.T, addr string) *servePeer {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return &servePeer{conn: conn, w: proto.NewWriter(conn), r: proto.NewReader(conn)}
}

// next reads one frame and checks its type.
func (p *servePeer) next(t *testing.T, want proto.Type) proto.Frame {
	t.Helper()
	f, err := p.r.Next()
	if err != nil {
		t.Fatalf("waiting for %v: %v", want, err)
	}
	if f.Type != want {
		t.Fatalf("got %v %q, want %v", f.Type, f.Payload, want)
	}
	return f
}

// page reads one get's reply through FlagLast and returns the page bytes.
func (p *servePeer) page(t *testing.T, reqID uint64) []byte {
	t.Helper()
	buf := make([]byte, units.PageSize)
	for {
		b, err := proto.DecodeSubpageBatch(p.next(t, proto.TSubpageBatch).Payload)
		if err != nil {
			t.Fatal(err)
		}
		if b.ReqID != reqID {
			t.Fatalf("batch for request %d in the reply to %d", b.ReqID, reqID)
		}
		for i := 0; i < b.Runs(); i++ {
			off, data := b.Run(i)
			copy(buf[off:], data)
		}
		if b.Flags&proto.FlagLast != 0 {
			return buf
		}
	}
}

// refused expects the one refusal: a TError naming tag, then the hang-up.
func (p *servePeer) refused(t *testing.T, tag proto.Type) {
	t.Helper()
	f := p.next(t, proto.TError)
	if text := proto.DecodeError(f.Payload).Text; !strings.Contains(text, tag.String()) {
		t.Fatalf("refusal of %v says %q, which does not name it", tag, text)
	}
	if f, err := p.r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("after refusing %v the peer sent %v (err %v); want a hang-up", tag, f.Type, err)
	}
}

// bareFrame is a frame of tag with an empty payload.
func bareFrame(tag proto.Type) []byte { return []byte{byte(tag), 0, 0, 0, 0} }

func fullGet(id uint64) proto.GetPageV2 {
	return proto.GetPageV2{ReqID: id, Page: 0, SubpageSize: units.PageSize, Policy: proto.PolicyFullPage}
}

// TestServeRefusesWhatNoHandlerTakes walks every declared tag against a
// live page server and a live directory. A tag the peer serves gets its
// answer and leaves the connection open (a probe exchange follows on it);
// every other tag gets one TError naming it, then EOF. A handler arm
// deleted by mistake shows up here as a refusal of a tag that is served.
func TestServeRefusesWhatNoHandlerTakes(t *testing.T) {
	dir, srv := testCluster(t, 1)
	for _, addr := range []string{"idle:1", "drained:1"} {
		if rawRegister(t, dir.Addr(), proto.Register{Addr: addr, Epoch: 1}) != proto.TAck {
			t.Fatalf("register %s rejected", addr)
		}
	}
	type served struct {
		send  func(*proto.Writer) error
		reply func(*testing.T, *servePeer) // nil: the request has no reply
	}
	expect := func(want proto.Type) func(*testing.T, *servePeer) {
		return func(t *testing.T, p *servePeer) { p.next(t, want) }
	}
	peers := []struct {
		name  string
		addr  string
		serve map[proto.Type]served
		probe served
	}{
		{"server", srv.Addr(), map[proto.Type]served{
			proto.TGetPageV2: {func(w *proto.Writer) error { return w.SendGetPageV2(fullGet(7)) },
				func(t *testing.T, p *servePeer) { p.page(t, 7) }},
			proto.TCancel: {func(w *proto.Writer) error { return w.SendCancel(proto.Cancel{ReqID: 7}) }, nil},
			proto.TPutPage: {func(w *proto.Writer) error {
				return w.SendPutPage(proto.PutPage{Page: 1, Data: pagePattern(1)})
			}, nil},
		}, served{func(w *proto.Writer) error { return w.SendGetPageV2(fullGet(8)) },
			func(t *testing.T, p *servePeer) { p.page(t, 8) }}},
		{"directory", dir.Addr(), map[proto.Type]served{
			proto.TRegister: {func(w *proto.Writer) error {
				return w.SendRegister(proto.Register{Addr: "new:1", Epoch: 1})
			}, expect(proto.TAck)},
			proto.THeartbeat: {func(w *proto.Writer) error {
				return w.SendHeartbeat(proto.Heartbeat{Addr: "idle:1", Epoch: 1})
			}, expect(proto.TAck)},
			proto.TLookup: {func(w *proto.Writer) error { return w.SendLookup(proto.Lookup{Page: 0}) },
				expect(proto.TLookupReply)},
			proto.TGetShardMap: {(*proto.Writer).SendGetShardMap, expect(proto.TShardMap)},
			proto.TDrain: {func(w *proto.Writer) error { return w.SendDrain(proto.Drain{Addr: "drained:1"}) },
				expect(proto.TDrainReply)},
		}, served{(*proto.Writer).SendGetShardMap, expect(proto.TShardMap)}},
	}
	for _, peer := range peers {
		for tag := proto.TPutPage; tag <= proto.TPlacements; tag++ {
			t.Run(peer.name+"/"+tag.String(), func(t *testing.T) {
				p := dialPeer(t, peer.addr)
				s, ok := peer.serve[tag]
				if !ok {
					if _, err := p.conn.Write(bareFrame(tag)); err != nil {
						t.Fatal(err)
					}
					p.refused(t, tag)
					return
				}
				for _, ex := range []served{s, peer.probe} {
					if err := ex.send(p.w); err != nil {
						t.Fatal(err)
					}
					if ex.reply != nil {
						ex.reply(t, p)
					}
				}
			})
		}
	}
}

// TestServerRefusalFollowsQueuedReplies: a get and a misdirected frame
// arrive back to back while the paced writer is still streaming the get.
// The refusal waits for the whole page, then comes alone, then the hang-up.
func TestServerRefusalFollowsQueuedReplies(t *testing.T) {
	_, srv := testCluster(t, 1)
	srv.SetWireMbps(50) // ~1.3 ms of pacing per page: the misdirected frame is read mid-stream
	p := dialPeer(t, srv.Addr())
	var req bytes.Buffer
	get := fullGet(3)
	get.Policy, get.SubpageSize = proto.PolicyPipelined, 1024
	if err := proto.NewWriter(&req).SendGetPageV2(get); err != nil {
		t.Fatal(err)
	}
	req.Write(bareFrame(proto.TAck))
	if _, err := p.conn.Write(req.Bytes()); err != nil {
		t.Fatal(err)
	}
	if got := p.page(t, 3); !bytes.Equal(got, pagePattern(0)) {
		t.Fatal("the page queued ahead of the refusal arrived corrupted")
	}
	p.refused(t, proto.TAck)
}

// TestServerCloseSeversIdleAndBusyConnections: Close returns with one
// connection idle and one mid-stream with more gets queued, and every
// goroutine the server started — accept loop, read loops, writers — is
// gone when it does.
func TestServerCloseSeversIdleAndBusyConnections(t *testing.T) {
	base := runtime.NumGoroutine()
	srv, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv.Store(0, pagePattern(0))
	srv.SetWireMbps(10) // ~6.5 ms per page
	idle := dialPeer(t, srv.Addr())
	busy := dialPeer(t, srv.Addr())
	for id := uint64(1); id <= 8; id++ {
		get := fullGet(id)
		get.Policy, get.SubpageSize = proto.PolicyPipelined, 1024
		if err := busy.w.SendGetPageV2(get); err != nil {
			t.Fatal(err)
		}
	}
	busy.next(t, proto.TSubpageBatch) // the writer is streaming the first reply
	within(t, 5*time.Second, "Close", func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	})
	for _, p := range []*servePeer{idle, busy} {
		for {
			if _, err := p.r.Next(); err != nil {
				break // severed, after whatever was already in flight
			}
		}
	}
	waitForGoroutines(t, base)
}
