package remote

import (
	"bytes"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// TestPolicyWireRoundTrip holds the two places the wire-policy set still
// touches to each other: proto's Policy* constants define the byte on the
// wire, core's table is indexed by it and owns the names. remote is the
// package that sees both, so a constant that drifts off its table index
// fails here instead of at the first fault planned with the wrong policy.
func TestPolicyWireRoundTrip(t *testing.T) {
	for b, name := range map[uint8]string{
		proto.PolicyFullPage: "fullpage", proto.PolicyLazy: "lazy",
		proto.PolicyEager: "eager", proto.PolicyPipelined: "pipelined",
	} {
		if pol, err := core.WirePolicy(b); err != nil || pol.Name() != name {
			t.Errorf("wire byte %d resolves to %v, %v; want %s", b, pol, err, name)
		}
		if back, err := core.WireByte(name); err != nil || back != b {
			t.Errorf("WireByte(%q) = %d, %v; want %d", name, back, err, b)
		}
	}
}

// TestClientPrefetchLearnsStride drives the learned prefetcher end to end:
// a strided reader (10 MinSubpage blocks per step, a stride no static
// pipeline window covers) against a real server must converge to carrying
// predictions in its want bitmaps and fault strictly less than the same
// walk under plain lazy fetching — with every byte still correct.
func TestClientPrefetchLearnsStride(t *testing.T) {
	const pages = 8
	const stride = 10 * units.MinSubpage

	walk := func(c *Client) int64 {
		buf := make([]byte, 64)
		for addr := uint64(0); addr+64 <= pages*units.PageSize; addr += stride {
			if err := c.Read(buf, addr); err != nil {
				t.Fatal(err)
			}
			page, off := addr/units.PageSize, addr%units.PageSize
			if want := pagePattern(page)[off : off+64]; !bytes.Equal(buf, want) {
				t.Fatalf("wrong bytes at addr %d", addr)
			}
		}
		return c.Stats().Faults
	}

	dir, _ := testCluster(t, pages)
	lazyFaults := walk(testClient(t, dir, ClientConfig{Policy: proto.PolicyLazy, SubpageSize: 1024}))

	dir2, _ := testCluster(t, pages)
	cp := testClient(t, dir2, ClientConfig{Prefetch: true, SubpageSize: 1024})
	prefFaults := walk(cp)

	st := cp.Stats()
	if st.Predicted == 0 {
		t.Fatal("prefetch client never carried a prediction in a want bitmap")
	}
	if prefFaults >= lazyFaults {
		t.Fatalf("prefetch client faulted %d times, lazy baseline %d; predictions saved nothing",
			prefFaults, lazyFaults)
	}
}
