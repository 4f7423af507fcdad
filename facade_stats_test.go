package gmsubpage_test

import (
	"reflect"
	"testing"

	gmsubpage "github.com/gms-sim/gmsubpage"
	"github.com/gms-sim/gmsubpage/internal/remote"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// TestClientStatsCoversRemoteStats: every counter the client keeps reaches
// the facade under the same name, so a counter added to remote.Stats cannot
// silently stay internal.
func TestClientStatsCoversRemoteStats(t *testing.T) {
	facade := reflect.TypeOf(gmsubpage.ClientStats{})
	st := reflect.TypeOf(remote.Stats{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if k := f.Type.Kind(); k != reflect.Int64 && k != reflect.Int {
			continue // latency histograms: the facade reports their medians
		}
		if g, ok := facade.FieldByName(f.Name); !ok || g.Type != f.Type {
			t.Errorf("remote.Stats.%s (%v) has no ClientStats field of the same name and type", f.Name, f.Type)
		}
	}
}

// TestReplayReportsItsOwnLatencies: on a client that faulted before, a
// replay's medians cover the replay's faults alone. The earlier faults ran
// over a slow emulated link; the replay runs on raw loopback, so a median
// over the client's whole life would sit near the slow ones.
func TestReplayReportsItsOwnLatencies(t *testing.T) {
	dir, err := gmsubpage.StartDirectory("127.0.0.1:0", gmsubpage.DirectoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dir.Close()
	srv, err := gmsubpage.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pages, err := gmsubpage.WorkloadPages("gdb", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	const slow = 40 // faults before the replay, more than the replay takes
	srv.StoreRange(0, pages+slow)
	if err := srv.Register(dir.Addr()); err != nil {
		t.Fatal(err)
	}
	c, err := gmsubpage.DialClient(dir.Addr(), gmsubpage.ClientOptions{CachePages: pages, Policy: gmsubpage.Eager})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	srv.SetWireMbps(20) // ~3.3 ms a page
	buf := make([]byte, units.PageSize)
	for p := pages; p < pages+slow; p++ {
		if err := c.Read(buf, uint64(p)*units.PageSize); err != nil {
			t.Fatal(err)
		}
	}
	slowMedian := c.Stats().FullLatencyUs
	srv.SetWireMbps(0)
	rep, err := c.ReplayWorkload("gdb", 0.02, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults == 0 || rep.Faults >= slow {
		t.Fatalf("replay took %d faults, want 1..%d", rep.Faults, slow-1)
	}
	if rep.FullLatencyUs <= 0 || rep.FullLatencyUs > slowMedian/2 {
		t.Fatalf("replay's full-page median %.0f us, the slow faults' %.0f us: the report is not the replay's own", rep.FullLatencyUs, slowMedian)
	}
}
