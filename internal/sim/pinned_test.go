package sim

import (
	"reflect"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/trace"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// TestClusterResultsPinned holds RunCluster to every ClusterResult field —
// each node's whole Result and the shared cache's counters — that the
// Cluster and Reliability experiments' configs gave at scale 0.05 when every
// node stepped each reference of its turn: epoch placement into bounded
// donations (with discards once four nodes overflow them), a failure with a
// rejoin, failures mid-run and at time 0, and one at the makespan, which
// fires when the last node finds its trace ended. The failure times are the
// Reliability experiment's: fractions of the healthy makespan.
func TestClusterResultsPinned(t *testing.T) {
	app := trace.Modula3(0.05)
	cfg := func(active int, pol core.Policy, sub int, failures ...FailureEvent) ClusterConfig {
		apps := make([]*trace.App, active)
		for i := range apps {
			apps[i] = app
		}
		return ClusterConfig{Apps: apps, MemFraction: 0.5, Policy: pol, SubpageSize: sub,
			IdleNodes: 2, GlobalPagesPerIdle: app.TotalPages, UseEpoch: true, NodeFailures: failures}
	}
	const healthy = units.Ticks(20341710)
	mid, quarter := healthy/2, healthy/4
	cases := []struct {
		name string
		cfg  ClusterConfig
		want ClusterResult
	}{
		{"cluster: 4 active, eager 1K", cfg(4, core.Eager{}, 1024), ClusterResult{
			Nodes: []*Result{
				{AppName: "modula3@node0", Policy: "eager", Subpage: 1024, MemPages: 21, Events: 4350000, SpLatency: 9906739, PageWait: 4433129, DiskWait: 6583342, Runtime: 25273210, Faults: 203, RemoteFaults: 187, DiskFaults: 16, Evictions: 182, Canceled: 54, IOOverlap: 5260208, CompOverlap: 2310153, IOOverlapShare: 0.6948424256122, BytesMoved: 1531904},
				{AppName: "modula3@node1", Policy: "eager", Subpage: 1024, MemPages: 21, Events: 4350000, SpLatency: 10454743, PageWait: 5146446, DiskWait: 1750002, Runtime: 21701191, Faults: 203, RemoteFaults: 199, DiskFaults: 4, Evictions: 182, Canceled: 54, IOOverlap: 5315719, CompOverlap: 2399325, IOOverlapShare: 0.6890069583530567, BytesMoved: 1630208},
				{AppName: "modula3@node2", Policy: "eager", Subpage: 1024, MemPages: 21, Events: 4350000, SpLatency: 10454743, PageWait: 5146446, DiskWait: 1750002, Runtime: 21701191, Faults: 203, RemoteFaults: 199, DiskFaults: 4, Evictions: 182, Canceled: 54, IOOverlap: 5315719, CompOverlap: 2399325, IOOverlapShare: 0.6890069583530567, BytesMoved: 1630208},
				{AppName: "modula3@node3", Policy: "eager", Subpage: 1024, MemPages: 21, Events: 4350000, SpLatency: 10535109, PageWait: 5146446, DiskWait: 1416668, Runtime: 21448223, Faults: 203, RemoteFaults: 200, DiskFaults: 3, Evictions: 182, Canceled: 54, IOOverlap: 5413253, CompOverlap: 2338592, IOOverlapShare: 0.6983180133245698, BytesMoved: 1638400},
			},
			GlobalHits: 785, GlobalMisses: 27, Stores: 728, Discards: 38, Epochs: 3,
		}},
		{"cluster: 4 active, fullpage", cfg(4, core.FullPage{}, 8192), ClusterResult{
			Nodes: []*Result{
				{AppName: "modula3@node0", Policy: "fullpage", Subpage: 8192, MemPages: 21, Events: 4350000, SpLatency: 22924500, DiskWait: 6916676, Runtime: 34191176, Faults: 203, RemoteFaults: 186, DiskFaults: 17, Evictions: 182, BytesMoved: 1523712},
				{AppName: "modula3@node1", Policy: "fullpage", Subpage: 8192, MemPages: 21, Events: 4350000, SpLatency: 24773250, DiskWait: 1083334, Runtime: 30206584, Faults: 203, RemoteFaults: 201, DiskFaults: 2, Evictions: 182, BytesMoved: 1646592},
				{AppName: "modula3@node2", Policy: "fullpage", Subpage: 8192, MemPages: 21, Events: 4350000, SpLatency: 24773250, DiskWait: 1083334, Runtime: 30206584, Faults: 203, RemoteFaults: 201, DiskFaults: 2, Evictions: 182, BytesMoved: 1646592},
				{AppName: "modula3@node3", Policy: "fullpage", Subpage: 8192, MemPages: 21, Events: 4350000, SpLatency: 24773250, DiskWait: 1083334, Runtime: 30206584, Faults: 203, RemoteFaults: 201, DiskFaults: 2, Evictions: 182, BytesMoved: 1646592},
			},
			GlobalHits: 789, GlobalMisses: 23, Stores: 728, Discards: 30, Epochs: 3,
		}},
		{"reliability: healthy", cfg(2, core.Eager{}, 1024), ClusterResult{
			Nodes: []*Result{
				{AppName: "modula3@node0", Policy: "eager", Subpage: 1024, MemPages: 21, Events: 4350000, SpLatency: 10702915, PageWait: 5288795, Runtime: 20341710, Faults: 203, RemoteFaults: 203, Evictions: 182, Canceled: 54, IOOverlap: 5544733, CompOverlap: 2248458, IOOverlapShare: 0.7114842944308692, BytesMoved: 1662976},
				{AppName: "modula3@node1", Policy: "eager", Subpage: 1024, MemPages: 21, Events: 4350000, SpLatency: 10702915, PageWait: 5288795, Runtime: 20341710, Faults: 203, RemoteFaults: 203, Evictions: 182, Canceled: 54, IOOverlap: 5544733, CompOverlap: 2248458, IOOverlapShare: 0.7114842944308692, BytesMoved: 1662976},
			},
			GlobalHits: 406, Stores: 364, Epochs: 2,
		}},
		{"reliability: 1 donor dies at 25%, rejoins at 50%", cfg(2, core.Eager{}, 1024, FailureEvent{Node: 0, At: quarter, RejoinAt: mid}), ClusterResult{
			Nodes: []*Result{
				{AppName: "modula3@node0", Policy: "eager", Subpage: 1024, MemPages: 21, Events: 4350000, SpLatency: 10214358, PageWait: 5173003, DiskWait: 3916670, Runtime: 23654031, Faults: 203, RemoteFaults: 195, DiskFaults: 8, Evictions: 182, Canceled: 53, IOOverlap: 5032764, CompOverlap: 2427440, IOOverlapShare: 0.6746147960565153, BytesMoved: 1597440},
				{AppName: "modula3@node1", Policy: "eager", Subpage: 1024, MemPages: 21, Events: 4350000, SpLatency: 10235790, PageWait: 5101737, DiskWait: 3916670, Runtime: 23604197, Faults: 203, RemoteFaults: 195, DiskFaults: 8, Evictions: 182, Canceled: 53, IOOverlap: 5075917, CompOverlap: 2434121, IOOverlapShare: 0.6758843297464008, BytesMoved: 1597440},
			},
			GlobalHits: 390, GlobalMisses: 16, Stores: 364, Epochs: 2, DroppedPages: 20,
		}},
		{"reliability: both donors die at 50%", cfg(2, core.Eager{}, 1024, FailureEvent{Node: 0, At: mid}, FailureEvent{Node: 1, At: mid}), ClusterResult{
			Nodes: []*Result{
				{AppName: "modula3@node0", Policy: "eager", Subpage: 1024, MemPages: 21, Events: 4350000, SpLatency: 4336731, PageWait: 3080898, DiskWait: 39666740, Runtime: 51434369, Faults: 203, RemoteFaults: 89, DiskFaults: 114, Evictions: 182, Canceled: 21, IOOverlap: 1666711, CompOverlap: 1343523, IOOverlapShare: 0.5536815410363447, BytesMoved: 729088},
				{AppName: "modula3@node1", Policy: "eager", Subpage: 1024, MemPages: 21, Events: 4350000, SpLatency: 4336731, PageWait: 3080898, DiskWait: 39666740, Runtime: 51434369, Faults: 203, RemoteFaults: 89, DiskFaults: 114, Evictions: 182, Canceled: 21, IOOverlap: 1666711, CompOverlap: 1343523, IOOverlapShare: 0.5536815410363447, BytesMoved: 729088},
			},
			GlobalHits: 178, GlobalMisses: 228, Stores: 136, Epochs: 1, DroppedPages: 42,
		}},
		{"reliability: both donors die at 0", cfg(2, core.Eager{}, 1024, FailureEvent{Node: 0}, FailureEvent{Node: 1}), ClusterResult{
			Nodes: []*Result{
				{AppName: "modula3@node0", Policy: "eager", Subpage: 1024, MemPages: 21, Events: 4350000, DiskWait: 71000130, Runtime: 75350130, Faults: 203, DiskFaults: 203, Evictions: 182},
				{AppName: "modula3@node1", Policy: "eager", Subpage: 1024, MemPages: 21, Events: 4350000, DiskWait: 71000130, Runtime: 75350130, Faults: 203, DiskFaults: 203, Evictions: 182},
			},
			GlobalMisses: 406, Epochs: 1, DroppedPages: 84,
		}},
		{"reliability: 1 donor dies at the makespan", cfg(2, core.Eager{}, 1024, FailureEvent{Node: 0, At: healthy}), ClusterResult{
			Nodes: []*Result{
				{AppName: "modula3@node0", Policy: "eager", Subpage: 1024, MemPages: 21, Events: 4350000, SpLatency: 10702915, PageWait: 5288795, Runtime: 20341710, Faults: 203, RemoteFaults: 203, Evictions: 182, Canceled: 54, IOOverlap: 5544733, CompOverlap: 2248458, IOOverlapShare: 0.7114842944308692, BytesMoved: 1662976},
				{AppName: "modula3@node1", Policy: "eager", Subpage: 1024, MemPages: 21, Events: 4350000, SpLatency: 10702915, PageWait: 5288795, Runtime: 20341710, Faults: 203, RemoteFaults: 203, Evictions: 182, Canceled: 54, IOOverlap: 5544733, CompOverlap: 2248458, IOOverlapShare: 0.7114842944308692, BytesMoved: 1662976},
			},
			GlobalHits: 406, Stores: 364, Epochs: 2, DroppedPages: 26,
		}},
	}
	for _, c := range cases {
		got := RunCluster(c.cfg)
		if reflect.DeepEqual(*got, c.want) {
			continue
		}
		for i, n := range got.Nodes {
			if i >= len(c.want.Nodes) || !reflect.DeepEqual(*n, *c.want.Nodes[i]) {
				t.Errorf("%s: node %d:\n got %+v", c.name, i, *n)
			}
		}
		agg, want := *got, c.want
		agg.Nodes, want.Nodes = nil, nil
		t.Errorf("%s:\n got %+v\nwant %+v", c.name, agg, want)
	}
}
