package gmsubpage

import (
	"errors"
	"fmt"

	"github.com/gms-sim/gmsubpage/internal/sim"
	"github.com/gms-sim/gmsubpage/internal/trace"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// ClusterConfig describes a simulated multi-node GMS cluster: several
// active workstations, each running a workload in reduced local memory,
// sharing a finite pool of idle-node memory managed with epoch-based
// global replacement.
type ClusterConfig struct {
	// Workloads names one workload per active node (see Workloads()).
	Workloads []string
	// Scale is the per-workload trace scale (default 0.25; negative or
	// NaN is an error).
	Scale float64
	// MemoryFraction sizes each node's local memory relative to its own
	// workload footprint (default 0.5; negative or NaN is an error).
	MemoryFraction float64
	// Policy and SubpageSize apply to every node (defaults Eager, 1024).
	Policy      Policy
	SubpageSize int
	// IdleNodes donate memory (default 2); DonatedPagesPerIdle is each
	// one's capacity in 8 KB pages (0 = unbounded). IdleNodes == 0 means
	// "use the default" — to run the all-disk baseline with no network
	// memory at all, set NoIdleNodes (or, equivalently, IdleNodes: -1).
	IdleNodes           int
	DonatedPagesPerIdle int
	// NoIdleNodes runs the cluster with zero idle nodes: no global cache,
	// every refault that misses local memory goes to disk. This is the
	// baseline the paper's speedups are measured against.
	NoIdleNodes bool
	// LeastLoaded disables GMS's epoch-weighted placement in favour of
	// simple least-loaded placement.
	LeastLoaded bool
	// NodeFailures schedules idle-node deaths against the simulated clock
	// (see FailureEvent). The schedule is part of the simulation input, so
	// runs stay deterministic. Incompatible with NoIdleNodes.
	NodeFailures []FailureEvent
}

// FailureEvent kills idle node Node at simulated time AtMs (milliseconds):
// its donated pages vanish from the global cache, so refaults on them fall
// through to disk — the paper's graceful-degradation story. When
// RejoinAtMs > AtMs the node rejoins with empty memory at that time;
// otherwise it stays dead. Events at 0 ms apply before the first
// reference, so failing every idle node at 0 reproduces the NoIdleNodes
// all-disk baseline exactly.
type FailureEvent struct {
	Node       int
	AtMs       float64
	RejoinAtMs float64
}

// NodeReport is one active node's outcome in a cluster run.
type NodeReport struct {
	Workload   string
	RuntimeMs  float64
	Faults     int64
	DiskFaults int64
	Evictions  int64
}

// ClusterReport aggregates a cluster run.
type ClusterReport struct {
	Nodes []NodeReport

	// MakespanMs is the slowest node's runtime.
	MakespanMs float64
	// DiskFaults counts refaults that fell through to disk because the
	// global cache had discarded the page.
	DiskFaults int64
	// Discards counts globally-oldest pages dropped for space.
	Discards int64
	// GlobalHits counts faults served from network memory.
	GlobalHits int64
	// Epochs counts replacement-epoch boundaries (0 with LeastLoaded).
	Epochs int64
	// DroppedPages counts donated pages lost to scheduled node failures.
	DroppedPages int64
}

// SimulateCluster runs every workload against one shared global memory,
// interleaved in simulated-time order.
func SimulateCluster(cfg ClusterConfig) (*ClusterReport, error) {
	if len(cfg.Workloads) == 0 {
		return nil, fmt.Errorf("gmsubpage: cluster needs at least one workload")
	}
	if err := errors.Join(nonNegative("Scale", cfg.Scale), nonNegative("MemoryFraction", cfg.MemoryFraction)); err != nil {
		return nil, err
	}
	if cfg.Scale == 0 {
		cfg.Scale = 0.25
	}
	if cfg.MemoryFraction == 0 {
		cfg.MemoryFraction = 0.5
	}
	if cfg.SubpageSize == 0 {
		cfg.SubpageSize = 1024
	}
	if cfg.NoIdleNodes || cfg.IdleNodes < 0 {
		cfg.IdleNodes = -1 // all-disk baseline: RunCluster gets no idle memory
	} else if cfg.IdleNodes == 0 {
		cfg.IdleNodes = 2
	}
	if len(cfg.NodeFailures) > 0 && cfg.IdleNodes < 0 {
		return nil, fmt.Errorf("gmsubpage: NodeFailures needs idle nodes to fail")
	}
	failures := make([]sim.FailureEvent, 0, len(cfg.NodeFailures))
	for _, ev := range cfg.NodeFailures {
		if ev.Node < 0 || ev.Node >= cfg.IdleNodes {
			return nil, fmt.Errorf("gmsubpage: FailureEvent node %d out of range [0,%d)", ev.Node, cfg.IdleNodes)
		}
		if ev.AtMs < 0 || ev.RejoinAtMs < 0 {
			return nil, fmt.Errorf("gmsubpage: FailureEvent times must be non-negative")
		}
		failures = append(failures, sim.FailureEvent{
			Node:     ev.Node,
			At:       units.FromMs(ev.AtMs).ToTicks(),
			RejoinAt: units.FromMs(ev.RejoinAtMs).ToTicks(),
		})
	}
	if !units.ValidSubpageSize(cfg.SubpageSize) {
		return nil, fmt.Errorf("gmsubpage: invalid subpage size %d", cfg.SubpageSize)
	}
	pol, err := policyFor(cfg.Policy)
	if err != nil {
		return nil, err
	}
	apps := make([]*trace.App, len(cfg.Workloads))
	for i, name := range cfg.Workloads {
		apps[i] = trace.ByName(name, cfg.Scale)
		if apps[i] == nil {
			return nil, fmt.Errorf("gmsubpage: unknown workload %q (have %v)", name, Workloads())
		}
	}
	res := sim.RunCluster(sim.ClusterConfig{
		Apps:               apps,
		MemFraction:        cfg.MemoryFraction,
		Policy:             pol,
		SubpageSize:        cfg.SubpageSize,
		IdleNodes:          cfg.IdleNodes,
		GlobalPagesPerIdle: cfg.DonatedPagesPerIdle,
		UseEpoch:           !cfg.LeastLoaded,
		NodeFailures:       failures,
	})
	out := &ClusterReport{
		MakespanMs:   res.TotalRuntime().Ms(),
		DiskFaults:   res.DiskFaults(),
		Discards:     res.Discards,
		GlobalHits:   res.GlobalHits,
		Epochs:       res.Epochs,
		DroppedPages: res.DroppedPages,
	}
	for _, n := range res.Nodes {
		out.Nodes = append(out.Nodes, NodeReport{
			Workload:   n.AppName,
			RuntimeMs:  n.Runtime.Ms(),
			Faults:     n.Faults,
			DiskFaults: n.DiskFaults,
			Evictions:  n.Evictions,
		})
	}
	return out, nil
}
