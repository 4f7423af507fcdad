package sim

import (
	"fmt"
	"sort"

	"github.com/gms-sim/gmsubpage/internal/core"
	"github.com/gms-sim/gmsubpage/internal/gms"
	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/trace"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// FailureEvent schedules the failure of one idle (donor) node in a
// simulated cluster: node Node dies at simulated time At — its donated
// pages vanish, so refaults on them fall through to disk — and, when
// RejoinAt > At, rejoins with empty memory at RejoinAt. RejoinAt <= At
// means the node never comes back. The schedule is part of the simulation
// input, so runs are deterministic: same config, same failures, same
// output, at any worker-pool width.
type FailureEvent struct {
	Node     int
	At       units.Ticks
	RejoinAt units.Ticks
}

// ClusterConfig describes a multi-node run: several active workstations,
// each running its own workload in reduced local memory, sharing the idle
// nodes' memory as one global cache (the full GMS scenario the paper's
// single-faulting-node experiments sit inside).
type ClusterConfig struct {
	// Apps run one per active node, each in a disjoint slice of the
	// global page space.
	Apps []*trace.App

	// MemFraction sizes each active node's local memory relative to its
	// own workload footprint.
	MemFraction float64

	// Policy and SubpageSize apply to every node.
	Policy      core.Policy
	SubpageSize int

	// IdleNodes donate memory; GlobalPagesPerIdle is each one's
	// capacity in pages (0 = unbounded, the paper's warm-cache
	// assumption). IdleNodes <= 0 runs the all-disk baseline: no node
	// donates memory and every refault misses the (empty) global cache.
	IdleNodes          int
	GlobalPagesPerIdle int

	// UseEpoch selects GMS's epoch-based weighted placement instead of
	// least-loaded placement.
	UseEpoch bool

	// ColdStart leaves the global cache empty.
	ColdStart bool

	// NodeFailures schedules idle-node deaths (and optional rejoins)
	// against the simulated clock. Events at time 0 apply after warm-up
	// but before the first reference, so failing every node at 0 is
	// exactly the all-disk baseline. Requires IdleNodes > 0. Events are
	// applied at batch boundaries (the interleaving granularity), which is
	// also what keeps them deterministic.
	NodeFailures []FailureEvent

	// BatchRefs is the interleaving granularity in references
	// (default 4096).
	BatchRefs int
}

// ClusterResult aggregates a multi-node run.
type ClusterResult struct {
	Nodes []*Result

	// Global-cache behaviour.
	GlobalHits   int64
	GlobalMisses int64
	Stores       int64
	Discards     int64
	Epochs       int64
	// DroppedPages counts donated pages lost to scheduled node failures
	// (distinct from Discards: a crash is not a replacement decision).
	DroppedPages int64
}

// TotalRuntime returns the slowest node's runtime (the cluster makespan).
func (cr *ClusterResult) TotalRuntime() units.Ticks {
	var maxRt units.Ticks
	for _, r := range cr.Nodes {
		if r.Runtime > maxRt {
			maxRt = r.Runtime
		}
	}
	return maxRt
}

// DiskFaults sums disk faults across nodes: the cost of global-memory
// pressure.
func (cr *ClusterResult) DiskFaults() int64 {
	var n int64
	for _, r := range cr.Nodes {
		n += r.DiskFaults
	}
	return n
}

// nodeSpacing separates the nodes' address spaces.
const nodeSpacing = uint64(1) << 40

// RunCluster executes every node's workload against one shared global
// cache, interleaving nodes in simulated-time order so their evictions
// and fetches contend realistically.
func RunCluster(cfg ClusterConfig) *ClusterResult {
	if len(cfg.Apps) == 0 {
		panic("sim: RunCluster needs at least one app")
	}
	if cfg.BatchRefs <= 0 {
		cfg.BatchRefs = 4096
	}
	if len(cfg.NodeFailures) > 0 && cfg.IdleNodes <= 0 {
		panic("sim: NodeFailures needs idle nodes to fail")
	}
	for _, ev := range cfg.NodeFailures {
		if ev.Node < 0 || ev.Node >= cfg.IdleNodes {
			panic(fmt.Sprintf("sim: FailureEvent node %d out of range [0,%d)", ev.Node, cfg.IdleNodes))
		}
	}
	gcfg := gms.Config{Nodes: cfg.IdleNodes, GlobalPagesPerNode: cfg.GlobalPagesPerIdle}
	var shared GlobalCache
	var base *gms.Cluster
	var epochs *int64
	var nog *noGlobal
	switch {
	case cfg.IdleNodes <= 0:
		nog = &noGlobal{}
		shared = nog
	case cfg.UseEpoch:
		ec := gms.NewEpochCluster(gcfg, gms.DefaultEpochConfig())
		shared, base = ec, ec.Cluster
		epochs = &ec.Epoch.Epochs
	default:
		c := gms.NewCluster(gcfg)
		shared, base = c, c
	}

	// Build one runner per node, its addresses offset into a private
	// slice of the page space.
	nodes := make([]*clusterNode, len(cfg.Apps))
	for i, app := range cfg.Apps {
		i, app := i, app
		delta := uint64(i+1) * nodeSpacing
		src := &TraceSource{
			Name:      fmt.Sprintf("%s@node%d", app.Name, i),
			Pages:     app.TotalPages,
			NewReader: func() trace.Reader { return trace.Offset(app.NewReader(), delta) },
			// The node's footprint is the app's memoized footprint shifted
			// into its address slice (nodeSpacing is page-aligned), sparing
			// one full trace scan per node at warm-up.
			Touched: func() []uint64 {
				base := trace.TouchedPages(app)
				out := make([]uint64, len(base))
				for j, p := range base {
					out[j] = p + delta/units.PageSize
				}
				return out
			},
		}
		rcfg := Config{
			Source:      src,
			MemFraction: cfg.MemFraction,
			Policy:      cfg.Policy,
			SubpageSize: cfg.SubpageSize,
			Global:      shared,
		}
		nodes[i] = &clusterNode{r: newRunner(rcfg), rd: runsOf(src.NewReader())}
	}

	// Warm the shared cache with every node's pages unless cold (or
	// there is no cache to warm).
	if !cfg.ColdStart && base != nil {
		for _, n := range nodes {
			base.Warm(n.r.pagesTouched())
		}
	}

	// Expand the failure schedule into a time-ordered action list. Ties
	// break fail-before-rejoin, then by node index, so the application
	// order is fully determined by the config.
	type liveAction struct {
		at     units.Ticks
		rejoin bool
		node   int
	}
	var actions []liveAction
	for _, ev := range cfg.NodeFailures {
		actions = append(actions, liveAction{at: ev.At, node: ev.Node})
		if ev.RejoinAt > ev.At {
			actions = append(actions, liveAction{at: ev.RejoinAt, rejoin: true, node: ev.Node})
		}
	}
	sort.Slice(actions, func(i, j int) bool {
		a, b := actions[i], actions[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.rejoin != b.rejoin {
			return !a.rejoin
		}
		return a.node < b.node
	})
	nextAction := 0

	// Interleave: always advance the node with the smallest clock.
	for {
		var next *clusterNode
		for _, n := range nodes {
			if n.done {
				continue
			}
			if next == nil || n.r.now < next.r.now {
				next = n
			}
		}
		if next == nil {
			break
		}
		// Apply every failure/rejoin due by the global clock (= the
		// chosen node's time, the minimum over runners). Actions beyond
		// the makespan never fire.
		for nextAction < len(actions) && actions[nextAction].at <= next.r.now {
			act := actions[nextAction]
			nextAction++
			if act.rejoin {
				base.ReviveNode(gms.NodeID(act.node))
			} else {
				base.FailNode(gms.NodeID(act.node))
			}
		}
		// Run one batch of references on the chosen node; a node found at
		// the end of its trace leaves the interleave.
		next.done = !next.turn(cfg.BatchRefs)
	}

	res := &ClusterResult{}
	for _, n := range nodes {
		n.r.finishRun()
		res.Nodes = append(res.Nodes, n.r.res)
	}
	if base != nil {
		res.GlobalHits = base.Hits
		res.GlobalMisses = base.Misses
		res.Stores = base.Stores
		res.Discards = base.Discards
		res.DroppedPages = base.DroppedPages
	} else {
		res.GlobalMisses = nog.misses
	}
	if epochs != nil {
		res.Epochs = *epochs
	}
	return res
}

// clusterNode is one active node of a RunCluster: its runner, its stream as
// page runs, and its turn: the references left in it and what is left of
// the run a turn's end split.
type clusterNode struct {
	r    *runner
	rd   runReader
	done bool

	left   int
	page   uint64
	offs   []uint16
	blocks uint32 // the whole run's
}

// turn replays the node's next budget references and reports whether there
// were any.
func (n *clusterNode) turn(budget int) bool {
	n.left = budget
	n.r.replayRuns(n)
	return n.left < budget
}

// NextRun hands replayRuns the node's runs until its turn's budget is spent.
// A run the budget ends inside is split: its tail opens the node's next
// turn, with the whole run's blocks, which replayRuns allows.
func (n *clusterNode) NextRun() (page uint64, offs []uint16, blocks uint32) {
	if n.left == 0 {
		return 0, nil, 0
	}
	if len(n.offs) == 0 {
		if n.page, n.offs, n.blocks = n.rd.NextRun(); len(n.offs) == 0 {
			return 0, nil, 0
		}
	}
	k := min(n.left, len(n.offs))
	offs, n.offs = n.offs[:k], n.offs[k:]
	n.left -= k
	return n.page, offs, n.blocks
}

// runsOf returns rd's page runs: its own when it has a page-run index, else
// each maximal same-page stretch of what it reads (trace.Pack).
func runsOf(rd trace.Reader) runReader {
	if rr, ok := rd.(runReader); ok {
		return rr
	}
	return &refRuns{rd: rd, buf: make([]trace.Ref, 8192)}
}

// refRuns cuts a reader without a page-run index into page runs. A run the
// end of a Read splits comes as two.
type refRuns struct {
	rd       trace.Reader
	buf      []trace.Ref
	pos, end int
	offs     []uint16 // the last run's, reused by the next
}

func (a *refRuns) NextRun() (page uint64, offs []uint16, blocks uint32) {
	if a.pos == a.end {
		if a.pos, a.end = 0, a.rd.Read(a.buf); a.end == 0 {
			return 0, nil, 0
		}
	}
	page = a.buf[a.pos].Addr / units.PageSize
	offs = a.offs[:0]
	for ; a.pos < a.end && a.buf[a.pos].Addr/units.PageSize == page; a.pos++ {
		v := trace.Pack(a.buf[a.pos])
		offs = append(offs, v)
		blocks |= trace.Block(v)
	}
	a.offs = offs
	return page, offs, blocks
}

// noGlobal is the all-disk baseline's stand-in for network memory: with no
// idle nodes there is nothing to fetch from or store to, so every refault
// falls through to disk and every eviction is simply lost.
type noGlobal struct{ misses int64 }

func (g *noGlobal) Fetch(memmodel.PageID) (gms.NodeID, bool) { g.misses++; return 0, false }

func (g *noGlobal) Store(memmodel.PageID) gms.NodeID { return 0 }
