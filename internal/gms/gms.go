// Package gms implements the global memory management substrate the
// subpage system runs on (Feeley et al., SOSP '95): cluster nodes donate
// idle memory as a "global cache" that holds pages evicted from other
// nodes' local memories, with a global cache directory (GCD) that maps each
// page to the node storing it.
//
// The simulator uses this package to answer, for every fault, whether the
// page is in network memory (and on which node) or must come from disk, and
// to place evicted pages. Replacement across the cluster approximates
// global LRU: when global memory is full, the globally oldest page is
// discarded, as in GMS's epoch-based algorithm.
package gms

import (
	"fmt"

	"github.com/gms-sim/gmsubpage/internal/memmodel"
)

// NodeID identifies a cluster node. The faulting workstation is by
// convention not a member of the serving set.
type NodeID int

// Config shapes a cluster.
type Config struct {
	// Nodes is the number of idle nodes donating memory.
	Nodes int
	// GlobalPagesPerNode is each node's donated capacity in pages;
	// 0 means unbounded (the paper's warm-cache assumption: network
	// memory always has room).
	GlobalPagesPerNode int
}

// DefaultConfig matches the paper's environment: a handful of idle
// workstations with ample free memory.
func DefaultConfig() Config { return Config{Nodes: 8, GlobalPagesPerNode: 0} }

// entry records where a page lives and when it entered global memory.
type entry struct {
	node  NodeID
	epoch int64
}

// Cluster is the global memory: a directory plus per-node occupancy.
type Cluster struct {
	cfg       Config
	directory map[memmodel.PageID]entry
	load      []int // pages stored per node
	clock     int64

	// Node liveness: a failed node's donated pages vanish (refaults go to
	// disk) and placement skips it until it rejoins. With every node dead
	// the cluster degrades to the all-disk baseline: fetches miss and
	// stores are dropped uncounted, exactly like the no-idle-nodes case.
	alive      []bool
	aliveCount int

	// Statistics.
	Hits     int64 // getpage satisfied from global memory
	Misses   int64 // getpage fell through to disk
	Stores   int64 // putpage accepted
	Discards int64 // globally-oldest pages dropped to make room
	// DroppedPages counts pages lost to node failures — not Discards,
	// because a crash is not a replacement decision.
	DroppedPages int64
}

// EpochCluster couples a Cluster with epoch-weighted putpage placement:
// Store goes through the epoch manager, everything else through the
// cluster.
type EpochCluster struct {
	*Cluster
	Epoch *EpochManager
}

// NewEpochCluster builds a cluster managed by the epoch algorithm.
func NewEpochCluster(cfg Config, ecfg EpochConfig) *EpochCluster {
	c := NewCluster(cfg)
	return &EpochCluster{Cluster: c, Epoch: NewEpochManager(c, ecfg)}
}

// Store places an evicted page using the current epoch's weights.
func (e *EpochCluster) Store(page memmodel.PageID) NodeID { return e.Epoch.Place(page) }

// NewCluster returns an empty cluster.
func NewCluster(cfg Config) *Cluster {
	c := &Cluster{}
	c.Reset(cfg)
	return c
}

// Reset empties the cluster and reshapes it to cfg with every node alive, as
// NewCluster(cfg) would, keeping its directory's and node tables' storage.
func (c *Cluster) Reset(cfg Config) {
	if cfg.Nodes <= 0 {
		panic("gms: cluster needs at least one node")
	}
	dir := c.directory
	if dir == nil {
		dir = make(map[memmodel.PageID]entry)
	}
	clear(dir)
	load := append(c.load[:0], make([]int, cfg.Nodes)...)
	alive := c.alive[:0]
	for range cfg.Nodes {
		alive = append(alive, true)
	}
	*c = Cluster{cfg: cfg, directory: dir, load: load, alive: alive, aliveCount: cfg.Nodes}
}

// FailNode kills node n: its donated pages vanish from global memory so
// subsequent refaults fall through to disk, and placement skips it. The
// number of pages dropped is returned and accumulated in DroppedPages.
// Failing an already-dead node is a no-op.
func (c *Cluster) FailNode(n NodeID) int {
	if n < 0 || int(n) >= c.cfg.Nodes {
		panic(fmt.Sprintf("gms: FailNode(%d) with %d nodes", n, c.cfg.Nodes))
	}
	if !c.alive[n] {
		return 0
	}
	c.alive[n] = false
	c.aliveCount--
	dropped := 0
	for p, e := range c.directory {
		if e.node == n {
			delete(c.directory, p)
			dropped++
		}
	}
	c.load[n] = 0
	c.DroppedPages += int64(dropped)
	return dropped
}

// ReviveNode rejoins node n with empty memory. Reviving a live node is a
// no-op.
func (c *Cluster) ReviveNode(n NodeID) {
	if n < 0 || int(n) >= c.cfg.Nodes {
		panic(fmt.Sprintf("gms: ReviveNode(%d) with %d nodes", n, c.cfg.Nodes))
	}
	if c.alive[n] {
		return
	}
	c.alive[n] = true
	c.aliveCount++
}

// AliveNodes reports how many donor nodes are currently alive.
func (c *Cluster) AliveNodes() int { return c.aliveCount }

// Warm preloads pages into global memory, spread round-robin across the
// alive nodes: the paper's "warm (global) cache situation, that is, all
// pages are assumed to initially reside in remote memory".
func (c *Cluster) Warm(pages []memmodel.PageID) {
	if c.aliveCount == 0 {
		return
	}
	targets := make([]NodeID, 0, c.aliveCount)
	for i, ok := range c.alive {
		if ok {
			targets = append(targets, NodeID(i))
		}
	}
	for i, p := range pages {
		n := targets[i%len(targets)]
		c.clock++
		c.directory[p] = entry{node: n, epoch: c.clock}
		c.load[n]++
	}
}

// Lookup reports which node stores page without changing any state.
func (c *Cluster) Lookup(page memmodel.PageID) (NodeID, bool) {
	e, ok := c.directory[page]
	return e.node, ok
}

// Fetch performs a getpage: it returns the node storing page and removes
// the global copy (the page migrates to the requester's local memory). The
// second result is false when the page is not in network memory and must be
// read from disk.
func (c *Cluster) Fetch(page memmodel.PageID) (NodeID, bool) {
	e, ok := c.directory[page]
	if !ok {
		c.Misses++
		return 0, false
	}
	delete(c.directory, page)
	c.load[e.node]--
	c.Hits++
	return e.node, true
}

// Store performs a putpage: an evicted page enters global memory on the
// least-loaded node. If every node is at capacity, the globally oldest
// page is discarded first. It returns the chosen node.
func (c *Cluster) Store(page memmodel.PageID) NodeID {
	if _, ok := c.directory[page]; ok {
		panic(fmt.Sprintf("gms: page %d already in global memory", page))
	}
	if c.aliveCount == 0 {
		// Every donor is down: the eviction is lost, exactly as in the
		// no-idle-nodes baseline (which counts neither a store nor a
		// discard).
		return 0
	}
	node := c.leastLoaded()
	if c.cfg.GlobalPagesPerNode > 0 && c.load[node] >= c.cfg.GlobalPagesPerNode {
		c.discardOldest()
		node = c.leastLoaded()
	}
	c.clock++
	c.directory[page] = entry{node: node, epoch: c.clock}
	c.load[node]++
	c.Stores++
	return node
}

// Size returns the number of pages in global memory.
func (c *Cluster) Size() int { return len(c.directory) }

// Load returns the number of pages stored on node.
func (c *Cluster) Load(node NodeID) int { return c.load[node] }

// leastLoaded returns the alive node with the fewest stored pages. It must
// not be called with every node dead.
func (c *Cluster) leastLoaded() NodeID {
	best := NodeID(-1)
	for i := 0; i < len(c.load); i++ {
		if !c.alive[i] {
			continue
		}
		if best < 0 || c.load[i] < c.load[best] {
			best = NodeID(i)
		}
	}
	if best < 0 {
		panic("gms: leastLoaded with no alive nodes")
	}
	return best
}

// discardOldest implements the simplified global-LRU replacement: the page
// with the smallest epoch leaves global memory (its next fault goes to
// disk).
func (c *Cluster) discardOldest() {
	var victim memmodel.PageID
	var victimEpoch int64 = -1
	for p, e := range c.directory {
		if victimEpoch < 0 || e.epoch < victimEpoch {
			victim, victimEpoch = p, e.epoch
		}
	}
	if victimEpoch < 0 {
		return
	}
	e := c.directory[victim]
	delete(c.directory, victim)
	c.load[e.node]--
	c.Discards++
}
