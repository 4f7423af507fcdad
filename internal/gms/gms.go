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
	"math/bits"

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

// Cluster is the global memory: a directory plus per-node occupancy.
//
// The directory is an open-addressed hash table, as memmodel.PageTable's:
// a slot array whose length is a power of two of at least twice the pages
// it holds (so a probe always meets an empty slot), Fibonacci hashing,
// linear probing, and backward-shift deletion, which leaves no tombstones
// behind. It grows by doubling and never shrinks. A scan of the slots meets
// the pages in no particular order, so every decision taken from one breaks
// ties by epoch, which is unique.
type Cluster struct {
	cfg   Config
	slots []slot // len a power of two >= 2*pages
	pages int    // occupied slots
	shift uint   // 64 - log2(len(slots)): the hash's top bits pick the home slot
	load  []int  // pages stored per node
	clock int64

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

// slot is one directory entry: where a page lives and when it entered
// global memory. The clock stamps from 1, so epoch 0 marks an empty slot.
type slot struct {
	page  memmodel.PageID
	epoch int64
	node  NodeID
}

// minSlots is the directory's smallest table.
const minSlots = 64

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
	slots := c.slots
	if slots == nil {
		slots = make([]slot, minSlots)
	} else if c.pages > 0 {
		clear(slots)
	}
	load := append(c.load[:0], make([]int, cfg.Nodes)...)
	alive := c.alive[:0]
	for range cfg.Nodes {
		alive = append(alive, true)
	}
	*c = Cluster{cfg: cfg, slots: slots, shift: shiftFor(len(slots)), load: load, alive: alive, aliveCount: cfg.Nodes}
}

// shiftFor returns the hash shift of a table of n slots, n a power of two.
func shiftFor(n int) uint {
	return uint(64 - bits.TrailingZeros(uint(n)))
}

// home is the slot a page's probe starts at (Fibonacci hashing).
func (c *Cluster) home(page memmodel.PageID) int {
	return int(uint64(page) * 0x9e3779b97f4a7c15 >> c.shift)
}

// find returns the index of page's slot, or of the empty slot that ends its
// probe when it is not in global memory.
func (c *Cluster) find(page memmodel.PageID) (int, bool) {
	mask := len(c.slots) - 1
	for i := c.home(page); ; i = (i + 1) & mask {
		if s := &c.slots[i]; s.epoch == 0 || s.page == page {
			return i, s.epoch != 0
		}
	}
}

// reserve grows the table, if need be, so that n more pages keep it at most
// half full.
func (c *Cluster) reserve(n int) {
	size := len(c.slots)
	for 2*(c.pages+n) > size {
		size *= 2
	}
	if size == len(c.slots) {
		return
	}
	old := c.slots
	c.slots, c.shift = make([]slot, size), shiftFor(size)
	for _, s := range old {
		if s.epoch != 0 {
			i, _ := c.find(s.page)
			c.slots[i] = s
		}
	}
}

// put stores page on node in the empty slot i that ends its probe, stamping
// it with the next epoch.
func (c *Cluster) put(i int, page memmodel.PageID, node NodeID) {
	c.clock++
	c.slots[i] = slot{page: page, epoch: c.clock, node: node}
	c.pages++
	c.load[node]++
}

// remove empties slot i by backward shift: each later entry of the probe
// cluster moves into the hole when the hole lies on its probe path — at or
// after its home slot, cyclically — which keeps every probe unbroken. The
// node's load drops with it.
func (c *Cluster) remove(i int) {
	c.load[c.slots[i].node]--
	c.pages--
	mask := len(c.slots) - 1
	for j := (i + 1) & mask; c.slots[j].epoch != 0; j = (j + 1) & mask {
		if h := c.home(c.slots[j].page); (j-h)&mask >= (j-i)&mask {
			c.slots[i] = c.slots[j]
			i = j
		}
	}
	c.slots[i] = slot{}
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
	// Collect, then delete: a deletion shifts later entries back, so one
	// pass that deleted as it went could skip one.
	var gone []memmodel.PageID
	for _, s := range c.slots {
		if s.epoch != 0 && s.node == n {
			gone = append(gone, s.page)
		}
	}
	for _, p := range gone {
		i, _ := c.find(p)
		c.remove(i)
	}
	c.DroppedPages += int64(len(gone))
	return len(gone)
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
	c.reserve(len(pages))
	for i, p := range pages {
		c.put(c.absent(p), p, targets[i%len(targets)])
	}
}

// Lookup reports which node stores page without changing any state.
func (c *Cluster) Lookup(page memmodel.PageID) (NodeID, bool) {
	i, ok := c.find(page)
	return c.slots[i].node, ok
}

// Fetch performs a getpage: it returns the node storing page and removes
// the global copy (the page migrates to the requester's local memory). The
// second result is false when the page is not in network memory and must be
// read from disk.
func (c *Cluster) Fetch(page memmodel.PageID) (NodeID, bool) {
	i, ok := c.find(page)
	if !ok {
		c.Misses++
		return 0, false
	}
	node := c.slots[i].node
	c.remove(i)
	c.Hits++
	return node, true
}

// Store performs a putpage: an evicted page, which must not be in global
// memory already, enters it on the least-loaded node. If every node is at
// capacity, the globally oldest page is discarded first. It returns the
// chosen node.
func (c *Cluster) Store(page memmodel.PageID) NodeID {
	i := c.absent(page)
	if c.aliveCount == 0 {
		// Every donor is down: the eviction is lost, exactly as in the
		// no-idle-nodes baseline (which counts neither a store nor a
		// discard).
		return 0
	}
	node := c.leastLoaded()
	if c.cfg.GlobalPagesPerNode > 0 && c.load[node] >= c.cfg.GlobalPagesPerNode {
		c.discardOldestOn(-1)
		node = c.leastLoaded()
		i, _ = c.find(page) // the discard may have shifted page's probe
	}
	c.put(i, page, node)
	c.Stores++
	return node
}

// absent returns the empty slot that ends page's probe, with room reserved
// for it, and panics when page is in global memory: a putpage of a page the
// directory holds would give it two homes.
func (c *Cluster) absent(page memmodel.PageID) int {
	c.reserve(1)
	i, ok := c.find(page)
	if ok {
		panic(fmt.Sprintf("gms: page %d already in global memory", page))
	}
	return i
}

// Size returns the number of pages in global memory.
func (c *Cluster) Size() int { return c.pages }

// Load returns the number of pages stored on node.
func (c *Cluster) Load(node NodeID) int { return c.load[node] }

// leastLoaded returns the alive node with the fewest stored pages. It must
// not be called with every node dead.
func (c *Cluster) leastLoaded() NodeID {
	best, least := NodeID(-1), 0
	alive := c.alive[:len(c.load)]
	for i, l := range c.load {
		if alive[i] && (best < 0 || l < least) {
			best, least = NodeID(i), l
		}
	}
	if best < 0 {
		panic("gms: leastLoaded with no alive nodes")
	}
	return best
}

// discardOldestOn drops the oldest page stored on node or, when node is
// negative, in all of global memory: the simplified global-LRU replacement,
// in which the page with the smallest epoch leaves global memory (its next
// fault goes to disk).
func (c *Cluster) discardOldestOn(node NodeID) {
	victim := -1
	for i, s := range c.slots {
		if s.epoch != 0 && (node < 0 || s.node == node) && (victim < 0 || s.epoch < c.slots[victim].epoch) {
			victim = i
		}
	}
	if victim < 0 {
		return
	}
	c.remove(victim)
	c.Discards++
}
