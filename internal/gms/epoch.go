package gms

import (
	"sort"

	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/rng"
)

// This file implements the epoch-based global replacement algorithm of the
// underlying GMS system (Feeley et al., SOSP '95), which the subpage paper
// builds on. Time is divided into epochs; at each epoch boundary an
// initiator gathers every node's page-age summary and computes, for the
// coming epoch, the expected number of evictions M and per-node weights —
// the fraction of the globally-oldest M pages each node holds. During the
// epoch, putpage traffic is spread across nodes in proportion to those
// weights, so the cluster approximates global LRU without a directory
// lookup per eviction.

// EpochConfig shapes the replacement algorithm.
type EpochConfig struct {
	// EvictionsPerEpoch is M: how many putpages an epoch is sized for.
	EvictionsPerEpoch int
	// Seed makes weighted placement deterministic.
	Seed uint64
}

// DefaultEpochConfig mirrors the GMS paper's choice of sizing epochs to a
// few hundred replacements.
func DefaultEpochConfig() EpochConfig {
	return EpochConfig{EvictionsPerEpoch: 256, Seed: 0x9e37}
}

// EpochManager drives weighted putpage placement for a Cluster.
type EpochManager struct {
	cfg     EpochConfig
	cluster *Cluster
	rand    *rng.Rand

	weights   []float64 // per node, sums to 1
	remaining int       // putpages until the next epoch boundary

	// Stats.
	Epochs int64
}

// NewEpochManager wraps a cluster with epoch-based placement.
func NewEpochManager(cluster *Cluster, cfg EpochConfig) *EpochManager {
	if cfg.EvictionsPerEpoch <= 0 {
		cfg.EvictionsPerEpoch = DefaultEpochConfig().EvictionsPerEpoch
	}
	m := &EpochManager{
		cfg:     cfg,
		cluster: cluster,
		rand:    rng.New(cfg.Seed),
	}
	m.newEpoch()
	return m
}

// newEpoch recomputes weights from the cluster's age distribution: node i
// receives evictions in proportion to the share of the globally-oldest M
// pages it stores. A node holding none of the old pages receives none
// (its memory is "hot"); empty nodes split weight evenly so a cold
// cluster fills uniformly.
func (m *EpochManager) newEpoch() {
	m.Epochs++
	m.remaining = m.cfg.EvictionsPerEpoch
	nodes := m.cluster.cfg.Nodes
	m.weights = make([]float64, nodes)

	type aged struct {
		node  NodeID
		epoch int64
	}
	ages := make([]aged, 0, m.cluster.pages)
	for _, s := range m.cluster.slots {
		if s.epoch != 0 {
			ages = append(ages, aged{s.node, s.epoch})
		}
	}
	if len(ages) == 0 {
		// Empty directory: split weight evenly among the alive nodes (a
		// dead node cannot accept placements). With none alive the weights
		// stay zero; Place drops stores before consulting them.
		if m.cluster.aliveCount == 0 {
			return
		}
		for i := range m.weights {
			if m.cluster.alive[i] {
				m.weights[i] = 1 / float64(m.cluster.aliveCount)
			}
		}
		return
	}
	// Oldest first.
	sort.Slice(ages, func(i, j int) bool { return ages[i].epoch < ages[j].epoch })
	mOldest := m.cfg.EvictionsPerEpoch
	if mOldest > len(ages) {
		mOldest = len(ages)
	}
	for _, a := range ages[:mOldest] {
		m.weights[a.node] += 1 / float64(mOldest)
	}
}

// Weights returns the current epoch's placement weights (per node).
func (m *EpochManager) Weights() []float64 {
	return append([]float64(nil), m.weights...)
}

// Place performs a putpage using weighted placement, starting a new epoch
// when the current one's eviction budget is spent. It returns the chosen
// node.
func (m *EpochManager) Place(page memmodel.PageID) NodeID {
	c := m.cluster
	i := c.absent(page)
	if c.aliveCount == 0 {
		// Every donor is down: drop the store, like Cluster.Store.
		return 0
	}
	if m.remaining <= 0 {
		m.newEpoch()
	}
	m.remaining--

	node := m.pick()
	if !c.alive[node] {
		// The weights predate a failure in this epoch; place on the
		// least-loaded survivor until the next boundary recomputes them.
		node = c.leastLoaded()
	}
	if c.cfg.GlobalPagesPerNode > 0 && c.load[node] >= c.cfg.GlobalPagesPerNode {
		// The target is full: discard its oldest page (the weighted
		// choice said this node holds old pages).
		c.discardOldestOn(node)
		i, _ = c.find(page) // the discard may have shifted page's probe
	}
	c.put(i, page, node)
	c.Stores++
	return node
}

// pick draws a node from the weight distribution.
func (m *EpochManager) pick() NodeID {
	u := m.rand.Float64()
	acc := 0.0
	for i, w := range m.weights {
		acc += w
		if u <= acc && w > 0 {
			return NodeID(i)
		}
	}
	// Weights may not sum exactly to 1, or all mass may sit on full
	// nodes; fall back to the least-loaded node.
	return m.cluster.leastLoaded()
}
