package gms

import (
	"math"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/memmodel"
)

func TestEpochEmptyClusterSplitsEvenly(t *testing.T) {
	c := NewCluster(Config{Nodes: 4})
	m := NewEpochManager(c, DefaultEpochConfig())
	w := m.Weights()
	for i, v := range w {
		if math.Abs(v-0.25) > 1e-9 {
			t.Fatalf("weight[%d] = %v, want 0.25", i, v)
		}
	}
}

func TestEpochWeightsTrackOldPages(t *testing.T) {
	c := NewCluster(Config{Nodes: 2})
	// Node 0 gets old pages, node 1 recent ones.
	for p := memmodel.PageID(0); p < 100; p++ {
		placeOn(c, p, 0)
	}
	for p := memmodel.PageID(100); p < 200; p++ {
		placeOn(c, p, 1)
	}
	m := NewEpochManager(c, EpochConfig{EvictionsPerEpoch: 100, Seed: 1})
	w := m.Weights()
	// The 100 globally-oldest pages all live on node 0.
	if w[0] < 0.99 || w[1] > 0.01 {
		t.Fatalf("weights = %v, want ~[1 0]", w)
	}
}

func TestEpochPlaceFollowsWeights(t *testing.T) {
	c := NewCluster(Config{Nodes: 2})
	for p := memmodel.PageID(0); p < 200; p++ {
		placeOn(c, p, 0)
	}
	// All old pages on node 0: placements this epoch go there.
	m := NewEpochManager(c, EpochConfig{EvictionsPerEpoch: 64, Seed: 7})
	toZero := 0
	for p := memmodel.PageID(1000); p < 1064; p++ {
		if m.Place(p) == 0 {
			toZero++
		}
	}
	if toZero < 60 {
		t.Fatalf("%d/64 placements on node 0, want nearly all", toZero)
	}
}

func TestEpochRotatesAfterBudget(t *testing.T) {
	c := NewCluster(Config{Nodes: 2})
	m := NewEpochManager(c, EpochConfig{EvictionsPerEpoch: 10, Seed: 3})
	start := m.Epochs
	for p := memmodel.PageID(0); p < 25; p++ {
		m.Place(p)
	}
	if m.Epochs <= start {
		t.Fatalf("epochs did not advance: %d", m.Epochs)
	}
	// 25 placements at budget 10: epoch boundary crossed twice.
	if got := m.Epochs - start; got != 2 {
		t.Fatalf("epoch advances = %d, want 2", got)
	}
}

func TestEpochPlaceRespectsCapacity(t *testing.T) {
	c := NewCluster(Config{Nodes: 2, GlobalPagesPerNode: 10})
	m := NewEpochManager(c, EpochConfig{EvictionsPerEpoch: 8, Seed: 5})
	for p := memmodel.PageID(0); p < 60; p++ {
		m.Place(p)
	}
	if c.Load(0) > 10 || c.Load(1) > 10 {
		t.Fatalf("capacity exceeded: %d/%d", c.Load(0), c.Load(1))
	}
	if c.Discards == 0 {
		t.Fatal("over-capacity placement should discard old pages")
	}
	if c.Size() != c.Load(0)+c.Load(1) {
		t.Fatal("directory inconsistent with loads")
	}
}

func TestEpochPlaceDuplicatePanics(t *testing.T) {
	c := NewCluster(Config{Nodes: 1})
	m := NewEpochManager(c, DefaultEpochConfig())
	m.Place(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Place should panic")
		}
	}()
	m.Place(1)
}

func TestDiscardOldestOn(t *testing.T) {
	c := NewCluster(Config{Nodes: 2})
	c.Warm([]memmodel.PageID{1, 2, 3, 4}) // round robin: 1,3 on node0; 2,4 on node1
	c.discardOldestOn(1)
	if _, ok := c.Lookup(2); ok {
		t.Fatal("oldest page on node 1 (page 2) should be gone")
	}
	if _, ok := c.Lookup(1); !ok {
		t.Fatal("node 0 pages should be untouched")
	}
	// Discarding on an empty node is a no-op.
	before := c.Discards
	c.discardOldestOn(1)
	c.discardOldestOn(1)
	if c.Discards != before+1 {
		t.Fatalf("Discards = %d, want %d", c.Discards, before+1)
	}
}

// placeOn stores page on node, stamped with the next epoch, bypassing
// placement.
func placeOn(c *Cluster, page memmodel.PageID, node NodeID) {
	c.reserve(1)
	i, _ := c.find(page)
	c.put(i, page, node)
}
