package gms

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/gms-sim/gmsubpage/internal/memmodel"
)

func TestWarmThenFetch(t *testing.T) {
	c := NewCluster(Config{Nodes: 3})
	pages := []memmodel.PageID{1, 2, 3, 4, 5}
	c.Warm(pages)
	if c.Size() != 5 {
		t.Fatalf("Size = %d, want 5", c.Size())
	}
	for _, p := range pages {
		if _, ok := c.Fetch(p); !ok {
			t.Errorf("page %d should be warm", p)
		}
	}
	if c.Size() != 0 {
		t.Fatalf("Size after fetches = %d, want 0", c.Size())
	}
	if c.Hits != 5 || c.Misses != 0 {
		t.Fatalf("Hits/Misses = %d/%d", c.Hits, c.Misses)
	}
}

func TestFetchRemovesCopy(t *testing.T) {
	c := NewCluster(Config{Nodes: 2})
	c.Warm([]memmodel.PageID{7})
	if _, ok := c.Fetch(7); !ok {
		t.Fatal("first fetch should hit")
	}
	if _, ok := c.Fetch(7); ok {
		t.Fatal("second fetch should miss: the page migrated")
	}
	if c.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", c.Misses)
	}
}

func TestStoreBalancesLoad(t *testing.T) {
	c := NewCluster(Config{Nodes: 4})
	for p := memmodel.PageID(0); p < 40; p++ {
		c.Store(p)
	}
	for n := NodeID(0); n < 4; n++ {
		if c.Load(n) != 10 {
			t.Errorf("node %d load = %d, want 10", n, c.Load(n))
		}
	}
}

func TestStoreDuplicatePanics(t *testing.T) {
	c := NewCluster(Config{Nodes: 1})
	c.Store(1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Store should panic")
		}
	}()
	c.Store(1)
}

func TestCapacityDiscardsOldest(t *testing.T) {
	c := NewCluster(Config{Nodes: 2, GlobalPagesPerNode: 2})
	for p := memmodel.PageID(1); p <= 4; p++ {
		c.Store(p)
	}
	// Full: 4 pages across 2 nodes. Storing a fifth discards page 1.
	c.Store(5)
	if c.Discards != 1 {
		t.Fatalf("Discards = %d, want 1", c.Discards)
	}
	if _, ok := c.Lookup(1); ok {
		t.Fatal("oldest page should have been discarded")
	}
	if _, ok := c.Lookup(5); !ok {
		t.Fatal("new page should be stored")
	}
	if c.Size() != 4 {
		t.Fatalf("Size = %d, want 4", c.Size())
	}
}

func TestFetchRefreshesAge(t *testing.T) {
	// A page fetched and re-stored becomes young again.
	c := NewCluster(Config{Nodes: 1, GlobalPagesPerNode: 2})
	c.Store(1)
	c.Store(2)
	c.Fetch(1)
	c.Store(1) // 1 is now younger than 2
	c.Store(3) // must discard 2, the oldest
	if _, ok := c.Lookup(2); ok {
		t.Fatal("page 2 should have been discarded")
	}
	if _, ok := c.Lookup(1); !ok {
		t.Fatal("page 1 should have survived")
	}
}

func TestLoadNeverNegativeAndDirectoryConsistent(t *testing.T) {
	type op struct {
		Page  uint8
		Fetch bool
	}
	f := func(ops []op) bool {
		c := NewCluster(Config{Nodes: 3, GlobalPagesPerNode: 4})
		for _, o := range ops {
			p := memmodel.PageID(o.Page % 32)
			if o.Fetch {
				c.Fetch(p)
			} else if _, ok := c.Lookup(p); !ok {
				c.Store(p)
			}
			total := 0
			for n := NodeID(0); n < 3; n++ {
				if c.Load(n) < 0 {
					return false
				}
				total += c.Load(n)
			}
			if total != c.Size() {
				return false
			}
			if c.Size() > 12 {
				return false // capacity respected
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCluster with zero nodes should panic")
		}
	}()
	NewCluster(Config{Nodes: 0})
}

// TestResetMatchesNew: a cluster Reset after failures, discards and a
// different shape serves a scripted workload exactly as a new one does.
func TestResetMatchesNew(t *testing.T) {
	script := func(c *Cluster) []int64 {
		var out []int64
		c.Warm([]memmodel.PageID{1, 2, 3, 4, 5, 6, 7})
		for p := memmodel.PageID(0); p < 40; p++ {
			n, ok := c.Fetch(p % 9)
			if !ok {
				n = -1
			}
			out = append(out, int64(n))
			if _, in := c.Lookup(p + 100); !in {
				out = append(out, int64(c.Store(p+100)))
			}
		}
		return append(out, c.Hits, c.Misses, c.Stores, c.Discards, int64(c.Size()))
	}
	used := NewCluster(Config{Nodes: 5, GlobalPagesPerNode: 3})
	script(used)
	used.FailNode(2)
	for _, cfg := range []Config{{Nodes: 3, GlobalPagesPerNode: 4}, {Nodes: 8}, {Nodes: 1, GlobalPagesPerNode: 2}} {
		want := script(NewCluster(cfg))
		used.Reset(cfg)
		if got := script(used); !slices.Equal(got, want) {
			t.Fatalf("%+v: reset cluster diverges from a new one:\n got %v\nwant %v", cfg, got, want)
		}
	}
}
