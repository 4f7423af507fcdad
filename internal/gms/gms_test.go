package gms

import (
	"slices"
	"testing"
	"testing/quick"

	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/rng"
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

// mapDir is the directory as a Go map, with Cluster's placement and
// replacement written the plain way: the reference model for the
// open-addressed table.
type mapDir struct {
	cap   int
	dir   map[memmodel.PageID][2]int64 // node, epoch
	load  []int
	alive []bool
	clock int64
}

func (m *mapDir) leastLoaded() int {
	best := -1
	for i, l := range m.load {
		if m.alive[i] && (best < 0 || l < m.load[best]) {
			best = i
		}
	}
	return best
}

func (m *mapDir) store(p memmodel.PageID) int {
	node := m.leastLoaded()
	if node < 0 {
		return 0
	}
	if m.cap > 0 && m.load[node] >= m.cap {
		victim, oldest := memmodel.PageID(0), int64(-1)
		for q, e := range m.dir {
			if oldest < 0 || e[1] < oldest {
				victim, oldest = q, e[1]
			}
		}
		m.load[m.dir[victim][0]]--
		delete(m.dir, victim)
		node = m.leastLoaded()
	}
	m.clock++
	m.dir[p] = [2]int64{int64(node), m.clock}
	m.load[node]++
	return node
}

// TestDirectoryMatchesMap: over random fetches, stores, failures and rejoins
// on pages chosen to share probe paths, through the table's growth and
// backward-shift deletions, the cluster answers every Fetch, Store and
// Lookup as the map model does, with the same loads.
func TestDirectoryMatchesMap(t *testing.T) {
	for _, capacity := range []int{0, 40} {
		const nodes = 3
		c := NewCluster(Config{Nodes: nodes, GlobalPagesPerNode: capacity})
		m := &mapDir{cap: capacity, dir: map[memmodel.PageID][2]int64{}, load: make([]int, nodes), alive: []bool{true, true, true}}
		r := rng.New(uint64(capacity) + 1)
		// Pages 0..511 spaced by a power of two far above the table size:
		// Fibonacci hashing keeps them apart, while the low range crowds.
		page := func() memmodel.PageID {
			if r.Intn(2) == 0 {
				return memmodel.PageID(r.Intn(512))
			}
			return memmodel.PageID(r.Intn(64)) << 40
		}
		for op := 0; op < 20000; op++ {
			p := page()
			switch k := r.Intn(100); {
			case k < 45:
				n, ok := c.Fetch(p)
				e, want := m.dir[p]
				if ok != want || ok && int64(n) != e[0] {
					t.Fatalf("op %d: Fetch(%d) = %d, %v; model %d, %v", op, p, n, ok, e[0], want)
				}
				if want {
					m.load[e[0]]--
					delete(m.dir, p)
				}
			case k < 97:
				if _, in := m.dir[p]; in {
					continue
				}
				if got, want := c.Store(p), m.store(p); int(got) != want {
					t.Fatalf("op %d: Store(%d) on node %d, model %d", op, p, got, want)
				}
			case k < 99:
				n := r.Intn(nodes)
				c.FailNode(NodeID(n))
				if m.alive[n] {
					m.alive[n] = false
					for q, e := range m.dir {
						if e[0] == int64(n) {
							delete(m.dir, q)
						}
					}
					m.load[n] = 0
				}
			default:
				n := r.Intn(nodes)
				c.ReviveNode(NodeID(n))
				m.alive[n] = true
			}
			if c.Size() != len(m.dir) {
				t.Fatalf("op %d: size %d, model %d", op, c.Size(), len(m.dir))
			}
			if op%500 == 0 {
				for q, e := range m.dir {
					if n, ok := c.Lookup(q); !ok || int64(n) != e[0] {
						t.Fatalf("op %d: Lookup(%d) = %d, %v; model node %d", op, q, n, ok, e[0])
					}
				}
				for n := range nodes {
					if c.Load(NodeID(n)) != m.load[n] {
						t.Fatalf("op %d: node %d load %d, model %d", op, n, c.Load(NodeID(n)), m.load[n])
					}
				}
			}
		}
		if len(c.slots) == minSlots || capacity > 0 && c.Discards == 0 || c.DroppedPages == 0 {
			t.Fatalf("cap %d: the run never grew the table, discarded or dropped: %d slots, %+v", capacity, len(c.slots), c)
		}
	}
}
