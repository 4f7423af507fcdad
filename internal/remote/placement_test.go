package remote

import (
	"bytes"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/obs"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// readPage reads page whole through c and checks its bytes.
func readPage(t *testing.T, c *Client, page uint64) {
	t.Helper()
	buf := make([]byte, units.PageSize)
	if err := c.Read(buf, page*units.PageSize); err != nil {
		t.Fatalf("read page %d: %v", page, err)
	}
	if !bytes.Equal(buf, pagePattern(page)) {
		t.Fatalf("page %d: wrong bytes", page)
	}
}

// TestGroupLookupOncePerGroup: first-touching every page of one placement
// group costs one lookup against an unsharded directory and at most one
// per shard against a sharded one; a page of the next group costs one
// more. Without group answers each first touch was a lookup of its own.
func TestGroupLookupOncePerGroup(t *testing.T) {
	lookups := func(regs []*obs.Registry) (n int64) {
		for _, r := range regs {
			n += r.Counter("gms_dir_lookups_total", "").Value()
		}
		return n
	}
	for _, tc := range []struct {
		name   string
		shards int
	}{{"unsharded", 0}, {"2-shard", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			var dirs []*Directory
			addr := ""
			if tc.shards == 0 {
				dir, _ := testCluster(t, 2*proto.PlacementGroup)
				dirs, addr = []*Directory{dir}, dir.Addr()
			} else {
				var m proto.ShardMap
				dirs, m, _ = shardedCluster(t, tc.shards, 2*proto.PlacementGroup, 0)
				addr = m.Shards[0]
			}
			regs := make([]*obs.Registry, len(dirs))
			for i, d := range dirs {
				regs[i] = obs.NewRegistry()
				d.SetMetrics(regs[i])
			}
			c, err := Dial(ClientConfig{Directory: addr, CachePages: 4 * proto.PlacementGroup})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			for p := uint64(0); p < proto.PlacementGroup; p++ {
				readPage(t, c, p)
			}
			group := lookups(regs)
			if group < 1 || group > int64(max(tc.shards, 1)) {
				t.Fatalf("first touches of one group cost %d lookups, want 1..%d", group, max(tc.shards, 1))
			}
			readPage(t, c, proto.PlacementGroup)
			if got := lookups(regs); got != group+1 {
				t.Fatalf("a page of the next group cost %d lookups, want 1", got-group)
			}
			if s := c.Stats(); s.Retries != 0 || s.WrongShard != 0 {
				t.Fatalf("retries %d, wrong-shard bounces %d, want 0", s.Retries, s.WrongShard)
			}
		})
	}
}

// TestStaleGroupPlacement: a placement learned from a group answer goes
// stale like any cached one. The page's primary dies before the page is
// first touched; the read still returns the page, through failover or a
// fresh lookup, within the retry budget. A page registered after the
// group was learned was not in the answer, so it is looked up, not taken
// for unregistered.
func TestStaleGroupPlacement(t *testing.T) {
	dir, srvA, srvB := replicatedCluster(t, 8)
	c := testClient(t, dir, fastRetry(ClientConfig{CachePages: 16}))
	readPage(t, c, 0) // learns pages 0-7, all primaried on srvA
	if got := c.route.cached(1); len(got) != 2 || got[0] != srvA.Addr() {
		t.Fatalf("page 1's placement after the group lookup = %v, want srvA then srvB", got)
	}
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}
	readPage(t, c, 1)
	if s := c.Stats(); s.Retries > int64(c.cfg.MaxRetries) {
		t.Fatalf("%d retries, budget %d", s.Retries, c.cfg.MaxRetries)
	}

	srvB.Store(9, pagePattern(9))
	if err := srvB.RegisterWith(dir.Addr()); err != nil {
		t.Fatal(err)
	}
	readPage(t, c, 9)
}
