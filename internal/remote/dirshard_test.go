package remote

import (
	"bytes"
	"net"
	"testing"
	"time"

	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// shardedCluster stands up n directory shards sharing one version-1 map,
// plus a page server holding npages that registers (partitioned by ring
// owner) through shard 0.
func shardedCluster(t *testing.T, n, npages int, ttl time.Duration) ([]*Directory, proto.ShardMap, *Server) {
	t.Helper()
	m := proto.ShardMap{Version: 1}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		m.Shards = append(m.Shards, ln.Addr().String())
	}
	dirs := make([]*Directory, n)
	for i, ln := range lns {
		d, err := ListenDirectoryOnWith(ln, DirectoryConfig{
			LeaseTTL: ttl,
			Shard:    &ShardConfig{Map: m, Self: i},
		})
		if err != nil {
			t.Fatal(err)
		}
		dirs[i] = d
		t.Cleanup(func() { d.Close() })
	}
	srv, err := ListenServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	for p := 0; p < npages; p++ {
		srv.Store(uint64(p), pagePattern(uint64(p)))
	}
	if err := srv.RegisterWith(m.Shards[0]); err != nil {
		t.Fatal(err)
	}
	return dirs, m, srv
}

// TestShardedRegistrationPartitions verifies RegisterWith splits the page
// list by ring owner: every page is registered at exactly the shard that
// owns it, and at no other.
func TestShardedRegistrationPartitions(t *testing.T) {
	const npages = 64
	dirs, m, _ := shardedCluster(t, 4, npages, 0)
	ring := proto.NewRing(m)
	perShard := make([]int, len(dirs))
	for p := uint64(0); p < npages; p++ {
		owner := ring.Owner(p)
		perShard[owner]++
		for i, d := range dirs {
			got := d.Replicas(p)
			if i == owner && len(got) != 1 {
				t.Fatalf("shard %d owns page %d but Replicas = %v", i, p, got)
			}
			if i != owner && len(got) != 0 {
				t.Fatalf("shard %d does not own page %d but Replicas = %v", i, p, got)
			}
		}
	}
	total := 0
	for i, d := range dirs {
		if d.Len() != perShard[i] {
			t.Fatalf("shard %d Len = %d, want %d", i, d.Len(), perShard[i])
		}
		total += d.Len()
	}
	if total != npages {
		t.Fatalf("pages across shards = %d, want %d", total, npages)
	}
}

// TestShardedClientReads verifies the full fault path against a sharded
// directory: the client bootstraps the map from shard 0 and routes each
// lookup to the owning shard, so a fresh client never takes a TWrongShard
// bounce.
func TestShardedClientReads(t *testing.T) {
	const npages = 32
	_, m, _ := shardedCluster(t, 4, npages, 0)
	c, err := Dial(ClientConfig{Directory: m.Shards[0], Policy: proto.PolicyEager, CachePages: npages})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 64)
	for p := uint64(0); p < npages; p++ {
		if err := c.Read(buf, p*uint64(units.PageSize)); err != nil {
			t.Fatalf("read page %d: %v", p, err)
		}
		if want := pagePattern(p)[:64]; !bytes.Equal(buf, want) {
			t.Fatalf("page %d data mismatch", p)
		}
	}
	st := c.Stats()
	if st.MapRefreshes != 1 {
		t.Fatalf("MapRefreshes = %d, want 1 (one bootstrap fetch)", st.MapRefreshes)
	}
	if st.WrongShard != 0 {
		t.Fatalf("WrongShard = %d, want 0 for a fresh map", st.WrongShard)
	}
}

// TestStaleShardMapConvergesInOneBounce is the stale-client scenario: a
// client still holding the old one-shard map (as if the cluster grew
// under it) sends every lookup to shard 0. Pages now owned elsewhere come
// back TWrongShard carrying the current map; the client must install it
// and converge within that same attempt — one extra round trip, no
// retry/backoff cycle.
func TestStaleShardMapConvergesInOneBounce(t *testing.T) {
	const npages = 32
	_, m, _ := shardedCluster(t, 2, npages, 0)
	c, err := Dial(ClientConfig{Directory: m.Shards[0], Policy: proto.PolicyEager, CachePages: npages})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Plant the stale map before the first fault: version 0, shard 0
	// only. mapTried suppresses the bootstrap fetch, so the only way the
	// client can learn the real map is a TWrongShard bounce.
	c.route.mu.Lock()
	c.route.ring = proto.NewRing(proto.ShardMap{Version: 0, Shards: m.Shards[:1]})
	c.route.mapTried = true
	c.route.mu.Unlock()

	buf := make([]byte, 64)
	for p := uint64(0); p < npages; p++ {
		if err := c.Read(buf, p*uint64(units.PageSize)); err != nil {
			t.Fatalf("read page %d with stale map: %v", p, err)
		}
		if want := pagePattern(p)[:64]; !bytes.Equal(buf, want) {
			t.Fatalf("page %d data mismatch", p)
		}
	}
	st := c.Stats()
	if st.WrongShard == 0 {
		t.Fatal("expected at least one TWrongShard bounce from the stale map")
	}
	if st.MapRefreshes != 1 {
		t.Fatalf("MapRefreshes = %d, want 1 (installed from the bounce)", st.MapRefreshes)
	}
	if st.Retries != 0 {
		t.Fatalf("Retries = %d, want 0: a bounce must converge inside the attempt", st.Retries)
	}
	c.route.mu.Lock()
	v := c.route.ring.Map().Version
	c.route.mu.Unlock()
	if v != m.Version {
		t.Fatalf("client map version = %d, want %d", v, m.Version)
	}
}

// TestShardedLeaseExpiry verifies liveness is tracked per shard: a page
// server leases itself to every shard, and when it dies (heartbeats
// stop), each shard's janitor expunges its entries within one TTL.
func TestShardedLeaseExpiry(t *testing.T) {
	const ttl = 300 * time.Millisecond
	dirs, _, srv := shardedCluster(t, 2, 32, ttl)
	srv.SetHeartbeatInterval(time.Hour) // no renewals: registration leases only
	if dirs[0].Len()+dirs[1].Len() != 32 {
		t.Fatalf("pages before kill = %d, want 32", dirs[0].Len()+dirs[1].Len())
	}
	_ = srv.Close()
	deadline := time.Now().Add(3 * ttl)
	for time.Now().Before(deadline) {
		if dirs[0].Len() == 0 && dirs[1].Len() == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("leases survived past TTL: shard lens = %d, %d", dirs[0].Len(), dirs[1].Len())
}

// TestForeignRegistrationFiltered verifies the stale-map safety net on
// the write path: a registration naming pages the shard does not own is
// accepted (the lease stands) but the foreign pages are dropped.
func TestForeignRegistrationFiltered(t *testing.T) {
	dirs, m, _ := shardedCluster(t, 2, 0, 0)
	ring := proto.NewRing(m)
	foreign := uint64(0)
	for ring.Owner(foreign) == 0 {
		foreign++
	}
	if !dirs[0].applyRegister(proto.Register{Addr: "10.9.9.9:1", Epoch: 9, Pages: []uint64{foreign}}, time.Now()) {
		t.Fatal("registration with foreign pages rejected outright")
	}
	if got := dirs[0].Replicas(foreign); len(got) != 0 {
		t.Fatalf("foreign page %d registered on shard 0: %v", foreign, got)
	}
}

// TestUnshardedDirectoryServesEmptyMap pins backward compatibility: a
// classic directory answers TGetShardMap with the empty map, and a client
// pointed at it stays in single-directory mode.
func TestUnshardedDirectoryServesEmptyMap(t *testing.T) {
	dir, _ := testCluster(t, 4)
	m, err := getShardMap(dir.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if m.Sharded() {
		t.Fatalf("unsharded directory served map %+v", m)
	}
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyEager})
	buf := make([]byte, 16)
	if err := c.Read(buf, 0); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.MapRefreshes != 0 || st.WrongShard != 0 {
		t.Fatalf("unsharded client stats: MapRefreshes=%d WrongShard=%d, want 0/0",
			st.MapRefreshes, st.WrongShard)
	}
}
