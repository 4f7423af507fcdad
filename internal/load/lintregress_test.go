package load

import (
	"net"
	"testing"
	"time"

	"github.com/gms-sim/gmsubpage/internal/proto"
)

// TestStormWorkerBoundedBySilentShard pins the deadlinecheck fix in the
// storm loop: a shard that accepts the connection and then never answers a
// lookup must fail the worker within the storm deadline plus grace, not
// hang its Next read forever (which used to wedge the whole harness run).
func TestStormWorkerBoundedBySilentShard(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Hold the connection open, read nothing, answer nothing.
			defer conn.Close()
		}
	}()

	m := proto.ShardMap{Version: 1, Shards: []string{ln.Addr().String()}}
	ring := proto.NewRing(m)
	if ring == nil {
		t.Fatal("single-shard map should build a ring")
	}
	cfg := Config{Pages: 8, Seed: 1}
	deadline := time.Now().Add(100 * time.Millisecond)

	type result struct {
		ops int
		err error
	}
	done := make(chan result, 1)
	go func() {
		ops, err := stormWorker(cfg, ring, 0, deadline)
		done <- result{ops, err}
	}()
	select {
	case res := <-done:
		if res.err == nil {
			t.Fatalf("stormWorker finished %d ops cleanly against a shard that never answered", res.ops)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("stormWorker hung on a silent shard; the op deadline did not fire")
	}
}
