package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"github.com/gms-sim/gmsubpage/internal/dirlog"
	"github.com/gms-sim/gmsubpage/internal/dirshard"
	"github.com/gms-sim/gmsubpage/internal/obs"
	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/remote"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// The prototype cluster every live workload runs against: in-process, on
// loopback TCP. These constants are the benchmark's fixed regime (README.md).
const (
	numServers  = 2
	numClients  = 2 // closed-loop client goroutines; fixed, not derived from nproc, so hosts compare
	subpageSize = 1024
	readSize    = 64
	atmMbps     = 155
	rawDeadline = 5 * time.Second // a raw probe exchange that takes longer is a hang
)

// clusterOpt shapes one cluster start.
type clusterOpt struct {
	pages      int
	cache      int // client cache, in pages
	shards     int
	journalDir string        // non-empty: journaled (durable) directory shards
	metrics    *obs.Registry // non-nil: directory shards, servers and clients register their metrics
}

type cluster struct {
	opt     clusterOpt
	shards  *dirshard.Cluster
	servers []*remote.Server

	// Set-up stage timings, reported by the traced run.
	shardStart time.Duration
	store      time.Duration
	register   time.Duration
}

// The repository's standing test pattern gives page p the contents
// byte(p*131 + i*7). Since 7 is odd, that is byte(7*(k+i)) with
// k = p*131*183 + off (183 = 1/7 mod 256): any range of any page is a window
// of one table, so filling and checking cost a memmove and a memcmp and
// verification stays a small share of even a cache-hit op.
var patternTab = func() []byte {
	t := make([]byte, 256+units.PageSize)
	for j := range t {
		t[j] = byte(7 * j)
	}
	return t
}()

func patternWindow(p uint64, off, n int) []byte {
	k := int((p*131*183 + uint64(off)) & 255)
	return patternTab[k : k+n]
}

// pattern fills dst with page p's contents from offset 0.
func pattern(dst []byte, p uint64) { copy(dst, patternWindow(p, 0, len(dst))) }

// checkPattern reports whether buf holds page p's pattern from offset off.
func checkPattern(buf []byte, p uint64, off int) bool {
	return bytes.Equal(buf, patternWindow(p, off, len(buf)))
}

func startCluster(opt clusterOpt) (*cluster, error) {
	cl := &cluster{opt: opt}
	cfg := dirshard.Config{}
	if opt.journalDir != "" {
		cfg.Journal = &dirlog.Options{Dir: opt.journalDir}
	}
	t0 := now()
	shards, err := dirshard.StartCluster(opt.shards, cfg)
	if err != nil {
		return nil, fmt.Errorf("start directory shards: %w", err)
	}
	cl.shardStart = since(t0)
	cl.shards = shards
	for i := 0; i < opt.shards && opt.metrics != nil; i++ {
		shards.SetMetrics(i, opt.metrics)
	}
	for i := 0; i < numServers; i++ {
		s, err := remote.ListenServer("127.0.0.1:0")
		if err != nil {
			cl.close()
			return nil, fmt.Errorf("start page server: %w", err)
		}
		if opt.metrics != nil {
			s.SetMetrics(opt.metrics)
		}
		cl.servers = append(cl.servers, s)
	}
	page := make([]byte, units.PageSize)
	t0 = now()
	for p := 0; p < opt.pages; p++ {
		pattern(page, uint64(p))
		cl.servers[p%numServers].Store(uint64(p), page)
	}
	cl.store = since(t0)
	t0 = now()
	for _, s := range cl.servers {
		if err := s.RegisterWith(shards.Bootstrap()); err != nil {
			cl.close()
			return nil, fmt.Errorf("register page server: %w", err)
		}
	}
	cl.register = since(t0)
	return cl, nil
}

func (cl *cluster) close() {
	for _, s := range cl.servers {
		_ = s.Close()
	}
	if cl.shards != nil {
		_ = cl.shards.Close()
	}
	if cl.opt.journalDir != "" {
		_ = os.RemoveAll(cl.opt.journalDir)
	}
}

func (cl *cluster) setWire(mbps float64) {
	for _, s := range cl.servers {
		s.SetWireMbps(mbps)
	}
}

// dial connects one faulting client in the benchmark's fixed regime.
func (cl *cluster) dial() (*remote.Client, error) {
	return remote.Dial(remote.ClientConfig{
		Directory:   cl.shards.Bootstrap(),
		CachePages:  cl.opt.cache,
		SubpageSize: subpageSize,
		Policy:      proto.PolicyPipelined,
		Metrics:     cl.opt.metrics,
	})
}

// rawConn is the benchmark's own protocol conversation with a live server or
// directory shard: the raw probes time a layer without the client above it.
type rawConn struct {
	c net.Conn
	w *proto.Writer
	r *proto.Reader
}

func dialRaw(addr string) (*rawConn, error) {
	c, err := net.DialTimeout("tcp", addr, rawDeadline)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return &rawConn{c: c, w: proto.NewWriter(c), r: proto.NewReader(c)}, nil
}

// arm bounds the next exchange: a peer that stops answering fails the probe
// instead of hanging the run.
func (rc *rawConn) arm() { _ = rc.c.SetDeadline(now().Add(rawDeadline)) }

func (rc *rawConn) close() { _ = rc.c.Close() }

// dialAll opens one raw conversation per address; closeAll hangs them up.
func dialAll(addrs []string) (conns []*rawConn, closeAll func(), err error) {
	closeAll = func() {
		for _, c := range conns {
			c.close()
		}
	}
	for _, addr := range addrs {
		c, err := dialRaw(addr)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		conns = append(conns, c)
	}
	return conns, closeAll, nil
}

// serverAddrs lists the page servers' addresses, in page-striping order.
func (cl *cluster) serverAddrs() []string {
	addrs := make([]string, len(cl.servers))
	for i, s := range cl.servers {
		addrs[i] = s.Addr()
	}
	return addrs
}

// tmpDir makes a fresh directory under the benchmark's scratch root.
func tmpDir(root, prefix string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}

// scratchRoot is where journals and probe files go: $TMPDIR, which run.sh
// points inside the checkout.
func scratchRoot() string { return filepath.Join(os.TempDir(), "gmsbench") }
