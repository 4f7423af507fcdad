package dirlog

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// BenchPoint is one journal length's durability measurements: how fast a
// directory restart replays a wal of that many records, and how much a
// compacting snapshot shrinks it.
type BenchPoint struct {
	Records          int     // wal records replayed
	WalBytes         int64   // wal size on disk
	RecoverMs        float64 // Open-to-serving wall time
	ReplayRecsPerSec float64 // replay throughput
	SnapshotMs       float64 // compacting rotation wall time
	SnapshotBytes    int64   // resulting snapshot size
	CompactionX      float64 // wal bytes over snapshot bytes
}

// Bench writes a synthetic-but-realistic journal of each given length
// under root (one subdirectory per point, left behind for inspection),
// then measures recovery and compaction. The record mix models a steady
// 64-server fleet: mostly renew batches, a registration re-arriving every
// tenth record, an expiry every tenth — the same shape a long-lived
// directory accumulates between snapshots, which is what makes the
// compaction ratio meaningful. Two callers read it: the gate benchmark's
// dirlog kernel (bench/kernels.go, the dirlog.* per-layer metrics) and
// BenchmarkRecover, which reports these measurements at 1000, 10000 and
// 50000 records.
func Bench(root string, sizes []int) ([]BenchPoint, error) {
	pts := make([]BenchPoint, 0, len(sizes))
	for _, n := range sizes {
		pt, err := benchOne(filepath.Join(root, fmt.Sprintf("wal-%d", n)), n)
		if err != nil {
			return nil, fmt.Errorf("dirlog bench n=%d: %w", n, err)
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

func benchOne(dir string, n int) (BenchPoint, error) {
	var pt BenchPoint
	j, _, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		return pt, err
	}
	const fleet = 64
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("s%03d:1", i%fleet)
		epoch := uint64(i/fleet + 1)
		switch {
		case i%10 == 0:
			pages := make([]uint64, 16)
			for k := range pages {
				pages[k] = uint64((i%fleet)*16 + k)
			}
			err = j.Append(Register{Addr: addr, Epoch: epoch, Seq: uint64(i + 1), Expires: int64(i+1) * 1e6, Pages: pages})
		case i%10 == 5:
			err = j.Append(Expunge{Addrs: []string{addr}})
		default:
			rs := make([]Renew, 8)
			for k := range rs {
				rs[k] = Renew{Addr: fmt.Sprintf("s%03d:1", (i+k)%fleet), Epoch: epoch, Expires: int64(i+2) * 1e6}
			}
			err = j.Append(RenewBatch{Renews: rs})
		}
		if err != nil {
			return pt, err
		}
	}
	if err := j.Close(); err != nil {
		return pt, err
	}

	t0 := time.Now()
	j2, st, err := Open(Options{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		return pt, err
	}
	defer func() { _ = j2.Close() }()
	recover := time.Since(t0)
	info := j2.Info()
	pt.Records = info.WalRecords
	pt.WalBytes = info.WalBytes
	pt.RecoverMs = float64(recover.Nanoseconds()) / 1e6
	if secs := recover.Seconds(); secs > 0 {
		pt.ReplayRecsPerSec = float64(pt.Records) / secs
	}

	t1 := time.Now()
	if err := j2.Snapshot(st); err != nil {
		return pt, err
	}
	pt.SnapshotMs = float64(time.Since(t1).Nanoseconds()) / 1e6
	fi, err := os.Stat(filepath.Join(dir, snapName(j2.Gen())))
	if err != nil {
		return pt, err
	}
	pt.SnapshotBytes = fi.Size()
	if pt.SnapshotBytes > 0 {
		pt.CompactionX = float64(pt.WalBytes) / float64(pt.SnapshotBytes)
	}
	return pt, nil
}
