package dirlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scenario is a record sequence exercising every transition type.
func scenario() []Record {
	return []Record{
		Register{Addr: "a:1", Epoch: 10, Seq: 1, Expires: 1000, Pages: []uint64{1, 2, 3}},
		Register{Addr: "b:1", Epoch: 20, Seq: 2, Expires: 1000, Pages: []uint64{4, 5}},
		RenewBatch{Renews: []Renew{{Addr: "a:1", Epoch: 10, Expires: 2000}, {Addr: "b:1", Epoch: 20, Expires: 2000}}},
		Register{Addr: "a:1", Epoch: 11, Seq: 3, Expires: 3000, Pages: []uint64{1, 7}}, // new incarnation fences pages 2,3
		Drain{Addr: "b:1"},
		Expunge{Addrs: []string{"b:1"}},
		Fence{Addr: "b:1", Epoch: 21},
		Register{Addr: "c:1", Epoch: 5, Seq: 4, Expires: 3000, Pages: []uint64{9}},
	}
}

func applyAll(recs []Record) *State {
	st := NewState()
	for _, r := range recs {
		st.Apply(r)
	}
	return st
}

func mustOpen(t *testing.T, o Options) (*Journal, *State) {
	t.Helper()
	j, st, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	return j, st
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, st := mustOpen(t, Options{Dir: dir})
	if len(st.Servers) != 0 || j.Info().Recovered {
		t.Fatalf("fresh journal recovered state: %+v info %+v", st, j.Info())
	}
	for _, r := range scenario() {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, got := mustOpen(t, Options{Dir: dir})
	defer func() { _ = j2.Close() }()
	want := applyAll(scenario())
	if !got.Equal(want, true) {
		t.Fatalf("recovered state differs:\n got %+v\nwant %+v", got, want)
	}
	if !j2.Info().Recovered || j2.Info().WalRecords != len(scenario()) {
		t.Fatalf("info: %+v", j2.Info())
	}
	// Spot-check the semantics: a:1's old incarnation pages are fenced,
	// b:1 is expunged but epoch-remembered at the fenced value.
	s := got.Servers["a:1"]
	if s == nil || s.Epoch != 11 || len(s.Pages) != 2 {
		t.Fatalf("a:1 state: %+v", s)
	}
	if got.Servers["b:1"] != nil || got.Epochs["b:1"] != 21 || got.Draining["b:1"] {
		t.Fatalf("b:1 not cleanly expunged+fenced: %+v", got)
	}
}

// TestTornTailEveryByte is the crash-consistency core: for every possible
// truncation point of the wal, recovery must come back with exactly the
// whole-record prefix and no error.
func TestTornTailEveryByte(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir})
	for _, r := range scenario() {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walName(1))
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, walName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, got, err := Open(Options{Dir: sub})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		recs, clean, derr := Decode(full[:cut])
		if derr != nil {
			t.Fatalf("cut %d: decode of writer output corrupt: %v", cut, derr)
		}
		// Recovery replays exactly the whole-record prefix; skip the meta
		// framing record when counting transitions.
		wantRecs := recs
		if len(wantRecs) > 0 {
			if _, isMeta := wantRecs[0].(Meta); isMeta {
				wantRecs = wantRecs[1:]
			}
		}
		if !got.Equal(applyAll(wantRecs), true) {
			t.Fatalf("cut %d: recovered state != prefix state", cut)
		}
		if j2.Info().TruncatedBytes != int64(cut-clean) {
			t.Fatalf("cut %d: truncated %d bytes, want %d", cut, j2.Info().TruncatedBytes, cut-clean)
		}
		// The journal must keep working after truncation: append and
		// recover once more.
		if err := j2.Append(Fence{Addr: "z:1", Epoch: 99}); err != nil {
			t.Fatalf("cut %d: append after truncation: %v", cut, err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		j3, again, err := Open(Options{Dir: sub})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if again.Epochs["z:1"] != 99 {
			t.Fatalf("cut %d: append after truncation lost", cut)
		}
		if err := j3.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDecodeCorruption(t *testing.T) {
	// Oversized length field: structurally impossible, typed error.
	big := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	var ce *CorruptError
	if _, clean, err := Decode(big); !errors.As(err, &ce) || clean != 0 {
		t.Fatalf("oversized length: clean=%d err=%v", clean, err)
	}
	// Valid checksum over an undecodable body: also corrupt, not torn.
	bad := appendRecord(nil, Fence{Addr: "a", Epoch: 1})
	bad[frameHeader] = 0xEE // undeclared record type; recompute the CRC
	crc := crc32.Checksum(bad[frameHeader:], crcTable)
	binary.LittleEndian.PutUint32(bad[4:], crc)
	if _, _, err := Decode(bad); !errors.As(err, &ce) {
		t.Fatalf("undeclared type under valid crc: %v", err)
	}
	// Flipped payload bit without fixing the CRC: indistinguishable from
	// a torn write, so it is a clean truncation, not an error.
	torn := appendRecord(nil, Fence{Addr: "a", Epoch: 1})
	torn[len(torn)-1] ^= 1
	if recs, clean, err := Decode(torn); err != nil || clean != 0 || len(recs) != 0 {
		t.Fatalf("crc mismatch: recs=%d clean=%d err=%v", len(recs), clean, err)
	}
}

func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir})
	half := scenario()[:4]
	for _, r := range half {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Snapshot(applyAll(half)); err != nil {
		t.Fatal(err)
	}
	if j.Gen() != 2 || j.SinceSnapshot() != 0 {
		t.Fatalf("rotation: gen=%d since=%d", j.Gen(), j.SinceSnapshot())
	}
	// The old generation is gone.
	if _, err := os.Stat(filepath.Join(dir, walName(1))); !os.IsNotExist(err) {
		t.Fatalf("old wal survives rotation: %v", err)
	}
	for _, r := range scenario()[4:] {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, got := mustOpen(t, Options{Dir: dir})
	defer func() { _ = j2.Close() }()
	if !got.Equal(applyAll(scenario()), true) {
		t.Fatal("snapshot+wal recovery differs from full replay")
	}
	if info := j2.Info(); info.SnapshotRecords == 0 || info.WalRecords != len(scenario())-4 {
		t.Fatalf("info: %+v", info)
	}
}

// TestTornSnapshotFallsBack pins the rotation crash window: a snapshot
// missing its terminator (torn mid-write, before the rename would have
// happened) is ignored in favor of the previous generation.
func TestTornSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	j, _ := mustOpen(t, Options{Dir: dir})
	for _, r := range scenario() {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Hand-plant a gen-2 snapshot with no SnapEnd.
	torn := appendRecord(nil, Meta{Gen: 2})
	torn = appendRecord(torn, Fence{Addr: "x:1", Epoch: 1})
	if err := os.WriteFile(filepath.Join(dir, snapName(2)), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, got, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j2.Close() }()
	if !got.Equal(applyAll(scenario()), true) {
		t.Fatal("torn snapshot was trusted")
	}
	if _, ok := got.Epochs["x:1"]; ok {
		t.Fatal("records of the torn snapshot leaked into recovery")
	}
}

// TestCrashAfter pins the deterministic crash-injection hook: with
// CrashAfter=n, exactly the first n records survive to recovery,
// whatever else was appended.
func TestCrashAfter(t *testing.T) {
	recs := scenario()
	for n := 0; n <= len(recs); n++ {
		crashAfter := n
		if n == 0 {
			crashAfter = -1 // crash before the first append
		}
		dir := t.TempDir()
		j, _ := mustOpen(t, Options{Dir: dir, CrashAfter: crashAfter, Fsync: FsyncAlways})
		for _, r := range recs {
			if err := j.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if (n < len(recs)) != j.Crashed() {
			t.Fatalf("n=%d: crashed=%v", n, j.Crashed())
		}
		if err := j.Crash(); err != nil {
			t.Fatal(err)
		}
		j2, got := mustOpen(t, Options{Dir: dir})
		if !got.Equal(applyAll(recs[:n]), true) {
			t.Fatalf("n=%d: recovered state is not the %d-record prefix", n, n)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestShardIdentityRecovered(t *testing.T) {
	dir := t.TempDir()
	meta := Meta{ShardVersion: 3, Shards: []string{"s0", "s1"}, Self: 1}
	j, _ := mustOpen(t, Options{Dir: dir, Meta: meta})
	if err := j.Append(Fence{Addr: "a", Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, got := mustOpen(t, Options{Dir: dir, Meta: Meta{Self: -1}})
	defer func() { _ = j2.Close() }()
	if !got.Meta.SameShard(meta) {
		t.Fatalf("shard identity not recovered: %+v", got.Meta)
	}
	if got.Meta.SameShard(Meta{Self: -1}) {
		t.Fatal("SameShard confuses distinct identities")
	}
}

// TestAppendWriteFailureLatches pins the torn-frame durability hole: a
// failed write whose rollback also fails must leave the journal in a
// sticky failed state, because any further append would land behind the
// torn frame and be silently discarded by Decode at recovery.
func TestAppendWriteFailureLatches(t *testing.T) {
	dir := t.TempDir()
	recs := scenario()
	j, _ := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways})
	if err := j.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	// Sever the descriptor out from under the journal: the next write
	// fails, and so does the rollback truncate.
	j.mu.Lock()
	_ = j.f.Close()
	j.mu.Unlock()
	if err := j.Append(recs[1]); err == nil {
		t.Fatal("append over a dead file must fail")
	}
	if err := j.Append(recs[2]); err == nil {
		t.Fatal("append after a failed rollback must keep failing, not silently lose durability")
	}
	if err := j.Snapshot(applyAll(recs[:1])); err == nil {
		t.Fatal("snapshot after a failed rollback must fail")
	}
	if err := j.Sync(); err == nil {
		t.Fatal("sync after a failed rollback must fail")
	}
	_ = j.Crash() // Close would re-fail on the severed descriptor

	j2, got := mustOpen(t, Options{Dir: dir})
	defer func() { _ = j2.Close() }()
	if !got.Equal(applyAll(recs[:1]), true) {
		t.Fatalf("recovered state is not the pre-failure prefix: %+v", got)
	}
}

// TestAppendRollbackCutsTornFrame: after a failed write, the rollback
// truncates the torn frame so later appends stay decodable instead of
// being stranded behind it.
func TestAppendRollbackCutsTornFrame(t *testing.T) {
	dir := t.TempDir()
	recs := scenario()
	j, _ := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways})
	if err := j.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	// Plant the half-frame a failed write leaves behind, then run the
	// rollback Append performs on write error.
	j.mu.Lock()
	if _, err := j.f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		j.mu.Unlock()
		t.Fatal(err)
	}
	if err := j.rollbackLocked(); err != nil {
		j.mu.Unlock()
		t.Fatal(err)
	}
	j.mu.Unlock()
	if err := j.Append(recs[1]); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, got := mustOpen(t, Options{Dir: dir})
	defer func() { _ = j2.Close() }()
	if j2.Info().TruncatedBytes != 0 {
		t.Fatalf("rollback left a torn tail on disk: %+v", j2.Info())
	}
	if !got.Equal(applyAll(recs[:2]), true) {
		t.Fatalf("append after rollback was lost at recovery: %+v", got)
	}
}

// TestOpenRejectsUnencodableMeta: the journal's one-byte shard count and
// string lengths must refuse a configuration they cannot represent
// instead of silently truncating the journaled shard identity.
func TestOpenRejectsUnencodableMeta(t *testing.T) {
	shards := make([]string, 256)
	for i := range shards {
		shards[i] = fmt.Sprintf("s%d:1", i)
	}
	if _, _, err := Open(Options{Dir: t.TempDir(), Meta: Meta{ShardVersion: 1, Shards: shards, Self: 0}}); err == nil {
		t.Fatal("256 shards accepted: the count would wrap to 0 in the frame")
	}
	long := strings.Repeat("x", 256)
	if _, _, err := Open(Options{Dir: t.TempDir(), Meta: Meta{ShardVersion: 1, Shards: []string{long}, Self: 0}}); err == nil {
		t.Fatal("256-byte shard address accepted: it would be truncated in the frame")
	}
}

func TestParseFsync(t *testing.T) {
	for s, want := range map[string]FsyncPolicy{"always": FsyncAlways, "interval": FsyncInterval, "": FsyncInterval, "never": FsyncNever} {
		got, err := ParseFsync(s)
		if err != nil || got != want {
			t.Fatalf("ParseFsync(%q) = %v, %v", s, got, err)
		}
		if s != "" && got.String() != s {
			t.Fatalf("String round trip: %q != %q", got.String(), s)
		}
	}
	if _, err := ParseFsync("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestBench smoke-tests the durability benchmark at small sizes: every
// point must report a replayed journal, positive throughput, and a
// snapshot that actually compacts the renew-heavy stream.
func TestBench(t *testing.T) {
	pts, err := Bench(t.TempDir(), []int{200, 800})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	for i, pt := range pts {
		if pt.Records < []int{200, 800}[i] {
			t.Fatalf("point %d replayed %d records, want >= %d", i, pt.Records, []int{200, 800}[i])
		}
		if pt.WalBytes <= 0 || pt.ReplayRecsPerSec <= 0 || pt.SnapshotBytes <= 0 {
			t.Fatalf("point %d has empty measurements: %+v", i, pt)
		}
		if pt.CompactionX <= 1 {
			t.Fatalf("point %d compaction %.2fx: snapshot did not shrink the wal", i, pt.CompactionX)
		}
	}
	if pts[1].WalBytes <= pts[0].WalBytes {
		t.Fatalf("wal bytes not monotone with journal length: %+v", pts)
	}
}

// BenchmarkRecover times journal recovery and snapshot compaction through
// Bench at three journal lengths. Each iteration writes a fresh journal,
// so ns/op includes writing it; the reported metrics are the means of
// Bench's own measurements: cold recovery, replay throughput, the
// compacting snapshot and its compaction ratio.
func BenchmarkRecover(b *testing.B) {
	for _, n := range []int{1000, 10000, 50000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			root := b.TempDir()
			var sum BenchPoint
			for i := 0; i < b.N; i++ {
				dir := filepath.Join(root, fmt.Sprint(i))
				pts, err := Bench(dir, []int{n})
				if err != nil {
					b.Fatal(err)
				}
				if err := os.RemoveAll(dir); err != nil {
					b.Fatal(err)
				}
				pt := pts[0]
				if pt.Records < n || pt.CompactionX <= 1 {
					b.Fatalf("n=%d: replayed %d records at %.2fx compaction", n, pt.Records, pt.CompactionX)
				}
				sum.RecoverMs += pt.RecoverMs
				sum.ReplayRecsPerSec += pt.ReplayRecsPerSec
				sum.SnapshotMs += pt.SnapshotMs
				sum.CompactionX += pt.CompactionX
			}
			runs := float64(b.N)
			b.ReportMetric(sum.RecoverMs/runs, "recover-ms")
			b.ReportMetric(sum.ReplayRecsPerSec/runs, "replay-recs/s")
			b.ReportMetric(sum.SnapshotMs/runs, "snapshot-ms")
			b.ReportMetric(sum.CompactionX/runs, "compaction-x")
		})
	}
}
