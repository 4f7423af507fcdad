package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestConflictsExit2 pins the flag-conflict convention: misuse is exit
// code 2 with a diagnostic on stderr, before any cluster is started.
func TestConflictsExit2(t *testing.T) {
	cases := [][]string{
		{"-shards", "0"},
		{"-shards", "four"},
		{"-shards", "1,"},
		{"-minx", "3", "-shards", "4"},
		{"-minx", "-1"},
		{"-rps", "-5"},
		{"-policy", "warp"},
		{"-nosuchflag"},
		{"-wire"}, // the retired v1-vs-v2 comparison mode: now an unknown flag
	}
	for _, argv := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(argv, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", argv, code, stderr.String())
		}
	}
}

var smokeArgs = []string{"-j", "2", "-duration", "50ms", "-clients", "2",
	"-requests", "5", "-pages", "32", "-servers", "1", "-dirservice", "0"}

// TestSmokeTable runs one tiny single-arm load and checks the SLO table
// lands on stdout.
func TestSmokeTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	argv := append([]string{"-shards", "1"}, smokeArgs...)
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"lookups/s", "p999(µs)", "shards"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

// TestJSONAndBenchMerge runs a two-arm comparison with -json and
// -benchout against a pre-existing BENCH file, checking the snapshot
// schema, the scaling ratio, and that foreign keys survive the merge.
func TestJSONAndBenchMerge(t *testing.T) {
	bench := filepath.Join(t.TempDir(), "BENCH_experiments.json")
	if err := os.WriteFile(bench, []byte(`{"schema":"gmsubpage-bench-experiments/v1","total_ms":12.5}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	argv := append([]string{"-shards", "1,2", "-json", "-benchout", bench}, smokeArgs...)
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}

	var snap loadSnapshot
	if err := json.Unmarshal(stdout.Bytes(), &snap); err != nil {
		t.Fatalf("stdout is not the snapshot JSON: %v\n%s", err, stdout.String())
	}
	if snap.Schema != "gmsubpage-loadtest/v1" || len(snap.Arms) != 2 {
		t.Fatalf("snapshot = %+v, want 2 arms under gmsubpage-loadtest/v1", snap)
	}
	if snap.Arms[0].Faults != 2*5 {
		t.Fatalf("arm 0 faults = %d, want 10", snap.Arms[0].Faults)
	}

	raw, err := os.ReadFile(bench)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]any
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if top["schema"] != "gmsubpage-bench-experiments/v1" || top["total_ms"] != 12.5 {
		t.Fatalf("merge clobbered existing keys: %v", top)
	}
	if _, ok := top["loadtest"]; !ok {
		t.Fatalf("merge did not add loadtest: %v", top)
	}
}

// TestOutWritesArtifact checks -out writes the same table to a file.
func TestOutWritesArtifact(t *testing.T) {
	art := filepath.Join(t.TempDir(), "loadtest.txt")
	var stdout, stderr bytes.Buffer
	argv := append([]string{"-shards", "1", "-out", art}, smokeArgs...)
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	raw, err := os.ReadFile(art)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != stdout.String() {
		t.Fatalf("-out artifact differs from stdout table")
	}
}

// TestDurabilityModeConflicts pins the -dirlog and -soak flag surfaces:
// the modes are mutually exclusive, load-shaping flags are rejected, and
// the mode-specific knobs demand their mode.
func TestDurabilityModeConflicts(t *testing.T) {
	cases := [][]string{
		{"-dirlog", "-soak"},
		{"-dirlog", "-clients", "2"},
		{"-dirlog", "-minx", "2", "-shards", "1,4"},
		{"-dirlog", "-crashes", "3"},
		{"-dirlog", "-dirlogn", "0"},
		{"-dirlog", "-dirlogn", "ten"},
		{"-dirlogn", "500"},
		{"-crashes", "3"},
		{"-fsync", "always"},
		{"-soak", "-duration", "1s"},
		{"-soak", "-minx", "2"},
		{"-soak", "-fsync", "sometimes"},
	}
	for _, argv := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(argv, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", argv, code, stderr.String())
		}
	}
}

// TestDirlogModeMerge runs the journal recovery bench at tiny sizes with
// -json and -benchout, checking the snapshot shape and that the dirlog
// section lands next to existing keys.
func TestDirlogModeMerge(t *testing.T) {
	bench := filepath.Join(t.TempDir(), "BENCH_experiments.json")
	if err := os.WriteFile(bench, []byte(`{"loadtest":{"schema":"gmsubpage-loadtest/v1"}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	argv := []string{"-dirlog", "-dirlogn", "300,900", "-json", "-benchout", bench}
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var snap dirlogSnapshot
	if err := json.Unmarshal(stdout.Bytes(), &snap); err != nil {
		t.Fatalf("stdout is not the snapshot JSON: %v\n%s", err, stdout.String())
	}
	if snap.Schema != "gmsubpage-dirlog/v1" || len(snap.Points) != 2 {
		t.Fatalf("snapshot = %+v, want 2 points under gmsubpage-dirlog/v1", snap)
	}
	for i, p := range snap.Points {
		if p.Records < 300 || p.ReplayRecsPerSec <= 0 || p.CompactionX <= 1 {
			t.Fatalf("point %d looks empty: %+v", i, p)
		}
	}
	raw, err := os.ReadFile(bench)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]any
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if _, ok := top["dirlog"]; !ok {
		t.Fatalf("merge did not add dirlog: %v", top)
	}
	if _, ok := top["loadtest"]; !ok {
		t.Fatalf("merge clobbered loadtest: %v", top)
	}
}

// TestSoakModeSmoke runs a bounded two-crash soak end to end and checks
// the ledger both on stdout and in the merged soak section. Exit 0 here
// means every recovery invariant inside load.RunSoak held.
func TestSoakModeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("crash soak sleeps through real kill/restart cycles")
	}
	bench := filepath.Join(t.TempDir(), "BENCH_experiments.json")
	var stdout, stderr bytes.Buffer
	argv := []string{"-soak", "-crashes", "2", "-crashevery", "120ms",
		"-clients", "2", "-pages", "64", "-servers", "1", "-json", "-benchout", bench}
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var snap soakSnapshot
	if err := json.Unmarshal(stdout.Bytes(), &snap); err != nil {
		t.Fatalf("stdout is not the snapshot JSON: %v\n%s", err, stdout.String())
	}
	if snap.Schema != "gmsubpage-dirsoak/v1" || snap.Result.Crashes != 2 || snap.Result.Reads <= 0 {
		t.Fatalf("snapshot = %+v, want 2 survived crashes with reads", snap)
	}
	raw, err := os.ReadFile(bench)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]any
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	if _, ok := top["soak"]; !ok {
		t.Fatalf("merge did not add soak: %v", top)
	}
}
