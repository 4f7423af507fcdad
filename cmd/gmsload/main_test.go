package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
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
		// Non-positive sizes used to be swapped for load.Config's defaults
		// while the table header echoed the flag.
		{"-shards", "1", "-dirservice", "0", "-clients", "0"},
		{"-requests", "-1"},
		{"-pages", "0"},
		{"-servers", "0"},
		{"-cache", "0"},
		{"-j", "0"},
		{"-duration", "0s"},
		{"-duration", "-1s"},
		{"-subpage", "0"},
		{"-soak", "-clients", "-2"},
		{"-soak", "-crashes", "0"},
		{"-soak", "-crashevery", "0s"},
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

// TestTwoArmTable runs a two-arm comparison and checks the table: each
// arm reports every fault its clients made, and the scaling line closes
// the table.
func TestTwoArmTable(t *testing.T) {
	var stdout, stderr bytes.Buffer
	argv := append([]string{"-shards", "1,2"}, smokeArgs...)
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, row := range []*regexp.Regexp{
		regexp.MustCompile(`(?m)^\s+1\s+\d+\s+10\s`), // 2 clients x 5 faults
		regexp.MustCompile(`(?m)^\s+2\s+\d+\s+10\s`),
		regexp.MustCompile(`(?m)^lookup scaling: \d+\.\d\dx \(2 shards vs 1\)$`),
	} {
		if !row.MatchString(out) {
			t.Fatalf("table has no line matching %v:\n%s", row, out)
		}
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

// TestDurabilityModeConflicts pins the -soak flag surface: load-shaping
// flags are rejected, and the soak's knobs demand -soak.
func TestDurabilityModeConflicts(t *testing.T) {
	cases := [][]string{
		{"-crashes", "3"},
		{"-fsync", "always"},
		{"-soak", "-duration", "1s"},
		{"-soak", "-minx", "2"},
		{"-soak", "-fsync", "sometimes"},
		{"-dirlog"}, // the retired journal bench: now BenchmarkRecover in internal/dirlog
	}
	for _, argv := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(argv, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", argv, code, stderr.String())
		}
	}
}

// TestSoakModeSmoke runs a bounded two-crash soak end to end and checks
// its ledger on stdout. Exit 0 here means every recovery invariant inside
// load.RunSoak held.
func TestSoakModeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("crash soak sleeps through real kill/restart cycles")
	}
	var stdout, stderr bytes.Buffer
	argv := []string{"-soak", "-crashes", "2", "-crashevery", "120ms",
		"-clients", "2", "-pages", "64", "-servers", "1"}
	if code := run(argv, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, line := range []*regexp.Regexp{
		regexp.MustCompile(`(?m)^gmsload -soak: 2 clients x 64 pages x 1 servers, fsync interval, kill every 120ms$`),
		regexp.MustCompile(`(?m)^crashes survived: +2 in `),
		regexp.MustCompile(`(?m)^reads: +[1-9]\d* \(`),
	} {
		if !line.MatchString(out) {
			t.Fatalf("ledger has no line matching %v:\n%s", line, out)
		}
	}
}
