package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestConflictingFlagsRejected pins the fix for the silent-ignore bug:
// flags outside the selected mode used to be dropped without a word (e.g.
// `-run fig1 -json` ran the experiment and ignored -json). Every such
// combination must now fail with exit code 2 and an error on stderr, as
// must a negative or NaN -scale or -mem, which used to run silently on the
// smallest traces or a memory of a page or two.
func TestConflictingFlagsRejected(t *testing.T) {
	cases := []struct {
		name string
		argv []string
	}{
		{"run+app", []string{"-run", "fig1", "-app", "render"}},
		{"run+json", []string{"-run", "fig1", "-json"}},
		{"run+policy", []string{"-run", "all", "-policy", "pipelined"}},
		{"run+mem", []string{"-run", "all", "-mem", "0.5"}},
		{"run+subpage", []string{"-run", "fig3", "-subpage", "512"}},
		{"run+disk", []string{"-run", "fig1", "-disk"}},
		{"run+pal", []string{"-run", "fig1", "-pal"}},
		{"run+trace", []string{"-run", "fig1", "-trace", "x.trc"}},
		{"list+run", []string{"-list", "-run", "all"}},
		{"list+scale", []string{"-list", "-scale", "1"}},
		{"app+trace", []string{"-app", "render", "-trace", "x.trc"}},
		{"app+j", []string{"-app", "render", "-j", "4"}},
		{"trace+scale", []string{"-trace", "x.trc", "-scale", "0.5"}},
		{"run+traceout", []string{"-run", "fig1", "-traceout", "t.json"}},
		{"traceout alone", []string{"-traceout", "t.json"}},
		{"j alone", []string{"-j", "4"}},
		{"json alone", []string{"-json"}},
		{"run+negative scale", []string{"-run", "fig6", "-scale", "-1"}},
		{"run+NaN scale", []string{"-run", "fig6", "-scale", "NaN"}},
		{"app+negative scale", []string{"-app", "gdb", "-scale", "-0.5"}},
		{"app+negative mem", []string{"-app", "gdb", "-mem", "-1"}},
		{"trace+NaN mem", []string{"-trace", "x.trc", "-mem", "NaN"}},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(c.argv, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit = %d, want 2 (stderr: %s)", c.name, code, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), "subpagesim:") {
			t.Errorf("%s: no error on stderr, got %q", c.name, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: rejected invocation still wrote output: %q", c.name, stdout.String())
		}
	}
}

func TestListMode(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	for _, id := range []string{"fig1", "table2", "cluster"} {
		if !strings.Contains(stdout.String(), id) {
			t.Errorf("-list output missing %q:\n%s", id, stdout.String())
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-run", "nope"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "unknown experiment") {
		t.Errorf("stderr = %q", stderr.String())
	}
}

// TestRunPoolPath runs one cheap experiment through the pool path at
// width 2 and checks its tables reach stdout.
func TestRunPoolPath(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-run", "eventtime", "-scale", "0.05", "-j", "2"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Event-time derivation") {
		t.Errorf("experiment output missing:\n%s", stdout.String())
	}
}

// TestAppModeTraceExport runs one small simulation with both trace export
// flags and checks the files: the Chrome file is valid trace_event JSON,
// the JSONL file has one parseable object per line, and a rerun produces
// byte-identical files (the tracer's determinism contract at the CLI).
func TestAppModeTraceExport(t *testing.T) {
	dir := t.TempDir()
	export := func(tag string) (string, string) {
		chrome := filepath.Join(dir, tag+".chrome.json")
		jsonl := filepath.Join(dir, tag+".jsonl")
		var stdout, stderr bytes.Buffer
		code := run([]string{"-app", "modula3", "-scale", "0.05", "-mem", "0.5",
			"-policy", "lazy", "-traceout", chrome, "-tracejsonl", jsonl},
			&stdout, &stderr)
		if code != 0 {
			t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
		}
		cb, err := os.ReadFile(chrome)
		if err != nil {
			t.Fatal(err)
		}
		jb, err := os.ReadFile(jsonl)
		if err != nil {
			t.Fatal(err)
		}
		return string(cb), string(jb)
	}
	chrome, jsonl := export("a")

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(chrome), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 4 {
		t.Fatalf("suspiciously few trace events: %d", len(doc.TraceEvents))
	}
	lines := strings.Split(strings.TrimRight(jsonl, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("suspiciously few JSONL spans: %d", len(lines))
	}
	for i, ln := range lines {
		var span map[string]any
		if err := json.Unmarshal([]byte(ln), &span); err != nil {
			t.Fatalf("JSONL line %d is not valid JSON: %v\n%s", i+1, err, ln)
		}
		if span["node"] != "modula3" {
			t.Fatalf("line %d node = %v, want modula3", i+1, span["node"])
		}
	}

	chrome2, jsonl2 := export("b")
	if chrome != chrome2 || jsonl != jsonl2 {
		t.Error("trace export differs across identical reruns")
	}
}

// TestRunOutputIdenticalAcrossWidths checks the CLI-level determinism
// guarantee on a sweep experiment: same bytes at -j 1 and -j 8.
func TestRunOutputIdenticalAcrossWidths(t *testing.T) {
	outAt := func(j string) string {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-run", "smallpage", "-scale", "0.05", "-j", j}, &stdout, &stderr); code != 0 {
			t.Fatalf("-j %s: exit = %d, stderr: %s", j, code, stderr.String())
		}
		return stdout.String()
	}
	if seq, par := outAt("1"), outAt("8"); seq != par {
		t.Errorf("-j 1 and -j 8 outputs differ:\n--- j1 ---\n%s\n--- j8 ---\n%s", seq, par)
	}
}
