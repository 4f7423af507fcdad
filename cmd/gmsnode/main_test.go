package main

import (
	"io"
	"net/http"
	"strings"
	"testing"

	gmsubpage "github.com/gms-sim/gmsubpage"
)

// TestDebugListenerSmoke drives the -debug plumbing end to end: start the
// listener, point a live directory's metrics at its registry, generate
// traffic, and scrape /metrics and /healthz over HTTP.
func TestDebugListenerSmoke(t *testing.T) {
	ds, m, err := startDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })

	dir, err := gmsubpage.StartDirectory("127.0.0.1:0", gmsubpage.DirectoryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dir.Close() })
	dir.SetMetrics(m)

	srv, err := gmsubpage.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.StoreRange(0, 4)
	if err := srv.Register(dir.Addr()); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		resp, err := http.Get("http://" + ds.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if got := get("/healthz"); got != "ok\n" {
		t.Errorf("/healthz = %q", got)
	}
	metrics := get("/metrics")
	for _, want := range []string{"gms_dir_registers_total", "gms_dir_pages 4"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestDebugMetricsDisabled pins that an empty -debug keeps observability
// fully off (nil metrics, no listener).
func TestDebugMetricsDisabled(t *testing.T) {
	if m := debugMetrics(""); m != nil {
		t.Fatalf("debugMetrics(\"\") = %v, want nil", m)
	}
}
