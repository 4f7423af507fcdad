package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"github.com/gms-sim/gmsubpage/internal/units"
)

// smokeSizes shrink every input so the whole harness runs in seconds, under
// the race detector too. The numbers mean nothing; the plumbing is the same.
var smokeSizes = sizes{
	pages: 512, cache: 64, resident: 32, probes: 40,
	simScale: 0.002, stormRefs: 1 << 14,
	kernelIters: 1000, kernelTime: 0, fsyncAppends: 4, journalRecs: 400,
}

const smokeWindow = 200 * time.Millisecond

func smokeRun(t *testing.T, workload string, traced bool) *runCtx {
	t.Helper()
	rc := &runCtx{workload: workload, seed: 5, window: smokeWindow, traced: traced, sz: smokeSizes, scratch: t.TempDir()}
	if err := rc.run(); err != nil {
		t.Fatalf("%s traced=%t: %v", workload, traced, err)
	}
	if !rc.valid() {
		t.Fatalf("%s traced=%t: invalid run: correct=%t failed=%d attempted=%d notes=%v",
			workload, traced, rc.correct, rc.failed, rc.attempted, rc.notes)
	}
	return rc
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(b, &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

// BENCHMARK.json and the tables in metrics.go are one vocabulary.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	bm := readBenchmarkJSON(t)
	if !reflect.DeepEqual(bm.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", bm.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bm.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table (%d vs %d entries)", len(bm.PerLayer), len(perLayer))
	}
	var names []string
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, code has %v", names, workloadNames)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q is malformed or repeated", d.Name)
			}
			seen[d.Name] = true
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics; the contract allows 128", len(perLayer))
	}
}

// Every workload runs, untraced and traced, with tiny inputs: the untraced
// run reports every end-to-end metric, finite and non-zero; the traced runs
// between them report every per-layer metric; the result line holds exactly
// the contract's keys; the span file parses.
func TestSmokeEveryWorkload(t *testing.T) {
	layerSeen := make(map[string]bool)
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) { smokeWorkload(t, w, layerSeen) })
	}
	for _, d := range perLayer {
		if !layerSeen[d.Name] {
			t.Errorf("per-layer metric %s is reported by no workload", d.Name)
		}
	}
}

func smokeWorkload(t *testing.T, w string, layerSeen map[string]bool) {
	{
		rc := smokeRun(t, w, false)
		for _, d := range endToEnd {
			v, ok := rc.res.get(d.Name)
			if !ok || v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				t.Errorf("%s: end-to-end metric %s = %v (reported %t)", w, d.Name, v, ok)
			}
		}
		if len(rc.res.order) != len(endToEnd) {
			t.Errorf("%s: untraced run reported %v", w, rc.res.order)
		}
		checkResultLine(t, rc, endToEnd)

		rc = smokeRun(t, w, true)
		for _, name := range rc.res.order {
			layerSeen[name] = true
		}
		if _, ok := rc.res.get("trace_overhead_pct"); !ok {
			t.Errorf("%s: traced run did not report trace_overhead_pct", w)
		}
		checkResultLine(t, rc, perLayer)
		if rc.rec == nil || rc.rec.count() == 0 {
			t.Fatalf("%s: traced run recorded no spans", w)
		}
		path := filepath.Join(t.TempDir(), "spans.json")
		if err := writeSpans(path, rc.rec, w); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var parsed struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &parsed); err != nil {
			t.Fatalf("%s: span file does not parse: %v", w, err)
		}
		if len(parsed.TraceEvents) < rc.rec.count() {
			t.Errorf("%s: span file holds %d events for %d spans", w, len(parsed.TraceEvents), rc.rec.count())
		}
	}
}

func checkResultLine(t *testing.T, rc *runCtx, table []metricDef) {
	t.Helper()
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int64
		Failed    *int64
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	var keys map[string]json.RawMessage
	raw := resultLine(rc)
	if err := json.Unmarshal([]byte(raw), &line); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(raw), &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 || line.Correct == nil || line.Attempted == nil || line.Failed == nil {
		t.Errorf("%s: result line keys: %s", rc.workload, raw)
	}
	if len(line.Metrics) != len(table) {
		t.Errorf("%s: result line has %d metrics, want %d", rc.workload, len(line.Metrics), len(table))
	}
	for _, d := range table {
		m, ok := line.Metrics[d.Name]
		if !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("%s: result line lacks %s in %s", rc.workload, d.Name, d.Unit)
		}
	}
}

// One corrupted server page must fail the run: every read is compared with
// the page pattern, and the command's exit status follows.
func TestCorruptedPageFailsRun(t *testing.T) {
	rc := &runCtx{workload: "fault-churn", seed: 5, window: time.Second, sz: smokeSizes, scratch: t.TempDir()}
	rc.tamper = func(cl *cluster) {
		const victim = 3
		page := make([]byte, units.PageSize)
		pattern(page, victim)
		for i := range page {
			page[i] ^= 0x40
		}
		cl.servers[victim%numServers].Store(victim, page)
	}
	if status := runOne(rc, "", ""); status == 0 {
		t.Fatal("a run over a corrupted page exited 0")
	}
	if rc.correct {
		t.Fatal("a run over a corrupted page was reported correct")
	}
}

func TestPatternWindowMatchesFormula(t *testing.T) {
	for _, p := range []uint64{0, 1, 77, 4095, 1 << 40} {
		page := make([]byte, units.PageSize)
		pattern(page, p)
		for i, b := range page {
			if b != byte(p*131+uint64(i)*7) {
				t.Fatalf("page %d byte %d = %d", p, i, b)
			}
		}
		if !checkPattern(page[300:364], p, 300) || checkPattern(page[300:364], p, 301) {
			t.Fatalf("page %d: checkPattern disagrees with pattern", p)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which is
// what the driver uses for its spreads.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %v %v %v", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d            metricDef
		a, b, as, bs float64
		want         string
	}{
		{lower, 100, 109, 0.01, 0.01, "within bound"},
		{lower, 100, 111, 0.01, 0.01, "regressed"},
		{lower, 100, 50, 0.01, 0.01, "within bound"},
		{higher, 100, 89, 0.01, 0.01, "regressed"},
		{higher, 100, 120, 0.01, 0.01, "within bound"},
		{lower, 100, 130, 0.01, 0.12, "unresolved (spread > bound)"},
	} {
		if got := judge(c.d, c.a, c.b, c.as, c.bs); got != c.want {
			t.Errorf("judge(%s, %v -> %v, spreads %v %v) = %q, want %q", c.d.Name, c.a, c.b, c.as, c.bs, got, c.want)
		}
	}
}
