package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric of the benchmark. The two tables below are the
// benchmark's vocabulary: BENCHMARK.json repeats them (bench_test.go keeps
// the two in step) and every later performance claim cites these names.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd is measured with tracing and obs registries off, on every
// workload. An "op" is workload-defined (see workloads and README.md): a
// client read/write, a read pair, a simulated reference or a simulated fault.
// The bounds are three times the spreads identical runs show on the 2-core
// sizing host (README.md, "Sizing and noise floor"); a tighter bound would
// reject the benchmark's own noise.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.20},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"first_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is filled by the traced run. A workload measures the layers it
// exercises (README.md says which); the others read 0 there.
var perLayer = []metricDef{
	{"trace_overhead_pct", "%", "lower", 0},

	{"loopback.rtt_small_us", "us", "lower", 0},
	{"loopback.rtt_8k_us", "us", "lower", 0},

	{"server.getv2_first_p50_us", "us", "lower", 0},
	{"server.getv2_first_p99_us", "us", "lower", 0},
	{"server.getv2_last_p50_us", "us", "lower", 0},
	{"server.batches_per_get", "count", "lower", 0},
	{"server.overhead_p50_us", "us", "lower", 0},
	{"server.getv2_first_p50_us.fullpage", "us", "lower", 0},
	{"server.getv2_first_p50_us.eager", "us", "lower", 0},
	{"server.getv2_first_p50_us.pipelined", "us", "lower", 0},
	{"server.getv2_first_p50_us.lazy", "us", "lower", 0},
	{"server.getv2_last_p50_us.fullpage", "us", "lower", 0},
	{"server.getv2_last_p50_us.eager", "us", "lower", 0},
	{"server.getv2_last_p50_us.pipelined", "us", "lower", 0},
	{"server.getv2_last_p50_us.lazy", "us", "lower", 0},
	{"server.pace_excess_page_us", "us", "lower", 0},
	{"server.put_then_get_p50_us", "us", "lower", 0},
	{"server.store_ns", "ns", "lower", 0},
	{"server.register_ms", "ms", "lower", 0},
	{"server.bytes_out_per_op", "B", "lower", 0},
	{"server.cancels", "count", "lower", 0},

	{"client.overhead_p50_us", "us", "lower", 0},
	{"client.hit_ns", "ns", "lower", 0},
	{"client.write_p50_us", "us", "lower", 0},
	{"client.readpage_p50_us", "us", "lower", 0},
	{"client.putpages_per_op", "count", "lower", 0},
	{"client.dial_us", "us", "lower", 0},
	{"client.close_us", "us", "lower", 0},
	{"client.faults_per_op", "count", "lower", 0},
	{"client.hit_ratio", "ratio", "higher", 0},
	{"client.evictions_per_op", "count", "lower", 0},
	{"client.bytes_in_per_fault", "B", "lower", 0},
	{"client.bytes_in_per_op", "B", "lower", 0},
	{"client.retries", "count", "lower", 0},
	{"client.failovers", "count", "lower", 0},
	{"client.hedges", "count", "lower", 0},
	{"client.cancels", "count", "lower", 0},
	{"client.subpage_lat_mean_us", "us", "lower", 0},
	{"client.full_lat_mean_us", "us", "lower", 0},
	{"client.read_p999_us", "us", "lower", 0},
	{"client.read_max_us", "us", "lower", 0},
	{"client.subpage_p99_us", "us", "lower", 0},
	{"client.page_p50_us", "us", "lower", 0},
	{"client.page_p99_us", "us", "lower", 0},

	{"directory.lookup_rtt_p50_us", "us", "lower", 0},
	{"directory.lookup_rtt_p99_us", "us", "lower", 0},
	{"directory.wrongshard_rtt_us", "us", "lower", 0},
	{"directory.heartbeat_rtt_us", "us", "lower", 0},
	{"directory.replicas_call_ns", "ns", "lower", 0},
	{"directory.lookups_per_op", "count", "lower", 0},
	{"dirshard.start_ms", "ms", "lower", 0},

	{"dirlog.append_ns", "ns", "lower", 0},
	{"dirlog.append_fsync_us", "us", "lower", 0},
	{"dirlog.recover_ms_10k", "ms", "lower", 0},
	{"dirlog.replay_krecs_per_s", "k/s", "higher", 0},
	{"dirlog.snapshot_ms_10k", "ms", "lower", 0},

	{"proto.send_getv2_ns", "ns", "lower", 0},
	{"proto.decode_getv2_ns", "ns", "lower", 0},
	{"proto.append_batch_ns", "ns", "lower", 0},
	{"proto.append_batch32_ns", "ns", "lower", 0},
	{"proto.decode_batch_ns", "ns", "lower", 0},
	{"proto.reader_next_ns", "ns", "lower", 0},
	{"proto.reader_next_allocs", "count", "lower", 0},
	{"proto.send_lookup_reply_ns", "ns", "lower", 0},
	{"proto.decode_lookup_reply_ns", "ns", "lower", 0},
	{"proto.ring_owner_ns", "ns", "lower", 0},
	{"proto.newring_us", "us", "lower", 0},

	{"core.plan_ns.fullpage", "ns", "lower", 0},
	{"core.plan_ns.eager", "ns", "lower", 0},
	{"core.plan_ns.pipelined", "ns", "lower", 0},
	{"core.plan_allocs.pipelined", "count", "lower", 0},
	{"core.byname_ns", "ns", "lower", 0},
	{"core.prefetch_record_ns", "ns", "lower", 0},
	{"core.prefetch_predict_ns", "ns", "lower", 0},
	{"core.engine_fault_ns", "ns", "lower", 0},
	{"core.engine_fault_allocs", "count", "lower", 0},

	{"netmodel.transfer_ns", "ns", "lower", 0},
	{"netmodel.fetch_latency_ns", "ns", "lower", 0},
	{"gms.fetch_store_ns", "ns", "lower", 0},

	{"memmodel.pt_lookup_hit_ns", "ns", "lower", 0},
	{"memmodel.pt_insert_evict_ns", "ns", "lower", 0},
	{"trace.generate_mrefs_per_s", "M/s", "higher", 0},
	{"trace.packed_read_mrefs_per_s", "M/s", "higher", 0},
	{"trace.touched_pages_ms", "ms", "lower", 0},
	{"trace.cache_mb", "MB", "lower", 0},

	{"sim.replay_mrefs_per_s.modula3", "M/s", "higher", 0},
	{"sim.replay_mrefs_per_s.ld", "M/s", "higher", 0},
	{"sim.replay_mrefs_per_s.atom", "M/s", "higher", 0},
	{"sim.replay_mrefs_per_s.render", "M/s", "higher", 0},
	{"sim.replay_mrefs_per_s.gdb", "M/s", "higher", 0},
	{"sim.run_ms.lazy", "ms", "lower", 0},
	{"sim.run_ms.pipelined", "ms", "lower", 0},
	{"sim.run_ms.prefetch", "ms", "lower", 0},
	{"sim.events", "count", "lower", 0},
	{"sim.faults", "count", "lower", 0},
	{"sim.subpage_faults", "count", "lower", 0},
	{"sim.bytes_moved", "B", "lower", 0},
	{"sim.simulated_ms", "ms", "lower", 0},
	{"sim.faults_per_kref", "count", "lower", 0},

	{"obs.counter_disabled_ns", "ns", "lower", 0},
	{"obs.counter_enabled_ns", "ns", "lower", 0},
	{"obs.histogram_observe_ns", "ns", "lower", 0},
	{"obs.registry_overhead_pct", "%", "lower", 0},

	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.alloc_bytes_per_op", "B", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
}

func findDef(name string) (metricDef, bool) {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// Metric is one measured value. N is the number of samples behind it (ops,
// timed units, probe exchanges or kernel iterations).
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int64   `json:"n,omitempty"`
}

// results collects the metrics of one run of one workload, in first-set order.
type results struct {
	m     map[string]Metric
	order []string
}

func newResults() *results { return &results{m: make(map[string]Metric)} }

// set records a metric. The name must be in one of the tables above and be
// set once: a typo or a double report is a bug in the benchmark, not data.
func (r *results) set(name string, v float64, n int64) {
	d, ok := findDef(name)
	if !ok {
		panic("bench: metric " + name + " is not in the metric tables")
	}
	if _, dup := r.m[name]; dup {
		panic("bench: metric " + name + " reported twice")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("bench: metric %s is %v", name, v))
	}
	r.m[name] = Metric{Value: v, Unit: d.Unit, N: n}
	r.order = append(r.order, name)
}

func (r *results) get(name string) (float64, bool) {
	m, ok := r.m[name]
	return m.Value, ok
}

// print writes one "name value unit n=samples" line per metric.
func (r *results) print(w *os.File, workload string) {
	for _, name := range r.order {
		m := r.m[name]
		_, _ = fmt.Fprintf(w, "%-16s %-38s %s %-6s n=%d\n", workload, name, formatValue(m.Value), m.Unit, m.N)
	}
}

// formatValue prints every digit measured: the driver (and -compare) must see
// timings as measured, not rounded.
func formatValue(v float64) string {
	return fmt.Sprintf("%18s", strconv.FormatFloat(v, 'g', -1, 64))
}

// sortedNs sorts in place and returns its argument.
func sortedNs(v []float64) []float64 {
	sort.Float64s(v)
	return v
}

// pct is the nearest-rank percentile of an ascending slice (0 when empty).
func pct(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
