package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(v, n=4) does (the "exclusive" method), so the
// spreads printed here are the ones the driver computes. It needs two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// side is one side of a comparison: every untraced run's end-to-end values
// and every traced run's per-layer values, by workload and metric.
type side map[string]map[string][]float64

func loadSide(list string) (side, error) {
	s := make(side)
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f outFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range f.Runs {
			if !r.Correct || r.Failed > 0 {
				return nil, fmt.Errorf("%s: %s run is invalid (correct=%t failed=%d)", path, r.Workload, r.Correct, r.Failed)
			}
			if s[r.Workload] == nil {
				s[r.Workload] = make(map[string][]float64)
			}
			for name, m := range r.Metrics {
				s[r.Workload][name] = append(s[r.Workload][name], m.Value)
			}
		}
	}
	return s, nil
}

// summarize reduces a side's values for one (workload, metric) to the median
// and the interquartile spread as a share of it (0 with fewer than two runs).
func summarize(v []float64) (med, spread float64) {
	if len(v) < 2 {
		return median(v), 0
	}
	q1, q2, q3 := quartiles(v)
	if q2 != 0 {
		spread = (q3 - q1) / q2
	}
	return q2, spread
}

// compareFiles prints, per workload and end-to-end metric, both sides' medians
// and spreads, the ratio with its base, and a verdict against the metric's
// bound; then the per-layer metrics both sides measured, without a verdict.
// It returns 1 if any end-to-end metric regressed.
func compareFiles(aList, bList string) int {
	a, err := loadSide(aList)
	if err == nil {
		var b side
		if b, err = loadSide(bList); err == nil {
			return compareSides(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareSides(a, b side) int {
	status := 0
	fmt.Printf("%-15s %-38s %14s %7s %14s %7s  %-18s %s\n", "workload", "metric", "a median", "iqr", "b median", "iqr", "b/a (base a)", "verdict")
	for _, w := range workloadNames {
		if a[w] == nil || b[w] == nil {
			continue
		}
		for _, tab := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range tab {
				av, bv := a[w][d.Name], b[w][d.Name]
				if len(av) == 0 || len(bv) == 0 {
					continue
				}
				am, as := summarize(av)
				bm, bs := summarize(bv)
				ratio := "n/a"
				if am != 0 {
					ratio = fmt.Sprintf("%.4f", bm/am)
				}
				verdict := ""
				if d.Bound > 0 {
					verdict = judge(d, am, bm, as, bs)
					if verdict == "regressed" {
						status = 1
					}
				}
				fmt.Printf("%-15s %-38s %14.6g %6.1f%% %14.6g %6.1f%%  %-18s %s\n",
					w, d.Name, am, 100*as, bm, 100*bs, fmt.Sprintf("%s (n=%d,%d)", ratio, len(av), len(bv)), verdict)
			}
		}
	}
	return status
}

// judge applies the rule of the choosing-metrics guide: a spread wider than
// the bound cannot resolve a change of the bound's size, so the metric is
// unresolved, not unchanged; otherwise b may be worse than a by the bound.
func judge(d metricDef, am, bm, as, bs float64) string {
	if as > d.Bound || bs > d.Bound {
		return "unresolved (spread > bound)"
	}
	worse := (bm - am) / am
	if d.Better == "higher" {
		worse = (am - bm) / am
	}
	if worse > d.Bound {
		return "regressed"
	}
	return "within bound"
}
