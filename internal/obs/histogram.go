package obs

import (
	"math"
	"math/bits"
)

// Histogram is a log-linear histogram of non-negative integer samples (the
// prototype records microseconds). Samples up to 32 are counted exactly;
// above that every power of two is split into 16 buckets, so a bucket is at
// most 1/16 as wide as its lower edge and every power of two is a bucket
// edge. It is a fixed-size value holding no slice, map or pointer: a copy
// is a snapshot, two histograms merge or subtract bucket by bucket, and
// its memory does not grow with the number of samples. Samples above 2³²
// are counted in the top bucket (Sum stays exact).
//
// The zero value is empty and ready to use. A Histogram is not safe for
// concurrent use: its owner guards it (the client under its own lock,
// HistogramMetric under its mutex).
type Histogram struct {
	n      int64
	sum    int64
	counts [histBuckets]int64
}

const (
	histSubBits = 4 // 16 buckets per power of two
	histSub     = 1 << histSubBits
	histMaxBits = 32
	// Bucket 0 holds zero; buckets 1..2·histSub hold 1..32 exactly; each
	// power of two above adds histSub more, up to the edge 2^histMaxBits.
	histBuckets = 1 + (histMaxBits-histSubBits-1)*histSub + 2*histSub
	histMax     = 1 << histMaxBits
)

// histBucket returns the bucket counting v: bucket i holds the integers in
// (histUpper(i-1), histUpper(i)].
func histBucket(v int64) int {
	if v <= 0 {
		return 0
	}
	if v > histMax {
		v = histMax
	}
	x := uint64(v - 1)
	if x < 2*histSub {
		return 1 + int(x)
	}
	e := bits.Len64(x) - histSubBits - 1
	return 1 + e*histSub + int(x>>e)
}

// histUpper returns bucket i's upper edge, the largest sample it counts.
func histUpper(i int) int64 {
	if i < 0 {
		return -1
	}
	j := i - 1
	if j < 2*histSub {
		return int64(j + 1)
	}
	e := j/histSub - 1
	m := j%histSub + histSub
	return int64(m+1) << e
}

// Add records one sample; a negative sample counts as zero.
func (h *Histogram) Add(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[histBucket(v)]++
	h.n++
	h.sum += v
}

// Merge adds every sample of o to h.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// Sub removes o's samples from h, where o is an earlier snapshot of h: the
// result holds the samples recorded between the two.
func (h *Histogram) Sub(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] -= c
	}
	h.n -= o.n
	h.sum -= o.sum
}

// N reports the number of samples.
func (h *Histogram) N() int64 { return h.n }

// Sum reports the total of every sample.
func (h *Histogram) Sum() float64 { return float64(h.sum) }

// AtMost reports how many samples are <= v: exact when v is a bucket edge
// (any integer up to 32, any power of two), otherwise it also counts the
// rest of the bucket holding v.
func (h *Histogram) AtMost(v float64) int64 {
	if v < 0 {
		return 0
	}
	if v >= histMax {
		return h.n
	}
	var cum int64
	for _, c := range h.counts[:histBucket(int64(v))+1] {
		cum += c
	}
	return cum
}

// Percentile reports the p-th percentile (0 <= p <= 100) by the nearest-
// rank definition stats.Summary uses, to within the holding bucket: the
// midpoint of the bucket holding the ceil(p/100·n)-th smallest sample, at
// most 1/32 away from that sample. With no samples it returns 0.
func (h *Histogram) Percentile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(h.n)))
	rank = max(1, min(rank, h.n))
	var cum int64
	for i, c := range h.counts {
		if cum += c; cum >= rank {
			return float64(histUpper(i-1)+1+histUpper(i)) / 2
		}
	}
	return histMax // unreachable while the counts sum to n
}

// Median is Percentile(50).
func (h *Histogram) Median() float64 { return h.Percentile(50) }
