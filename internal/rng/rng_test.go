package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverge at %d: %d vs %d", i, av, bv)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical values", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		// Expect 10000 each; allow 10% slack.
		if c < 9000 || c > 11000 {
			t.Errorf("bucket %d: %d draws, want ~10000", i, c)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(5)
	const p, trials = 0.25, 50000
	sum := 0
	for i := 0; i < trials; i++ {
		sum += r.Geometric(p)
	}
	mean := float64(sum) / trials
	want := 1/p - 1 // 3.0
	if mean < want*0.9 || mean > want*1.1 {
		t.Fatalf("Geometric(%v) mean = %v, want ~%v", p, mean, want)
	}
}

func TestGeometricPEqualsOne(t *testing.T) {
	r := New(5)
	for i := 0; i < 100; i++ {
		if g := r.Geometric(1.0); g != 0 {
			t.Fatalf("Geometric(1) = %d, want 0", g)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(9)
	out := make([]int, 64)
	r.Perm(out)
	seen := make(map[int]bool, len(out))
	for _, v := range out {
		if v < 0 || v >= len(out) || seen[v] {
			t.Fatalf("not a permutation: %v", out)
		}
		seen[v] = true
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(13)
	z := NewZipf(100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		v := z.Sample(r)
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf sample out of range: %d", v)
		}
		counts[v]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	if counts[0] <= counts[99] {
		t.Fatalf("zipf not skewed at tail: counts[0]=%d counts[99]=%d", counts[0], counts[99])
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{1 << 32, 1 << 32, 1, 0},
		{^uint64(0), ^uint64(0), ^uint64(0) - 1, 1},
		{0xdeadbeefcafebabe, 2, 1, 0xbd5b7ddf95fd757c},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%#x, %#x) = (%#x, %#x), want (%#x, %#x)",
				c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

// TestThresholdMatchesFloat: the integer test v>>11 < Threshold(p) is the
// float test Float64() < p — at the threshold's edges, on a million seeded
// draws — and Geometric makes the same draws as the Bernoulli loop over
// Float64, returning the same values and leaving the same state.
func TestThresholdMatchesFloat(t *testing.T) {
	ps := []float64{1.0 / 32, 1.0 / 16, 1.0 / 12, 0.35, 0.7, 0x1p-53, 1 - 0x1p-53,
		0.5 + 0x1p-53} // p·2⁵³ = 2⁵² + 1, an integer
	for _, p := range ps {
		th := Threshold(p)
		for _, k := range []uint64{th - 1, th, th + 1} {
			if k >= 1<<53 {
				continue
			}
			if float := float64(k)/(1<<53) < p; float != (k < th) {
				t.Errorf("p=%v k=%d: float test %v, integer test %v (threshold %d)", p, k, float, k < th, th)
			}
		}
		a, b := New(uint64(th)), New(uint64(th))
		for i := 0; i < 1_000_000; i++ {
			if float, integer := a.Float64() < p, b.Below(th); float != integer {
				t.Fatalf("p=%v draw %d: Float64() < p is %v, Below is %v", p, i, float, integer)
			}
		}
	}
	for p, want := range map[float64]uint64{0: 0, -1: 0, math.NaN(): 0, 1: 1 << 53, 2: 1 << 53} {
		if got := Threshold(p); got != want {
			t.Errorf("Threshold(%v) = %d, want %d", p, got, want)
		}
	}

	// bernoulli is Geometric as the loop it replaces.
	bernoulli := func(r *Rand, p float64) int {
		n := 0
		for !(r.Float64() < p) {
			n++
			if n > 1<<24 {
				return n
			}
		}
		return n
	}
	for _, p := range ps {
		calls := 100_000
		if p < 1e-9 {
			calls = 2 // each call runs to the 2²⁴ bound
		}
		a, b := New(7), New(7)
		for i := 0; i < calls; i++ {
			if got, want := a.Geometric(p), bernoulli(b, p); got != want {
				t.Fatalf("p=%v call %d: Geometric = %d, Bernoulli loop = %d", p, i, got, want)
			}
		}
		if *a != *b {
			t.Fatalf("p=%v: Geometric left the generator at %+v, the Bernoulli loop at %+v", p, *a, *b)
		}
	}
}
