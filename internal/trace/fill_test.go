package trace

import (
	"testing"

	"github.com/gms-sim/gmsubpage/internal/rng"
)

// shapeBytes hands out a fuzz input's bytes one at a time, then zeros.
type shapeBytes []byte

func (b *shapeBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// paperApps are the five paper apps' constructors, in the paper's order.
var paperApps = []func(float64) *App{Modula3, Ld, Atom, Render, Gdb}

// decodePattern builds a pattern from fuzz bytes. The first byte picks the
// kind: Seq, Sweep (with FirstVisitRefs and CrossFrac), WorkingSet (uniform
// or skewed), Mix of up to three decoded children (nested at most twice), or
// a phase of a paper app at scale 0.05. Regions and visits are small, so a
// few thousand references cross many page, visit, subsweep and stretch
// boundaries.
func decodePattern(b *shapeBytes, depth int) Pattern {
	kind := b.next() % 5
	if kind == 4 {
		phases := paperApps[b.next()%len(paperApps)](0.05).Phases()
		return phases[b.next()%len(phases)].Pattern
	}
	region := Region{Base: uint64(1+b.next()%4) << 30, Pages: 1 + b.next()%8}
	strides := []uint64{0, 8, 24, 1000, 3000}
	switch {
	case kind == 0:
		return &Seq{Region: region, Stride: strides[b.next()%len(strides)], StoreEvery: b.next() % 4}
	case kind == 1:
		return &Sweep{
			Region:         region,
			VisitRefs:      b.next() % 40,
			FirstVisitRefs: b.next() % 40,
			VisitBytes:     []int{0, 256, 1024, 3000, 8192, 9000}[b.next()%6],
			Stride:         strides[b.next()%len(strides)],
			StoreEvery:     b.next() % 4,
			CrossFrac:      float64(b.next()%5) / 4,
		}
	case kind == 2:
		return &WorkingSet{
			Region:    region,
			Skew:      float64(b.next()%3) / 2,
			MeanRun:   b.next() % 20,
			RunStride: strides[b.next()%len(strides)],
			StoreFrac: float64(b.next()%5) / 4,
		}
	case depth < 2:
		m := &Mix{RunLen: b.next() % 16}
		for k := 1 + b.next()%3; k > 0; k-- {
			m.Patterns = append(m.Patterns, decodePattern(b, depth+1))
			m.Weights = append(m.Weights, float64(1+b.next()%4))
		}
		return m
	}
	return &Seq{Region: region}
}

// FuzzPatternFill: a pattern's stream does not depend on how it is cut into
// fills. n references filled in random chunks (empty ones included) equal one
// fill of n, and leave the generator in the same state; the patterns are
// left in the same state too, so the next fill agrees as well.
func FuzzPatternFill(f *testing.F) {
	// Every phase shape of the paper apps, cut coarsely and finely.
	for app := range paperApps {
		for phase := 0; phase < 4; phase++ {
			f.Add(uint64(app), []byte{4, byte(app), byte(phase)}, uint16(4000), []byte{1, 0, 63, 17, 32})
		}
	}
	f.Add(uint64(1), []byte{0, 0, 1, 0, 1, 2}, uint16(100), []byte{3, 3, 3})
	f.Add(uint64(2), []byte{1, 1, 2, 7, 5, 2, 1, 0, 3}, uint16(2000), []byte{1, 1, 1, 50, 0, 9})
	f.Add(uint64(3), []byte{2, 0, 4, 1, 5, 1, 2}, uint16(3000), []byte{31, 2})
	f.Add(uint64(4), []byte{3, 0, 3, 1, 1, 3, 9, 2, 1, 2, 0, 5, 0, 2, 3, 1, 1, 6, 0, 4, 4, 0, 2}, uint16(4095), []byte{7, 60, 1})
	f.Fuzz(func(t *testing.T, seed uint64, shape []byte, n uint16, cuts []byte) {
		bw, bc := shapeBytes(shape), shapeBytes(shape)
		whole, chunked := decodePattern(&bw, 0), decodePattern(&bc, 0)
		rw, rc := rng.New(seed), rng.New(seed)
		want := make([]Ref, int(n)%4096)
		whole.Fill(rw, want)
		got := make([]Ref, len(want))
		pos := 0
		for _, c := range cuts {
			k := min(int(c)%64, len(got)-pos)
			chunked.Fill(rc, got[pos:pos+k])
			pos += k
		}
		chunked.Fill(rc, got[pos:])
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("reference %d of %d: chunked fill %+v, one fill %+v", i, len(want), got[i], want[i])
			}
		}
		if *rc != *rw {
			t.Fatal("chunked fills left the generator in a different state")
		}
		tailW, tailC := make([]Ref, 64), make([]Ref, 64)
		whole.Fill(rw, tailW)
		chunked.Fill(rc, tailC)
		if !sameRefs(tailW, tailC) || *rc != *rw {
			t.Fatal("chunked fills left the pattern in a different state")
		}
	})
}
