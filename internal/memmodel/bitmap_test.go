package memmodel

import (
	"testing"
	"testing/quick"

	"github.com/gms-sim/gmsubpage/internal/rng"
	"github.com/gms-sim/gmsubpage/internal/units"
)

var subpageSizes = []int{256, 512, 1024, 2048, 4096, 8192}

func TestMaskForCoversWholePage(t *testing.T) {
	for _, size := range subpageSizes {
		var acc Bitmap
		n := units.SubpagesPerPage(size)
		for i := 0; i < n; i++ {
			m := MaskFor(size, i)
			if acc&m != 0 {
				t.Fatalf("size %d: subpage %d overlaps earlier subpages", size, i)
			}
			acc |= m
		}
		if !acc.Full() {
			t.Fatalf("size %d: union of subpage masks is %s, not full", size, acc)
		}
	}
}

func TestMaskForBitCounts(t *testing.T) {
	for _, size := range subpageSizes {
		want := size / units.MinSubpage
		if got := MaskFor(size, 0).Count(); got != want {
			t.Errorf("size %d: mask has %d bits, want %d", size, got, want)
		}
	}
}

func TestMaskForPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MaskFor(1024, 8) should panic")
		}
	}()
	MaskFor(1024, 8)
}

// TestMaskForPanicsOnInvalidSize: a size that is not a power of two in
// [MinSubpage, PageSize] panics, whatever the index.
func TestMaskForPanicsOnInvalidSize(t *testing.T) {
	for _, size := range []int{0, -1024, 128, 768, 3000, 2 * units.PageSize} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MaskFor(%d, 0) should panic", size)
				}
			}()
			MaskFor(size, 0)
		}()
	}
}

func TestSubpageIndexConsistentWithMask(t *testing.T) {
	f := func(rawOff uint16, sizeIdx uint8) bool {
		off := int(rawOff) % units.PageSize
		size := subpageSizes[int(sizeIdx)%len(subpageSizes)]
		idx := SubpageIndex(size, off)
		// The byte at off must be covered exactly by its subpage's mask.
		if !MaskFor(size, idx).Has(off) {
			return false
		}
		// And by no other subpage.
		for i := 0; i < units.SubpagesPerPage(size); i++ {
			if i != idx && MaskFor(size, i).Has(off) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBitmapSetHasAlgebra(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := Bitmap(a), Bitmap(b)
		u := x.Set(y)
		// Union contains both operands.
		if !u.HasAll(x&FullBitmap) || !u.HasAll(y&FullBitmap) {
			return false
		}
		// Idempotent.
		if u.Set(y) != u {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHasOffsets(t *testing.T) {
	b := MaskFor(1024, 2) // bytes 2048..3071
	if b.Has(2047) {
		t.Error("Has(2047) should be false")
	}
	if !b.Has(2048) || !b.Has(3071) {
		t.Error("subpage interior should be valid")
	}
	if b.Has(3072) {
		t.Error("Has(3072) should be false")
	}
	if b.Has(-1) || b.Has(units.PageSize) {
		t.Error("out-of-page offsets should be invalid")
	}
}

func TestCount(t *testing.T) {
	if FullBitmap.Count() != units.ValidBitsPerPage {
		t.Errorf("full count = %d", FullBitmap.Count())
	}
	if Bitmap(0).Count() != 0 {
		t.Error("zero count should be 0")
	}
	if Bitmap(0b1011).Count() != 3 {
		t.Error("count of 0b1011 should be 3")
	}
}

// TestCountMatchesBitLoop holds Count to the clear-lowest-bit loop over
// seeded random bitmaps of every density.
func TestCountMatchesBitLoop(t *testing.T) {
	r := rng.New(29)
	for i := 0; i < 100_000; i++ {
		b := Bitmap(r.Uint64())
		for k := i % 4; k > 0; k-- {
			b &= Bitmap(r.Uint64()) // sparser
		}
		want := 0
		for v := uint32(b); v != 0; v &= v - 1 {
			want++
		}
		if got := b.Count(); got != want {
			t.Fatalf("Count(%032b) = %d, want %d", uint32(b), got, want)
		}
	}
}

func TestString(t *testing.T) {
	s := Bitmap(0b101).String()
	if len(s) != units.ValidBitsPerPage || s[:4] != "1010" {
		t.Errorf("String = %q", s)
	}
}
