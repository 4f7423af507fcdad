// Package memmodel provides the memory-management building blocks of the
// subpage system: per-page subpage valid bitmaps, a page table with LRU
// replacement, a TLB model for the small-page comparison, and the PALcode
// load/store emulation cost model of the prototype (Table 1).
package memmodel

import (
	"fmt"
	"math/bits"

	"github.com/gms-sim/gmsubpage/internal/units"
)

// Bitmap holds the 32 subpage valid bits of one 8 KB page, one bit per
// 256-byte block, exactly as the prototype's PALcode keeps them. Subpages
// larger than 256 bytes set runs of bits, so a single representation covers
// every subpage size.
type Bitmap uint32

// FullBitmap has every valid bit set: the page is complete.
const FullBitmap Bitmap = 1<<units.ValidBitsPerPage - 1

// MaskFor returns the bits covered by subpage index idx when the page is
// divided into subpages of the given size. It panics on an invalid size or
// out-of-range index; both are configuration errors.
func MaskFor(subpageSize, idx int) Bitmap {
	if !units.ValidSubpageSize(subpageSize) {
		panic(fmt.Sprintf("memmodel: invalid subpage size %d", subpageSize))
	}
	// Sizes are powers of two: the subpage count is a shift, and dividing
	// by the constant MinSubpage compiles to one.
	if idx < 0 || idx >= units.PageSize>>bits.TrailingZeros(uint(subpageSize)) {
		panic(fmt.Sprintf("memmodel: subpage index %d out of range for size %d", idx, subpageSize))
	}
	bitsPer := subpageSize / units.MinSubpage
	run := Bitmap(1)<<bitsPer - 1
	return run << (idx * bitsPer)
}

// SubpageIndex returns the subpage (of the given size) containing the byte
// at offset off within the page.
func SubpageIndex(subpageSize, off int) int {
	if off < 0 || off >= units.PageSize {
		panic(fmt.Sprintf("memmodel: offset %d out of page", off))
	}
	return off / subpageSize
}

// Set marks the given bits valid.
func (b Bitmap) Set(mask Bitmap) Bitmap { return b | mask }

// BlockMask returns the single valid bit of the 256-byte block containing
// the byte at offset off.
func BlockMask(off int) Bitmap {
	if off < 0 || off >= units.PageSize {
		panic(fmt.Sprintf("memmodel: offset %d out of page", off))
	}
	return 1 << (off / units.MinSubpage)
}

// Has reports whether the byte at offset off is valid.
func (b Bitmap) Has(off int) bool {
	if off < 0 || off >= units.PageSize {
		return false
	}
	return b&(1<<(off/units.MinSubpage)) != 0
}

// HasAll reports whether every bit of mask is valid.
func (b Bitmap) HasAll(mask Bitmap) bool { return b&mask == mask }

// Full reports whether the page is complete.
func (b Bitmap) Full() bool { return b == FullBitmap }

// Count returns the number of valid 256-byte blocks.
func (b Bitmap) Count() int { return bits.OnesCount32(uint32(b)) }

// String renders the bitmap LSB-first, '1' for valid blocks, for debugging.
func (b Bitmap) String() string {
	buf := make([]byte, units.ValidBitsPerPage)
	for i := range buf {
		if b&(1<<i) != 0 {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}
