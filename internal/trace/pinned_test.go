package trace

import (
	"fmt"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/units"
)

// streamDigest summarizes a reference stream: its length, its maximal
// same-page runs and an FNV-64a hash of its references.
type streamDigest struct {
	refs, runs int64
	fnv        uint64
}

// digestStream hashes each reference as its packed in-page form,
// offset<<1|store, in 2 bytes, after — at each page change — the marker
// 0xFFFF and the page's 8 bytes. A packed value is below 2¹⁴, never the
// marker, so the bytes determine the stream. Two bytes per reference rather
// than the 9 of (Addr, Store) keep hashing a small share of the test's time.
func digestStream(rd Reader) streamDigest {
	const prime = 1099511628211
	put := func(h, v uint64, bytes int) uint64 {
		for ; bytes > 0; bytes, v = bytes-1, v>>8 {
			h = (h ^ v&0xff) * prime
		}
		return h
	}
	d := streamDigest{fnv: 14695981039346656037}
	page := ^uint64(0)
	buf := make([]Ref, 8192)
	for n := rd.Read(buf); n > 0; n = rd.Read(buf) {
		h := d.fnv
		for _, ref := range buf[:n] {
			if p := ref.Addr / units.PageSize; p != page {
				page = p
				d.runs++
				h = put(put(h, 0xffff, 2), p, 8)
			}
			v := ref.Addr % units.PageSize << 1
			if ref.Store {
				v |= 1
			}
			h = (h ^ v&0xff) * prime // put(h, v, 2), unrolled
			h = (h ^ v>>8) * prime
		}
		d.fnv = h
		d.refs += int64(n)
	}
	return d
}

// pinnedStreams are the paper apps' streams as the generators have always
// drawn them. Every table in experiments_*.txt is computed from these
// streams, so a generator change that moves one digest moves the tables: a
// faster generator must keep every draw, in order.
var pinnedStreams = map[string]streamDigest{
	"modula3@0.05": {4350000, 133759, 5578206266765742782},
	"ld@0.05":      {5100000, 206170, 1130422716251389956},
	"atom@0.05":    {3650000, 115283, 13800618972193612366},
	"render@0.05":  {12249992, 358793, 16455500255732212334},
	"gdb@0.05":     {29400, 524, 7227291265560489525},
	"modula3@0.1":  {8700000, 276344, 12336082424024738869},
	"ld@0.1":       {10200000, 422004, 6518638957350787474},
	"atom@0.1":     {7300000, 237788, 3885366517735030711},
	"render@0.1":   {24500000, 762415, 8994131691911183859},
	"gdb@0.1":      {51800, 945, 5020421976120583341},
	"modula3@0.25": {21750000, 728780, 13881522227181716739},
	"ld@0.25":      {25500000, 1072125, 15601800255005416013},
	"atom@0.25":    {18250000, 613769, 15038066408973780470},
	"render@0.25":  {61249992, 1985210, 8304611638550618298},
	"gdb@0.25":     {126000, 2565, 15980096365303808899},
}

// TestAppStreamsPinned reads each paper app's stream once from the
// generators and once from the memo, and checks both against the pinned
// length, page-run count and digest.
func TestAppStreamsPinned(t *testing.T) {
	scales := []float64{0.05, 0.1, 0.25}
	if testing.Short() {
		scales = scales[:2]
	}
	for _, scale := range scales {
		for _, app := range Apps(scale) {
			key := fmt.Sprintf("%s@%g", app.Name, scale)
			want := pinnedStreams[key]
			if got := digestStream(app.generatorReader()); got != want {
				t.Errorf("%s generated: %+v, pinned %+v", key, got, want)
			}
			resetCache()
			rd := app.NewReader()
			if _, ok := rd.(*packedReader); !ok {
				t.Fatalf("%s: stream not memoized", key)
			}
			if got := digestStream(rd); got != want {
				t.Errorf("%s memoized: %+v, pinned %+v", key, got, want)
			}
			if runs := int64(len(cacheFor(app).runs)); runs != want.runs {
				t.Errorf("%s: memo holds %d runs, pinned %d", key, runs, want.runs)
			}
			resetCache()
		}
	}
}
