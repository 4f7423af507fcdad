package memmodel

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestInsertLookup(t *testing.T) {
	pt := NewPageTable(2)
	f, ev := pt.Insert(1, 0)
	if ev != nil || f.Page != 1 || f.Xfer != nil || f.DistFrom != -1 {
		t.Fatalf("bad insert: %+v evicted %+v", f, ev)
	}
	if got := pt.Lookup(1); got != f {
		t.Fatal("Lookup should return the inserted frame")
	}
	if pt.Lookup(99) != nil {
		t.Fatal("Lookup of absent page should be nil")
	}
}

func TestLRUEviction(t *testing.T) {
	pt := NewPageTable(3)
	pt.Insert(1, 0)
	pt.Insert(2, 0)
	pt.Insert(3, 0)
	pt.Lookup(1) // 1 becomes MRU; order now 1,3,2
	_, ev := pt.Insert(4, 0)
	if ev == nil || ev.Page != 2 {
		t.Fatalf("evicted %+v, want page 2", ev)
	}
	_, ev = pt.Insert(5, 0)
	if ev == nil || ev.Page != 3 {
		t.Fatalf("evicted %+v, want page 3", ev)
	}
}

func TestRepeatedLookupFastPathPreservesOrder(t *testing.T) {
	pt := NewPageTable(2)
	pt.Insert(1, 0)
	pt.Insert(2, 0)
	// Hammer the fast path on 2, then touch 1, then insert: 2 must stay
	// more recent than... actually 1 was touched last, so 2 is evicted.
	for i := 0; i < 10; i++ {
		pt.Lookup(2)
	}
	pt.Lookup(1)
	_, ev := pt.Insert(3, 0)
	if ev == nil || ev.Page != 2 {
		t.Fatalf("evicted %+v, want page 2", ev)
	}
}

func TestRemove(t *testing.T) {
	pt := NewPageTable(2)
	pt.Insert(1, 0)
	pt.Insert(2, 0)
	if f := pt.Remove(1); f == nil || f.Page != 1 {
		t.Fatal("Remove(1) failed")
	}
	if pt.Remove(1) != nil {
		t.Fatal("second Remove should be nil")
	}
	if pt.Len() != 1 {
		t.Fatalf("Len = %d, want 1", pt.Len())
	}
	// Removed page no longer evictable; a new insert should not evict.
	if _, ev := pt.Insert(3, 0); ev != nil {
		t.Fatalf("unexpected eviction %+v", ev)
	}
}

// TestInsertReusesEvictedFrame: the frame an Insert evicts keeps its state
// until the next Insert, which hands it out again cleared.
func TestInsertReusesEvictedFrame(t *testing.T) {
	pt := NewPageTable(1)
	f1, _ := pt.Insert(1, FullBitmap)
	f1.Xfer, f1.Prefetched, f1.DistFrom = "in flight", 3, 2
	f2, ev := pt.Insert(2, 0)
	if ev != f1 || ev.Page != 1 || ev.Valid != FullBitmap || ev.Xfer != "in flight" {
		t.Fatalf("evicted frame %+v lost its state before the next Insert", ev)
	}
	f3, ev := pt.Insert(3, 5)
	if f3 != f1 || ev != f2 {
		t.Fatalf("Insert did not reuse the previously evicted frame")
	}
	if f3.Page != 3 || f3.Valid != 5 || f3.Xfer != nil || f3.Prefetched != 0 || f3.DistFrom != -1 {
		t.Fatalf("reused frame not cleared: %+v", f3)
	}
	if pt.Lookup(3) != f3 || pt.Peek(1) != nil || pt.Len() != 1 {
		t.Fatal("table state wrong after reuse")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		p := pt.LRU().Page + 1
		pt.Insert(p, 0)
	}); allocs != 0 {
		t.Fatalf("steady-state Insert allocates %v objects, want 0", allocs)
	}
}

func TestInsertResidentPanics(t *testing.T) {
	pt := NewPageTable(2)
	pt.Insert(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Insert of resident page should panic")
		}
	}()
	pt.Insert(1, 0)
}

func TestPeekDoesNotPromote(t *testing.T) {
	pt := NewPageTable(2)
	pt.Insert(1, 0)
	pt.Insert(2, 0) // order 2,1
	pt.Peek(1)      // must not promote 1
	_, ev := pt.Insert(3, 0)
	if ev == nil || ev.Page != 1 {
		t.Fatalf("evicted %+v, want page 1", ev)
	}
}

// collidingPages returns n distinct pages, negative ones among them, whose
// home slots in pt are the table's first two or last two: their probe
// clusters collide and wrap around the end of the slot array, which is where
// backward-shift deletion can go wrong.
func collidingPages(pt *PageTable, n int) []PageID {
	last := len(pt.slots) - 1
	var out []PageID
	for k := int64(0); len(out) < n; k++ {
		p := PageID(k / 2)
		if k%2 == 1 {
			p = -p - 1
		}
		if h := pt.home(p); h <= 1 || h >= last-1 {
			out = append(out, p)
		}
	}
	return out
}

// ptOp is one operation of TestLRUMatchesReference: Kind%3 picks Lookup,
// Insert (of a non-resident page) or Remove; Page indexes the page set.
type ptOp struct {
	Page uint16
	Kind uint8
}

// TestLRUMatchesReference drives tables of capacity 1 to 64 with random
// Lookup, Insert and Remove operations over pages that share home slots,
// and compares against a slice-based reference: the same evictions, the
// same recency order, and every page of the set found by Peek exactly when
// the reference holds it.
func TestLRUMatchesReference(t *testing.T) {
	for capacity := 1; capacity <= 64; capacity++ {
		pages := collidingPages(NewPageTable(capacity), capacity+capacity/2+2)
		f := func(ops []ptOp) bool {
			pt := NewPageTable(capacity)
			var ref []PageID // MRU first
			refFind := func(p PageID) int {
				for i, v := range ref {
					if v == p {
						return i
					}
				}
				return -1
			}
			for _, o := range ops {
				p := pages[int(o.Page)%len(pages)]
				i := refFind(p)
				switch o.Kind % 3 {
				case 0:
					got := pt.Lookup(p)
					if (got != nil) != (i >= 0) || got != nil && got.Page != p {
						return false
					}
					if i > 0 {
						ref = append(ref[:i], ref[i+1:]...)
						ref = append([]PageID{p}, ref...)
					}
				case 1:
					if i >= 0 {
						continue
					}
					_, ev := pt.Insert(p, 0)
					var refEv *PageID
					if len(ref) >= capacity {
						refEv = &ref[len(ref)-1]
						ref = ref[:len(ref)-1]
					}
					if (ev != nil) != (refEv != nil) || ev != nil && ev.Page != *refEv {
						return false
					}
					ref = append([]PageID{p}, ref...)
				case 2:
					got := pt.Remove(p)
					if (got != nil) != (i >= 0) || got != nil && got.Page != p {
						return false
					}
					if i >= 0 {
						ref = append(ref[:i], ref[i+1:]...)
					}
				}
				if pt.Len() != len(ref) || !slices.Equal(pt.Pages(), ref) {
					return false
				}
				for _, q := range pages {
					if f := pt.Peek(q); (f != nil) != (refFind(q) >= 0) || f != nil && f.Page != q {
						return false
					}
				}
			}
			return true
		}
		cfg := &quick.Config{
			MaxCount: 20,
			Rand:     rand.New(rand.NewSource(int64(capacity))),
			// Long enough to fill the table and churn it several times.
			Values: func(args []reflect.Value, r *rand.Rand) {
				ops := make([]ptOp, r.Intn(12*capacity+64))
				for i := range ops {
					ops[i] = ptOp{Page: uint16(r.Intn(len(pages))), Kind: uint8(r.Intn(3))}
				}
				args[0] = reflect.ValueOf(ops)
			},
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
	}
}

// TestPageTableAllocs: once the table is full and has evicted once, Lookup
// and Insert allocate nothing.
func TestPageTableAllocs(t *testing.T) {
	const capacity = 64
	pt := NewPageTable(capacity)
	next := PageID(-capacity)
	for ; next <= 0; next++ {
		pt.Insert(next, FullBitmap)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		pt.Insert(next, FullBitmap)
		if pt.Lookup(next-capacity/2) == nil || pt.Lookup(next) == nil || pt.Lookup(next-capacity) != nil {
			t.Fatal("residency wrong")
		}
		next++
	}); allocs != 0 {
		t.Fatalf("steady-state Lookup/Insert allocates %v objects, want 0", allocs)
	}
}

func TestCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPageTable(0) should panic")
		}
	}()
	NewPageTable(0)
}

var sinkFrame *Frame

// BenchmarkPageTableLookup times the two kinds of resident lookup the
// simulator's reference loop makes: Hit repeats the page just touched (the
// last-frame compare), Change moves to another resident page (map lookup
// and LRU promotion) — what a page run costs once however long it is.
func BenchmarkPageTableLookup(b *testing.B) {
	const capacity = 1024
	pt := NewPageTable(capacity)
	for p := 0; p < capacity; p++ {
		pt.Insert(PageID(p), FullBitmap)
	}
	b.Run("Hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkFrame = pt.Lookup(7)
		}
	})
	b.Run("Change", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkFrame = pt.Lookup(PageID((i * 2654435761) & (capacity - 1)))
		}
	})
}
