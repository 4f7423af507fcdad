package memmodel

import (
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

// TestLRUMatchesReference drives the table with random operations and
// compares against a simple slice-based reference implementation.
func TestLRUMatchesReference(t *testing.T) {
	type op struct {
		Page   uint8
		Lookup bool
	}
	f := func(ops []op) bool {
		const capacity = 4
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
			p := PageID(o.Page % 8)
			if o.Lookup {
				got := pt.Lookup(p)
				i := refFind(p)
				if (got != nil) != (i >= 0) {
					return false
				}
				if i > 0 {
					ref = append(ref[:i], ref[i+1:]...)
					ref = append([]PageID{p}, ref...)
				}
			} else if pt.Peek(p) == nil {
				_, ev := pt.Insert(p, 0)
				var refEv PageID = -1
				if len(ref) >= capacity {
					refEv = ref[len(ref)-1]
					ref = ref[:len(ref)-1]
				}
				ref = append([]PageID{p}, ref...)
				if (ev != nil) != (refEv >= 0) {
					return false
				}
				if ev != nil && ev.Page != refEv {
					return false
				}
			}
			// Residency sets must match.
			if pt.Len() != len(ref) {
				return false
			}
			got := pt.Pages()
			for i := range got {
				if got[i] != ref[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
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
