package memmodel

// PageID identifies a virtual page.
type PageID int64

// Frame is one resident page of local memory. The simulator attaches
// in-flight transfer state to the frame; memmodel itself only tracks
// residency, validity and recency.
type Frame struct {
	Page  PageID
	Valid Bitmap

	// Xfer is the owner's in-flight transfer for this page (nil when no
	// transfer is outstanding). It is opaque to memmodel.
	Xfer any

	// DistFrom is the subpage index of the page's initial fault while
	// the owner is still waiting to observe the first access to a
	// *different* subpage (the Figure 7 measurement), or -1.
	DistFrom int16

	// Prefetched marks blocks that arrived speculatively (beyond the
	// faulted subpage) and have not been accessed yet. Only maintained
	// when the owner tracks prefetch usage; each bit is cleared — and
	// counted as a used prefetch — on the first access to it.
	Prefetched Bitmap

	prev, next *Frame // LRU list, most recent at head
}

// PageTable is a fixed-capacity page table with LRU replacement over
// resident pages. The zero value is not usable; construct with
// NewPageTable.
//
// Residency is an open-addressed hash table: a slot array whose length is a
// power of two of at least twice the capacity (so a probe always meets an
// empty slot), a multiplicative hash, linear probing, and backward-shift
// deletion, which leaves no tombstones behind. A slot carries its page so a
// probe reads no frame.
type PageTable struct {
	capacity int
	n        int    // resident pages
	slots    []slot // len a power of two >= 2*capacity
	shift    uint   // 64 - log2(len(slots)): the hash's top bits pick the home slot
	head     *Frame // most recently used
	tail     *Frame // least recently used

	// lastFrame short-circuits the common case of repeated references to
	// the same page, so per-reference cost is a pointer compare.
	lastFrame *Frame

	// spare is the frame the previous Insert evicted; the next Insert
	// reuses it.
	spare *Frame
}

// slot is one entry of the open-addressed table; f is nil when it is empty.
type slot struct {
	page PageID
	f    *Frame
}

// NewPageTable returns a table holding at most capacity resident pages.
// Capacity must be positive.
func NewPageTable(capacity int) *PageTable {
	if capacity <= 0 {
		panic("memmodel: page table capacity must be positive")
	}
	bits := uint(1)
	for 1<<bits < 2*capacity {
		bits++
	}
	return &PageTable{
		capacity: capacity,
		slots:    make([]slot, 1<<bits),
		shift:    64 - bits,
	}
}

// Capacity returns the maximum number of resident pages.
func (pt *PageTable) Capacity() int { return pt.capacity }

// Len returns the number of resident pages.
func (pt *PageTable) Len() int { return pt.n }

// home is the slot a page's probe starts at (Fibonacci hashing).
func (pt *PageTable) home(page PageID) int {
	return int(uint64(page) * 0x9e3779b97f4a7c15 >> pt.shift)
}

// find returns the index of page's slot, or of the empty slot that ends its
// probe when it is not resident.
func (pt *PageTable) find(page PageID) (int, bool) {
	mask := len(pt.slots) - 1
	for i := pt.home(page); ; i = (i + 1) & mask {
		if s := &pt.slots[i]; s.f == nil || s.page == page {
			return i, s.f != nil
		}
	}
}

// Lookup returns the frame for page and promotes it to most-recently-used,
// or nil if the page is not resident.
func (pt *PageTable) Lookup(page PageID) *Frame {
	if f := pt.lastFrame; f != nil && f.Page == page {
		return f
	}
	return pt.lookup(page)
}

// lookup is Lookup past the last-frame compare, kept out of line so that
// compare inlines into callers.
func (pt *PageTable) lookup(page PageID) *Frame {
	i, ok := pt.find(page)
	if !ok {
		return nil
	}
	f := pt.slots[i].f
	pt.touch(f)
	pt.lastFrame = f
	return f
}

// Peek returns the frame without promoting it.
func (pt *PageTable) Peek(page PageID) *Frame {
	i, _ := pt.find(page)
	return pt.slots[i].f
}

// Insert makes page resident with the given valid bits, evicting the LRU
// page first if the table is full. It returns the new frame and the evicted
// frame (nil if none). The evicted frame is valid only until the next
// Insert, which reuses it. Inserting an already-resident page panics;
// callers must Lookup first.
func (pt *PageTable) Insert(page PageID, valid Bitmap) (f, evicted *Frame) {
	i, ok := pt.find(page)
	if ok {
		panic("memmodel: Insert of resident page")
	}
	f, pt.spare = pt.spare, nil
	if pt.n >= pt.capacity {
		evicted = pt.evictLRU()
		pt.spare = evicted
		i, _ = pt.find(page) // the eviction may have shifted page's probe
	}
	if f == nil {
		f = new(Frame)
	}
	*f = Frame{Page: page, Valid: valid, DistFrom: -1}
	pt.slots[i] = slot{page: page, f: f}
	pt.n++
	pt.pushFront(f)
	pt.lastFrame = f
	return f, evicted
}

// Remove evicts a specific page, returning its frame or nil.
func (pt *PageTable) Remove(page PageID) *Frame {
	i, ok := pt.find(page)
	if !ok {
		return nil
	}
	f := pt.slots[i].f
	pt.drop(i, f)
	return f
}

// LRU returns the least-recently-used frame without removing it, or nil.
func (pt *PageTable) LRU() *Frame { return pt.tail }

// evictLRU removes and returns the least-recently-used frame.
func (pt *PageTable) evictLRU() *Frame {
	victim := pt.tail
	if victim == nil {
		return nil
	}
	i, _ := pt.find(victim.Page)
	pt.drop(i, victim)
	return victim
}

// drop unlinks f, whose page is in slot i, and empties the slot.
func (pt *PageTable) drop(i int, f *Frame) {
	pt.unlink(f)
	pt.deleteSlot(i)
	pt.n--
	if pt.lastFrame == f {
		pt.lastFrame = nil
	}
}

// deleteSlot empties slot i by backward shift: each later entry of the
// probe cluster moves into the hole when the hole lies on its probe path —
// at or after its home slot, cyclically — which keeps every probe unbroken.
func (pt *PageTable) deleteSlot(i int) {
	mask := len(pt.slots) - 1
	for j := (i + 1) & mask; pt.slots[j].f != nil; j = (j + 1) & mask {
		if h := pt.home(pt.slots[j].page); (j-h)&mask >= (j-i)&mask {
			pt.slots[i] = pt.slots[j]
			i = j
		}
	}
	pt.slots[i] = slot{}
}

func (pt *PageTable) touch(f *Frame) {
	if pt.head == f {
		return
	}
	pt.unlink(f)
	pt.pushFront(f)
}

func (pt *PageTable) pushFront(f *Frame) {
	f.prev = nil
	f.next = pt.head
	if pt.head != nil {
		pt.head.prev = f
	}
	pt.head = f
	if pt.tail == nil {
		pt.tail = f
	}
}

func (pt *PageTable) unlink(f *Frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		pt.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		pt.tail = f.prev
	}
	f.prev, f.next = nil, nil
}

// Pages returns the resident pages from most to least recently used.
// Intended for tests and debugging.
func (pt *PageTable) Pages() []PageID {
	var out []PageID
	for f := pt.head; f != nil; f = f.next {
		out = append(out, f.Page)
	}
	return out
}
