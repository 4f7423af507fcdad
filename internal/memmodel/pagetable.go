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
type PageTable struct {
	capacity int
	frames   map[PageID]*Frame
	head     *Frame // most recently used
	tail     *Frame // least recently used

	// lastFrame short-circuits the common case of repeated references to
	// the same page, so per-reference cost is a pointer compare.
	lastFrame *Frame

	// spare is the frame the previous Insert evicted; the next Insert
	// reuses it.
	spare *Frame
}

// NewPageTable returns a table holding at most capacity resident pages.
// Capacity must be positive.
func NewPageTable(capacity int) *PageTable {
	if capacity <= 0 {
		panic("memmodel: page table capacity must be positive")
	}
	return &PageTable{
		capacity: capacity,
		frames:   make(map[PageID]*Frame, capacity),
	}
}

// Capacity returns the maximum number of resident pages.
func (pt *PageTable) Capacity() int { return pt.capacity }

// Len returns the number of resident pages.
func (pt *PageTable) Len() int { return len(pt.frames) }

// Lookup returns the frame for page and promotes it to most-recently-used,
// or nil if the page is not resident.
func (pt *PageTable) Lookup(page PageID) *Frame {
	if f := pt.lastFrame; f != nil && f.Page == page {
		return f
	}
	f := pt.frames[page]
	if f == nil {
		return nil
	}
	pt.touch(f)
	pt.lastFrame = f
	return f
}

// Peek returns the frame without promoting it.
func (pt *PageTable) Peek(page PageID) *Frame { return pt.frames[page] }

// Insert makes page resident with the given valid bits, evicting the LRU
// page first if the table is full. It returns the new frame and the evicted
// frame (nil if none). The evicted frame is valid only until the next
// Insert, which reuses it. Inserting an already-resident page panics;
// callers must Lookup first.
func (pt *PageTable) Insert(page PageID, valid Bitmap) (f, evicted *Frame) {
	if pt.frames[page] != nil {
		panic("memmodel: Insert of resident page")
	}
	f, pt.spare = pt.spare, nil
	if len(pt.frames) >= pt.capacity {
		evicted = pt.evictLRU()
		pt.spare = evicted
	}
	if f == nil {
		f = new(Frame)
	}
	*f = Frame{Page: page, Valid: valid, DistFrom: -1}
	pt.frames[page] = f
	pt.pushFront(f)
	pt.lastFrame = f
	return f, evicted
}

// Remove evicts a specific page, returning its frame or nil.
func (pt *PageTable) Remove(page PageID) *Frame {
	f := pt.frames[page]
	if f == nil {
		return nil
	}
	pt.unlink(f)
	delete(pt.frames, page)
	if pt.lastFrame == f {
		pt.lastFrame = nil
	}
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
	pt.unlink(victim)
	delete(pt.frames, victim.Page)
	if pt.lastFrame == victim {
		pt.lastFrame = nil
	}
	return victim
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
