package dirlog

import (
	"reflect"
	"sort"
)

// State is the durable portion of a directory's lease table: what a
// replayed journal reconstructs, what a snapshot compacts, and the very
// table a live directory serves from — servers with their epochs,
// seniority and pages; the per-address epoch memory that survives lease
// expiry; and draining marks. The volatile parts (connections, metrics,
// service-time emulation) live beside it and recovery rebuilds them empty.
type State struct {
	Meta     Meta   // identity of the journal replayed into this state
	Seq      uint64 // high-water registration seniority counter
	Epochs   map[string]uint64
	Servers  map[string]*ServerState
	Draining map[string]bool
	// Holders indexes Servers by page; Apply keeps it, with no empty sets.
	Holders  map[uint64]map[string]struct{}
	Complete bool // a replayed snapshot carried its SnapEnd terminator
}

// ServerState is one recorded registration.
type ServerState struct {
	Epoch   uint64
	Seq     uint64
	Expires int64 // absolute lease expiry, Unix nanoseconds
	Pages   map[uint64]struct{}
}

// NewState returns an empty state.
func NewState() *State {
	return &State{
		Epochs:   make(map[string]uint64),
		Servers:  make(map[string]*ServerState),
		Draining: make(map[string]bool),
		Holders:  make(map[uint64]map[string]struct{}),
	}
}

// Apply folds one record into the state. It is the lease table's only
// transition function — the live directory decides which records to emit
// and applies them here, replay applies the journaled copies — so a
// replayed journal lands on the table the directory held when it wrote
// it. A Register below the remembered epoch is ignored, a higher epoch
// fences out the old incarnation, renewals only extend a matching
// registration, and expunge keeps the epoch memory.
func (st *State) Apply(r Record) {
	switch m := r.(type) {
	case Meta:
		st.Meta = m
	case Register:
		cur := st.Epochs[m.Addr]
		if m.Epoch < cur {
			return // stale incarnation; rejected live, rejected on replay
		}
		if m.Epoch > cur {
			st.expunge(m.Addr)
			st.Epochs[m.Addr] = m.Epoch
		}
		s := st.Servers[m.Addr]
		if s == nil {
			s = &ServerState{Epoch: m.Epoch, Seq: m.Seq, Pages: make(map[uint64]struct{})}
			st.Servers[m.Addr] = s
		}
		s.Expires = m.Expires
		for _, p := range m.Pages {
			s.Pages[p] = struct{}{}
			holders := st.Holders[p]
			if holders == nil {
				holders = make(map[string]struct{})
				st.Holders[p] = holders
			}
			holders[m.Addr] = struct{}{}
		}
		if m.Seq > st.Seq {
			st.Seq = m.Seq
		}
	case RenewBatch:
		for _, rn := range m.Renews {
			if s := st.Servers[rn.Addr]; s != nil && s.Epoch == rn.Epoch && rn.Expires > s.Expires {
				s.Expires = rn.Expires
			}
		}
	case Expunge:
		for _, a := range m.Addrs {
			st.expunge(a)
		}
	case Drain:
		st.Draining[m.Addr] = true
	case DrainAbort:
		delete(st.Draining, m.Addr)
	case Fence:
		if m.Epoch > st.Epochs[m.Addr] {
			st.Epochs[m.Addr] = m.Epoch
		}
		if s := st.Servers[m.Addr]; s != nil && s.Epoch < m.Epoch {
			st.expunge(m.Addr)
		}
	case SnapEnd:
		st.Complete = true
	}
}

// expunge drops addr's registration, its replicas and its draining mark:
// a drain ends with the registration it was draining.
func (st *State) expunge(addr string) {
	s := st.Servers[addr]
	if s == nil {
		return
	}
	for p := range s.Pages {
		holders := st.Holders[p]
		delete(holders, addr)
		if len(holders) == 0 {
			delete(st.Holders, p)
		}
	}
	delete(st.Servers, addr)
	delete(st.Draining, addr)
}

// Records returns the canonical compacted encoding of the state: the
// record stream a snapshot writes (meta and terminator excluded — the
// snapshot writer frames those). Deterministic: entries are emitted in
// sorted address order with sorted page lists.
func (st *State) Records() []Record {
	var recs []Record
	// Epoch memory first: fences for every address, so a Register replayed
	// after them can never be out-fenced by ordering.
	for _, addr := range sortedKeys(st.Epochs) {
		recs = append(recs, Fence{Addr: addr, Epoch: st.Epochs[addr]})
	}
	for _, addr := range sortedKeys(st.Servers) {
		s := st.Servers[addr]
		pages := make([]uint64, 0, len(s.Pages))
		for p := range s.Pages {
			pages = append(pages, p)
		}
		sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
		recs = append(recs, Register{Addr: addr, Epoch: s.Epoch, Seq: s.Seq, Expires: s.Expires, Pages: pages})
	}
	for _, addr := range sortedKeys(st.Draining) {
		recs = append(recs, Drain{Addr: addr})
	}
	return recs
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Clone returns a deep copy of the state: its canonical records replayed
// into a fresh one, with the scalar fields carried over.
func (st *State) Clone() *State {
	c := NewState()
	for _, r := range st.Records() {
		c.Apply(r)
	}
	c.Meta, c.Seq, c.Complete = st.Meta, st.Seq, st.Complete
	c.Meta.Shards = append([]string(nil), st.Meta.Shards...)
	return c
}

// Equal reports whether two states hold the same lease table: their
// canonical records match — epochs, registrations (epoch, seniority,
// pages) and draining marks. Expiry times are compared only when
// withExpiry is set — recovery rewrites them with the restart grace
// window, so equivalence checks usually exclude them. Meta, Seq and
// Complete are excluded.
func (st *State) Equal(o *State, withExpiry bool) bool {
	a, b := st.Records(), o.Records()
	if !withExpiry {
		for _, recs := range [][]Record{a, b} {
			for i, r := range recs {
				if reg, ok := r.(Register); ok {
					reg.Expires = 0
					recs[i] = reg
				}
			}
		}
	}
	return reflect.DeepEqual(a, b)
}
