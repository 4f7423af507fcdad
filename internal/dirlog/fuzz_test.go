package dirlog

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzDecode holds the journal framing to the same contract as the wire
// protocol's FuzzDecode: arbitrary bytes never panic, and every input
// yields either a clean truncation point (what crash recovery truncates
// to) or a typed *CorruptError — never a partial parse that loses the
// distinction. Replay through State.Apply must likewise never panic,
// whatever values the records carry.
func FuzzDecode(f *testing.F) {
	// Well-formed streams: every record type, singly and combined.
	f.Add(appendRecord(nil, Meta{Gen: 1, ShardVersion: 2, Shards: []string{"a:1", "b:2"}, Self: 1}))
	f.Add(appendRecord(nil, Register{Addr: "a:1", Epoch: 7, Seq: 3, Expires: -1, Pages: []uint64{0, 1, 1 << 60}}))
	f.Add(appendRecord(nil, RenewBatch{Renews: []Renew{{Addr: "a:1", Epoch: 7, Expires: 9}}}))
	f.Add(appendRecord(nil, Expunge{Addrs: []string{"a:1", ""}}))
	f.Add(appendRecord(nil, Drain{Addr: "a:1"}))
	f.Add(appendRecord(nil, DrainAbort{Addr: "a:1"}))
	f.Add(appendRecord(nil, Fence{Addr: "a:1", Epoch: 8}))
	f.Add(appendRecord(nil, SnapEnd{}))
	var stream []byte
	for _, r := range scenario() {
		stream = appendRecord(stream, r)
	}
	f.Add(stream)
	// Malformed shapes: torn header, torn payload, oversized length,
	// zeroed CRC, truncated mid-stream.
	f.Add([]byte{3, 0, 0})
	f.Add([]byte{8, 0, 0, 0, 1, 2, 3, 4, 9})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Add(append([]byte{2, 0, 0, 0, 0, 0, 0, 0}, 1, 2))
	f.Add(stream[:len(stream)-3])

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, clean, err := Decode(data)
		if clean < 0 || clean > len(data) {
			t.Fatalf("truncation point %d outside input of %d bytes", clean, len(data))
		}
		var ce *CorruptError
		if err != nil && !errors.As(err, &ce) {
			t.Fatalf("error is not a typed *CorruptError: %v", err)
		}
		if err == nil {
			// The clean prefix must re-decode to the same records: the
			// truncation point is a real frame boundary.
			recs2, clean2, err2 := Decode(data[:clean])
			if err2 != nil || clean2 != clean || len(recs2) != len(recs) {
				t.Fatalf("clean prefix does not re-decode: clean=%d/%d recs=%d/%d err=%v",
					clean2, clean, len(recs2), len(recs), err2)
			}
		}
		// Whatever decoded must replay without panicking, and the result
		// must be writable back out as a snapshot stream.
		st := NewState()
		for _, r := range recs {
			st.Apply(r)
		}
		// The page index is exactly the one Servers implies — no holder
		// missing, none left over, no empty set — and a clone is the same
		// table.
		index := make(map[uint64]map[string]struct{})
		for addr, s := range st.Servers {
			for p := range s.Pages {
				if index[p] == nil {
					index[p] = make(map[string]struct{})
				}
				index[p][addr] = struct{}{}
			}
		}
		if !reflect.DeepEqual(st.Holders, index) {
			t.Fatalf("Holders = %v, the index Servers implies is %v", st.Holders, index)
		}
		if !st.Clone().Equal(st, true) {
			t.Fatal("a clone is not the same table")
		}
		var out []byte
		for _, r := range st.Records() {
			out = appendRecord(out, r)
		}
		if recs2, clean2, err2 := Decode(out); err2 != nil || clean2 != len(out) {
			t.Fatalf("canonical records do not round trip: %v", err2)
		} else {
			st2 := NewState()
			for _, r := range recs2 {
				st2.Apply(r)
			}
			if !st.Equal(st2, true) {
				t.Fatal("state changed across a Records() round trip")
			}
		}
	})
}

// FuzzRecordRoundTrip drives the encoder from fuzzed field values: any
// record we can construct must decode back to itself.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add("addr:1", uint64(7), uint64(3), int64(1000), uint64(42))
	f.Add("", uint64(0), uint64(0), int64(-5), uint64(0))
	f.Fuzz(func(t *testing.T, addr string, epoch, seq uint64, expires int64, page uint64) {
		if len(addr) > 255 {
			addr = addr[:255]
		}
		recs := []Record{
			Register{Addr: addr, Epoch: epoch, Seq: seq, Expires: expires, Pages: []uint64{page}},
			RenewBatch{Renews: []Renew{{Addr: addr, Epoch: epoch, Expires: expires}}},
			Expunge{Addrs: []string{addr}},
			Drain{Addr: addr},
			DrainAbort{Addr: addr},
			Fence{Addr: addr, Epoch: epoch},
		}
		var buf []byte
		for _, r := range recs {
			buf = appendRecord(buf, r)
		}
		got, clean, err := Decode(buf)
		if err != nil || clean != len(buf) || len(got) != len(recs) {
			t.Fatalf("round trip: clean=%d/%d n=%d err=%v", clean, len(buf), len(got), err)
		}
		reg, ok := got[0].(Register)
		if !ok || reg.Addr != addr || reg.Epoch != epoch || reg.Seq != seq || reg.Expires != expires || reg.Pages[0] != page {
			t.Fatalf("register did not round trip: %+v", got[0])
		}
		var again []byte
		for _, r := range got {
			again = appendRecord(again, r)
		}
		if !bytes.Equal(buf, again) {
			t.Fatal("re-encoding is not byte-identical")
		}
	})
}
