package proto

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestLookupForms pins both TLookup forms byte for byte: the 8-byte
// single-page form that every existing peer speaks, and the 9-byte group
// form ending in flag 1.
func TestLookupForms(t *testing.T) {
	for _, tc := range []struct {
		in   Lookup
		want []byte
	}{
		{Lookup{Page: 0x0102030405060708}, []byte{5, 8, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1}},
		{Lookup{Page: 0x0102030405060708, Group: true}, []byte{5, 9, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1, 1}},
	} {
		var buf bytes.Buffer
		if err := NewWriter(&buf).SendLookup(tc.in); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), tc.want) {
			t.Fatalf("%+v on the wire = %v, want %v", tc.in, buf.Bytes(), tc.want)
		}
		f, err := NewReader(&buf).Next()
		if err != nil {
			t.Fatal(err)
		}
		if out, err := DecodeLookup(f.Payload); err != nil || out != tc.in {
			t.Fatalf("DecodeLookup = %+v, %v, want %+v", out, err, tc.in)
		}
	}
}

func samplePlacements() Placements {
	ab, c := []string{"a:1", "b:2"}, []string{"c:3", "a:1"}
	return Placements{Page: 130, Entries: []Placement{
		{Page: 130, Addrs: ab},
		{Page: 128, Addrs: ab},
		{Page: 131, Addrs: []string{"b:2"}},
		{Page: 191, Addrs: c},
		{Page: 129, Addrs: c},
	}}
}

func encodePlacements(t *testing.T, m Placements) []byte {
	t.Helper()
	f := roundTrip(t, func(w *Writer) error { return w.SendPlacements(m) })
	if f.Type != TPlacements {
		t.Fatalf("frame type %v", f.Type)
	}
	return append([]byte(nil), f.Payload...)
}

// TestPlacementsRoundTrip: a group answer decodes to what was sent, each
// address crosses the wire once, and the decoder allocates once per
// distinct address and once per distinct replica list, not once per page.
func TestPlacementsRoundTrip(t *testing.T) {
	in := samplePlacements()
	p := encodePlacements(t, in)
	if p[8] != 3 {
		t.Fatalf("address table holds %d entries, want 3 (a:1, b:2, c:3 once each)", p[8])
	}
	out, err := DecodePlacements(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	if &out.Entries[0].Addrs[0] != &out.Entries[1].Addrs[0] || &out.Entries[3].Addrs[0] != &out.Entries[4].Addrs[0] {
		t.Fatal("entries with equal replica lists do not share one slice")
	}
	// The table and entry slices, 3 addresses, 3 distinct lists.
	if n := testing.AllocsPerRun(100, func() { _, _ = DecodePlacements(p) }); n != 8 {
		t.Fatalf("DecodePlacements allocates %v objects, want 8", n)
	}
	empty, err := DecodePlacements(encodePlacements(t, Placements{Page: 7}))
	if err != nil || empty.Page != 7 || len(empty.Entries) != 0 {
		t.Fatalf("empty answer = %+v, %v", empty, err)
	}
	w := NewWriter(&bytes.Buffer{})
	if n := testing.AllocsPerRun(100, func() { _ = w.SendPlacements(in) }); n != 0 {
		t.Fatalf("SendPlacements allocates %v objects once warm, want 0", n)
	}
}

// TestPlacementsMalformed: every truncation of a good payload is short,
// and a trailing byte, an address index past the table, an offset past the
// group and an empty replica list are each rejected.
func TestPlacementsMalformed(t *testing.T) {
	p := encodePlacements(t, samplePlacements())
	for n := 0; n < len(p); n++ {
		if _, err := DecodePlacements(p[:n]); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte payload decoded", n, len(p))
		}
	}
	if _, err := DecodePlacements(append(p[:len(p):len(p)], 0)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("overlong payload: err = %v", err)
	}
	// The last entry is page 129's: offset 1, two replicas, indexes 2 and 0.
	last := len(p) - 4
	if p[last] != 1 || p[last+1] != 2 {
		t.Fatalf("unexpected layout of the last entry: %v", p[last:])
	}
	for name, mut := range map[string]func(q []byte){
		"address index past the table": func(q []byte) { q[last+2] = 3 },
		"offset past the group":        func(q []byte) { q[last] = PlacementGroup },
		"empty replica list":           func(q []byte) { q[last+1] = 0 },
	} {
		q := append([]byte(nil), p...)
		mut(q)
		if _, err := DecodePlacements(q); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// TestPlacementsLongReplicaList: an entry naming 254 or 255 replicas decodes
// to a list of that length, where a byte sum of its length wrapped to 0 or 1
// and panicked (found by FuzzDecode).
func TestPlacementsLongReplicaList(t *testing.T) {
	p := encodePlacements(t, samplePlacements())
	last := len(p) - 4 // the last entry: offset, replica count, indexes
	for _, n := range []int{254, 255} {
		q := append(append([]byte(nil), p[:last+1]...), byte(n))
		q = append(q, make([]byte, n)...) // every replica is address 0
		m, err := DecodePlacements(q)
		if err != nil {
			t.Fatalf("%d replicas: %v", n, err)
		}
		if got := len(m.Entries[len(m.Entries)-1].Addrs); got != n {
			t.Fatalf("%d replicas decoded as %d", n, got)
		}
	}
}

// TestSendPlacementsBounds: entries the frame cannot hold are dropped from
// the tail, never the first; a first entry that cannot fit, or an entry
// outside the group, fails the send.
func TestSendPlacementsBounds(t *testing.T) {
	long := func(i int) string { return strings.Repeat(string(rune('a'+i%26)), 200) + string(rune('A'+i/26)) }
	m := Placements{Page: 64}
	for i := 0; i < PlacementGroup; i++ {
		m.Entries = append(m.Entries, Placement{Page: 64 + uint64(i), Addrs: []string{long(i)}})
	}
	out, err := DecodePlacements(encodePlacements(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(out.Entries); n == 0 || n == len(m.Entries) || !reflect.DeepEqual(out.Entries, m.Entries[:n]) {
		t.Fatalf("kept %d of %d entries; want a proper, non-empty prefix", n, len(m.Entries))
	}
	w := NewWriter(&bytes.Buffer{})
	var wide []string
	for i := 0; i < 60; i++ {
		wide = append(wide, long(i))
	}
	if err := w.SendPlacements(Placements{Page: 64, Entries: []Placement{{Page: 64, Addrs: wide}}}); err == nil {
		t.Error("a first entry too big for a frame was sent")
	}
	if err := w.SendPlacements(Placements{Page: 64, Entries: []Placement{{Page: 128, Addrs: []string{"a:1"}}}}); err == nil {
		t.Error("an entry outside the group was sent")
	}
	if err := w.SendPlacements(Placements{Page: 64, Entries: []Placement{{Page: 64}}}); err == nil {
		t.Error("an entry with no replicas was sent")
	}
}
