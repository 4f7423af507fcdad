package wire

import (
	"errors"
	"strings"
	"testing"
)

// The two errors End chooses between.
var (
	errShort    = errors.New("short")
	errTrailing = errors.New("trailing")
)

// TestCursor walks the cursor's contract case by case: what each read
// returns, whether the cursor latches short, and End's verdict.
func TestCursor(t *testing.T) {
	long := strings.Repeat("x", 255)
	for _, tc := range []struct {
		name string
		p    []byte
		read func(c Cursor) []any // the values the reads return, in order
		want []any
		end  error // End's verdict
	}{
		{
			name: "fixed-width reads consume the payload exactly",
			p:    []byte{7, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0},
			read: func(c Cursor) []any { return []any{c.U8(), c.U32(), c.U64()} },
			want: []any{uint8(7), uint32(1), uint64(2)},
		},
		{
			// Once a read runs past the end, every later read returns
			// zero, even one that would fit what was left.
			name: "an under-run latches",
			p:    []byte{9, 1, 2, 3},
			read: func(c Cursor) []any {
				return []any{c.U8(), c.U64(), c.U8(), c.Str(), c.Bytes(0), c.Rest(), c.Len(), c.Short()}
			},
			want: []any{uint8(9), uint64(0), uint8(0), "", []byte(nil), []byte(nil), 0, true},
			end:  errShort,
		},
		{
			// The length byte is 255 and the string is the last field:
			// 1+255 overflows a byte sum, not an int one.
			name: "a 255-byte string as the last field",
			p:    append([]byte{1, 255}, long...),
			read: func(c Cursor) []any { return []any{c.U8(), c.Str()} },
			want: []any{uint8(1), long},
		},
		{
			name: "a string one byte short of its length",
			p:    append([]byte{255}, long[1:]...),
			read: func(c Cursor) []any { return []any{c.Str()} },
			want: []any{""},
			end:  errShort,
		},
		{
			name: "a count the bytes hold",
			p:    []byte{2, 1, 'a', 1, 'b'},
			read: func(c Cursor) []any { return []any{c.Count(int(c.U8()), 2), c.Str(), c.Str()} },
			want: []any{2, "a", "b"},
		},
		{
			// Two elements of at least two bytes need four; three are left.
			name: "a count one past what the bytes hold",
			p:    []byte{2, 1, 'a', 0},
			read: func(c Cursor) []any { return []any{c.Count(int(c.U8()), 2), c.Len()} },
			want: []any{0, 0},
			end:  errShort,
		},
		{
			name: "a negative count",
			p:    []byte{1, 2},
			read: func(c Cursor) []any { return []any{c.Count(-1, 1)} },
			want: []any{0},
			end:  errShort,
		},
		{
			name: "one trailing byte",
			p:    []byte{1, 0, 0, 0, 0xff},
			read: func(c Cursor) []any { return []any{c.U32(), c.Len(), c.Short()} },
			want: []any{uint32(1), 1, false},
			end:  errTrailing,
		},
		{
			name: "Bytes takes the next bytes, Rest the rest",
			p:    []byte{1, 2, 3, 4, 5},
			read: func(c Cursor) []any { return []any{string(c.Bytes(2)), string(c.Rest()), c.Len()} },
			want: []any{"\x01\x02", "\x03\x04\x05", 0},
		},
		{
			name: "an empty payload read by nothing",
			read: func(c Cursor) []any { return nil },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.p)
			got := tc.read(c)
			if len(got) != len(tc.want) {
				t.Fatalf("%d values, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if g, w := got[i], tc.want[i]; !equal(g, w) {
					t.Errorf("value %d = %#v, want %#v", i, g, w)
				}
			}
			if err := c.End(errShort, errTrailing); err != tc.end {
				t.Errorf("End = %v, want %v", err, tc.end)
			}
		})
	}
}

// equal compares two read results; byte slices by content and nil-ness.
func equal(a, b any) bool {
	if x, ok := a.([]byte); ok {
		y, ok := b.([]byte)
		return ok && string(x) == string(y) && (x == nil) == (y == nil)
	}
	return a == b
}

// TestCursorReadsDoNotAllocate pins that the fixed-width reads, Count and
// a clean End allocate nothing.
func TestCursorReadsDoNotAllocate(t *testing.T) {
	p := []byte{2, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 'a', 'b'}
	var sum uint64
	n := testing.AllocsPerRun(100, func() {
		c := New(p)
		k := c.Count(int(c.U8()), 1)
		sum += uint64(k) + uint64(c.U32()) + c.U64() + uint64(len(c.Bytes(2)))
		if c.End(errShort, errTrailing) != nil {
			t.Fatal("clean payload reported an error")
		}
	})
	if n != 0 {
		t.Fatalf("reads allocate %v objects, want 0", n)
	}
}
