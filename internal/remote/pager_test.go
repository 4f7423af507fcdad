package remote

import (
	"bytes"
	"io"
	"testing"

	"github.com/gms-sim/gmsubpage/internal/proto"
	"github.com/gms-sim/gmsubpage/internal/units"
)

func TestPagerReadAt(t *testing.T) {
	dir, _ := testCluster(t, 4)
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyEager})
	pg, err := c.NewPager(0, 3*units.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if pg.Size() != 3*units.PageSize {
		t.Fatalf("Size = %d", pg.Size())
	}
	buf := make([]byte, 100)
	n, err := pg.ReadAt(buf, int64(units.PageSize)+50)
	if err != nil || n != 100 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	want := pagePattern(1)[50:150]
	if !bytes.Equal(buf, want) {
		t.Fatal("pager data mismatch")
	}
}

func TestPagerEOF(t *testing.T) {
	dir, _ := testCluster(t, 2)
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyEager})
	pg, err := c.NewPager(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	// Straddling the end: short read + EOF.
	n, err := pg.ReadAt(buf, 80)
	if n != 20 || err != io.EOF {
		t.Fatalf("straddle = %d, %v", n, err)
	}
	// Past the end: 0, EOF.
	if n, err := pg.ReadAt(buf, 100); n != 0 || err != io.EOF {
		t.Fatalf("past end = %d, %v", n, err)
	}
	// Negative offset errors.
	if _, err := pg.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset should fail")
	}
	// Negative size rejected at construction.
	if _, err := c.NewPager(0, -1); err == nil {
		t.Fatal("negative size should fail")
	}
}

func TestPagerWriteAtRoundTrip(t *testing.T) {
	dir, _ := testCluster(t, 4)
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyEager})
	pg, err := c.NewPager(units.PageSize, 2*units.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("pager write")
	if n, err := pg.WriteAt(msg, 123); err != nil || n != len(msg) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	got := make([]byte, len(msg))
	if _, err := pg.ReadAt(got, 123); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read back %q", got)
	}
}

func TestPagerSatisfiesIOInterfaces(t *testing.T) {
	var _ io.ReaderAt = (*Pager)(nil)
	var _ io.WriterAt = (*Pager)(nil)
	// And it composes with stdlib helpers.
	dir, _ := testCluster(t, 2)
	c := testClient(t, dir, ClientConfig{Policy: proto.PolicyEager})
	pg, _ := c.NewPager(0, units.PageSize)
	sr := io.NewSectionReader(pg, 10, 50)
	buf, err := io.ReadAll(sr)
	if err != nil || len(buf) != 50 {
		t.Fatalf("SectionReader = %d bytes, %v", len(buf), err)
	}
	if !bytes.Equal(buf, pagePattern(0)[10:60]) {
		t.Fatal("SectionReader data mismatch")
	}
}
