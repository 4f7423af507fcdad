// The fault wire: batched, pipelined subpage transfer. (It is "v2" in the
// tag names because it replaced a retired per-fragment wire, which paid one
// frame and one write per subpage and identified a reply only by its page.)
//
//   - TGetPageV2 carries a client-chosen request ID and a want-bitmap of
//     the subpage blocks still missing, so many gets pipeline on one
//     connection and a partially valid page fetches only what it lacks.
//   - TSubpageBatch carries many subpage runs of one page in a single
//     frame: one header, a run table, then the concatenated data. The
//     server assembles the frame header and table into a pooled buffer
//     and hands the data ranges to writev (net.Buffers) untouched —
//     page bytes are never copied into a frame buffer on the way out.
//   - TCancel withdraws a request by ID at the next batch boundary, so
//     the losing half of a hedged fetch stops burning bandwidth.
//
// Batch payload layout (little endian), after the standard frame header:
//
//	bytes 0-7    request ID
//	bytes 8-15   page number
//	byte  16     flags (FlagFirst, FlagLast)
//	byte  17     run count n
//	8×n bytes    run table: n × { offset uint32, length uint32 }
//	rest         run data, concatenated in table order
//
// Runs must be MinSubpage-aligned, in strictly ascending offset order,
// non-overlapping and in-page, and the data length must equal the table's
// total — DecodeSubpageBatch rejects anything else, so a decoded batch
// can be applied to a page cache without further bounds checks.
package proto

import (
	"encoding/binary"
	"fmt"

	"github.com/gms-sim/gmsubpage/internal/units"
)

// GetPageV2 asks for the missing subpages of one page.
type GetPageV2 struct {
	// ReqID identifies the reply stream; the client picks it unique per
	// request and the server echoes it on every TSubpageBatch.
	ReqID uint64
	// Page is the global page number.
	Page uint64
	// FaultOff is the faulted byte offset within the page; the run
	// covering it is flagged FlagFirst and sent in the first batch.
	FaultOff uint32
	// SubpageSize is the transfer granularity.
	SubpageSize uint32
	// Want is a bitmap over the page's MinSubpage blocks naming the
	// blocks the client still needs; zero means "everything the policy
	// plans". The faulted block is always included regardless.
	Want uint32
	// Policy is one of the Policy* constants.
	Policy uint8
}

// Cancel withdraws the in-flight GetPageV2 with the same ReqID.
type Cancel struct{ ReqID uint64 }

// SubpageRun is one contiguous, block-aligned byte range of a page,
// paired with its data for encoding.
type SubpageRun struct {
	Off  uint32
	Data []byte
}

const (
	getPageV2Len  = 29 // ReqID 8 + Page 8 + FaultOff 4 + SubpageSize 4 + Want 4 + Policy 1
	cancelLen     = 8
	batchFixedLen = 18 // ReqID 8 + Page 8 + Flags 1 + run count 1
	runEntryLen   = 8  // offset uint32 + length uint32
)

// MaxBatchRuns bounds the run table: a page cannot have more distinct
// valid-bit runs than it has valid bits.
const MaxBatchRuns = units.ValidBitsPerPage

// SendGetPageV2 writes a TGetPageV2 frame.
func (w *Writer) SendGetPageV2(m GetPageV2) error {
	p := make([]byte, 0, getPageV2Len)
	p = binary.LittleEndian.AppendUint64(p, m.ReqID)
	p = binary.LittleEndian.AppendUint64(p, m.Page)
	p = binary.LittleEndian.AppendUint32(p, m.FaultOff)
	p = binary.LittleEndian.AppendUint32(p, m.SubpageSize)
	p = binary.LittleEndian.AppendUint32(p, m.Want)
	p = append(p, m.Policy)
	return w.send(TGetPageV2, p)
}

// DecodeGetPageV2 parses a TGetPageV2 payload.
func DecodeGetPageV2(p []byte) (GetPageV2, error) {
	if len(p) != getPageV2Len {
		return GetPageV2{}, badLen(TGetPageV2, len(p))
	}
	return GetPageV2{
		ReqID:       binary.LittleEndian.Uint64(p[0:8]),
		Page:        binary.LittleEndian.Uint64(p[8:16]),
		FaultOff:    binary.LittleEndian.Uint32(p[16:20]),
		SubpageSize: binary.LittleEndian.Uint32(p[20:24]),
		Want:        binary.LittleEndian.Uint32(p[24:28]),
		Policy:      p[28],
	}, nil
}

// SendCancel writes a TCancel frame.
func (w *Writer) SendCancel(m Cancel) error {
	p := binary.LittleEndian.AppendUint64(make([]byte, 0, cancelLen), m.ReqID)
	return w.send(TCancel, p)
}

// DecodeCancel parses a TCancel payload.
func DecodeCancel(p []byte) (Cancel, error) {
	if len(p) != cancelLen {
		return Cancel{}, badLen(TCancel, len(p))
	}
	return Cancel{ReqID: binary.LittleEndian.Uint64(p[0:8])}, nil
}

// validateRuns checks the encoding contract shared by the batch builders:
// block-aligned, ascending, non-overlapping, in-page runs.
func validateRuns(runs []SubpageRun) (dataLen int, err error) {
	if len(runs) > MaxBatchRuns {
		return 0, fmt.Errorf("proto: %d runs exceed the %d-run batch limit", len(runs), MaxBatchRuns)
	}
	prevEnd := 0
	for _, r := range runs {
		off, n := int(r.Off), len(r.Data)
		if n == 0 || off%units.MinSubpage != 0 || n%units.MinSubpage != 0 {
			return 0, fmt.Errorf("proto: batch run off=%d len=%d not block-aligned", off, n)
		}
		if off < prevEnd || off+n > units.PageSize {
			return 0, fmt.Errorf("proto: batch run off=%d len=%d overlaps or overruns the page", off, n)
		}
		prevEnd = off + n
		dataLen += n
	}
	return dataLen, nil
}

// AppendSubpageBatchFrame appends the complete frame header, batch header
// and run table for a TSubpageBatch — everything except the data bytes —
// to dst and returns it. The caller supplies the runs' data as separate
// scatter-gather buffers (net.Buffers) immediately after this header, so
// page bytes go from the page store to the socket without an intermediate
// copy. The runs must satisfy the batch contract (see package comment).
func AppendSubpageBatchFrame(dst []byte, reqID, page uint64, flags uint8, runs []SubpageRun) ([]byte, error) {
	dataLen, err := validateRuns(runs)
	if err != nil {
		return dst, err
	}
	payload := batchFixedLen + runEntryLen*len(runs) + dataLen
	if payload > MaxPayload {
		return dst, fmt.Errorf("proto: batch payload %d exceeds max %d", payload, MaxPayload)
	}
	dst = append(dst, byte(TSubpageBatch))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payload))
	dst = binary.LittleEndian.AppendUint64(dst, reqID)
	dst = binary.LittleEndian.AppendUint64(dst, page)
	dst = append(dst, flags, byte(len(runs)))
	for _, r := range runs {
		dst = binary.LittleEndian.AppendUint32(dst, r.Off)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Data)))
	}
	return dst, nil
}

// SendSubpageBatch writes a TSubpageBatch frame through the Writer's own
// buffer (one Write, data copied once). The server's hot path uses
// AppendSubpageBatchFrame with scatter-gather instead; this form serves
// tests, fallbacks and non-socket writers.
func (w *Writer) SendSubpageBatch(reqID, page uint64, flags uint8, runs []SubpageRun) error {
	frame, err := AppendSubpageBatchFrame(w.buf[:0], reqID, page, flags, runs)
	if err != nil {
		w.buf = frame[:0]
		return err
	}
	for _, r := range runs {
		frame = append(frame, r.Data...)
	}
	w.buf = frame
	_, err = w.w.Write(w.buf)
	w.afterSend()
	return err
}

// SubpageBatch is a decoded TSubpageBatch. The run table and data alias
// the payload, so the batch is only valid until the Reader's next frame;
// apply it before reading on.
type SubpageBatch struct {
	ReqID uint64
	Page  uint64
	Flags uint8
	count int
	table []byte // run table, count × runEntryLen bytes
	data  []byte // concatenated run data
}

// Runs reports the number of runs in the batch.
func (b SubpageBatch) Runs() int { return b.count }

// Run returns the i'th run's page offset and data (aliasing the payload).
// It walks the table from the front, so iterate in ascending order.
func (b SubpageBatch) Run(i int) (off int, data []byte) {
	skip := 0
	for j := 0; j < i; j++ {
		skip += int(binary.LittleEndian.Uint32(b.table[j*runEntryLen+4:]))
	}
	e := b.table[i*runEntryLen:]
	n := int(binary.LittleEndian.Uint32(e[4:]))
	return int(binary.LittleEndian.Uint32(e)), b.data[skip : skip+n]
}

// DecodeSubpageBatch parses and validates a TSubpageBatch payload. On
// success every run is block-aligned, strictly ascending, non-overlapping
// and in-page, and the data section's length matches the table exactly —
// duplicate or overlapping ranges are rejected here, not by the cache.
func DecodeSubpageBatch(p []byte) (SubpageBatch, error) {
	if len(p) < batchFixedLen {
		return SubpageBatch{}, short(TSubpageBatch)
	}
	b := SubpageBatch{
		ReqID: binary.LittleEndian.Uint64(p[0:8]),
		Page:  binary.LittleEndian.Uint64(p[8:16]),
		Flags: p[16],
		count: int(p[17]),
	}
	if b.count > MaxBatchRuns {
		return SubpageBatch{}, fmt.Errorf("proto: batch run count %d exceeds limit %d", b.count, MaxBatchRuns)
	}
	tableLen := b.count * runEntryLen
	if len(p) < batchFixedLen+tableLen {
		return SubpageBatch{}, short(TSubpageBatch)
	}
	b.table = p[batchFixedLen : batchFixedLen+tableLen]
	b.data = p[batchFixedLen+tableLen:]
	dataLen, prevEnd := 0, 0
	for i := 0; i < b.count; i++ {
		e := b.table[i*runEntryLen:]
		off := int(binary.LittleEndian.Uint32(e))
		n := int(binary.LittleEndian.Uint32(e[4:]))
		if n == 0 || off%units.MinSubpage != 0 || n%units.MinSubpage != 0 {
			return SubpageBatch{}, fmt.Errorf("proto: batch run off=%d len=%d not block-aligned", off, n)
		}
		if off < prevEnd || off+n > units.PageSize {
			return SubpageBatch{}, fmt.Errorf("proto: batch run off=%d len=%d overlaps or overruns the page", off, n)
		}
		prevEnd = off + n
		dataLen += n
	}
	if dataLen != len(b.data) {
		return SubpageBatch{}, fmt.Errorf("proto: batch data %d bytes, table promises %d", len(b.data), dataLen)
	}
	return b, nil
}
