package proto

import (
	"bytes"
	"testing"
)

// FuzzDecode drives arbitrary bytes through the frame reader and every
// payload decoder. The contract under test: malformed input must produce
// an error (or a harmless zero value), never a panic or an out-of-range
// slice. Run it as a fuzzer with
//
//	go test -fuzz FuzzDecode ./internal/proto
//
// Under plain `go test` the seeded corpus below runs as regression cases:
// one well-formed frame of every message type (including the sharding
// messages TShardMap and TWrongShard) and the truncation/overrun shapes
// that length-prefixed formats historically get wrong.
func FuzzDecode(f *testing.F) {
	seed := func(send func(*Writer) error) {
		var buf bytes.Buffer
		if err := send(NewWriter(&buf)); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(func(w *Writer) error { return w.SendPutPage(PutPage{Page: 3, Data: make([]byte, 512)}) })
	// A terminator-only batch, framed the way the server does it.
	if frame, err := AppendSubpageBatchFrame(nil, 9, 3, FlagLast, nil); err != nil {
		f.Fatal(err)
	} else {
		f.Add(frame)
	}
	seed(func(w *Writer) error { return w.SendPutPage(PutPage{Page: 9, Data: []byte{1, 2, 3}}) })
	seed(func(w *Writer) error { return w.SendPutBlocks(9, 1<<3|1<<30, make([]byte, 8192)) })
	seed(func(w *Writer) error { return w.SendAck() })
	seed(func(w *Writer) error { return w.SendLookup(Lookup{Page: 12}) })
	seed(func(w *Writer) error { return w.SendLookup(Lookup{Page: 12, Group: true}) })
	seed(func(w *Writer) error {
		return w.SendPlacements(Placements{Page: 12, Entries: []Placement{
			{Page: 12, Addrs: []string{"a:1", "b:2"}}, {Page: 0, Addrs: []string{"b:2"}}, {Page: 63, Addrs: []string{"a:1", "b:2"}},
		}})
	})
	seed(func(w *Writer) error {
		return w.SendLookupReply(LookupReply{Page: 12, Addrs: []string{"a:1", "b:2"}})
	})
	seed(func(w *Writer) error {
		return w.SendRegister(Register{Addr: "c:3", Epoch: 44, Pages: []uint64{1, 2, 3}})
	})
	seed(func(w *Writer) error { return w.SendHeartbeat(Heartbeat{Addr: "c:3", Epoch: 44}) })
	seed(func(w *Writer) error { return w.SendError("boom") })
	seed(func(w *Writer) error { return w.SendGetShardMap() })
	seed(func(w *Writer) error {
		return w.SendShardMap(ShardMap{Version: 5, Shards: []string{"s0:1", "s1:1", "s2:1"}})
	})
	seed(func(w *Writer) error {
		return w.SendWrongShard(WrongShard{Page: 77, Map: ShardMap{Version: 6, Shards: []string{"s0:1"}}})
	})
	seed(func(w *Writer) error {
		return w.SendGetPageV2(GetPageV2{ReqID: 9, Page: 3, FaultOff: 4096, SubpageSize: 1024, Want: 0xff00, Policy: PolicyPipelined})
	})
	seed(func(w *Writer) error {
		return w.SendSubpageBatch(9, 3, FlagFirst|FlagLast, []SubpageRun{
			{Off: 0, Data: make([]byte, 256)},
			{Off: 1024, Data: make([]byte, 512)},
		})
	})
	seed(func(w *Writer) error { return w.SendCancel(Cancel{ReqID: 9}) })
	seed(func(w *Writer) error { return w.SendDrain(Drain{Addr: "c:3"}) })
	seed(func(w *Writer) error { return w.SendDrainReply(DrainReply{Moved: 17}) })

	// Malformed shapes: truncated headers, payloads shorter than their
	// frame length promises, length prefixes overrunning the payload,
	// counts promising more entries than the bytes hold, trailing bytes.
	f.Add([]byte{})
	f.Add([]byte{byte(TLookup)})
	f.Add([]byte{byte(TLookup), 8, 0, 0, 0, 1, 2, 3})                              // promises 8 payload bytes, has 3
	f.Add([]byte{byte(TLookupReply), 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 200}) // addr len 200 overruns
	f.Add([]byte{byte(TShardMap), 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 1})      // 3 shards promised, 1 byte left
	f.Add([]byte{byte(TWrongShard), 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})        // map body shorter than version+count
	f.Add([]byte{byte(TRegister), 12, 0, 0, 0, 3, 'a', ':', '1', 0, 0, 0, 0, 0})   // epoch truncated
	f.Add([]byte{byte(THeartbeat), 12, 0, 0, 0, 3, 'a', ':', '1', 0, 0, 0, 0, 0})  // epoch truncated
	f.Add([]byte{1, 17, 0, 0, 0, 1, 2, 3})                                         // reserved tag byte (retired v1 get)
	f.Add([]byte{byte(TPutPage), 3, 0, 0, 0, 1, 2, 3})                             // shorter than fixed layout
	f.Add([]byte{byte(TShardMap), 11, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 'x'}) // count 0 with trailing byte
	f.Add(append([]byte{byte(TPutPage), 255, 255, 255, 255}, make([]byte, 16)...)) // oversized length prefix
	f.Add([]byte{byte(TRegister), 10, 0, 0, 0, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 0, 1}) // ragged page list
	f.Add([]byte{byte(TGetPageV2), 5, 0, 0, 0, 1, 2, 3, 4, 5})                     // shorter than fixed layout
	f.Add([]byte{byte(TCancel), 4, 0, 0, 0, 1, 2, 3, 4})                           // reqID truncated
	f.Add([]byte{byte(TDrain), 3, 0, 0, 0, 9, 'a', ':'})                           // addr len 9 overruns
	f.Add([]byte{byte(TDrainReply), 2, 0, 0, 0, 1, 2})                             // moved truncated
	f.Add([]byte{byte(TLookup), 10, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0})        // a byte past the group form
	f.Add(append([]byte{byte(TGetPageV2), 30, 0, 0, 0}, make([]byte, 30)...))      // a byte past the fixed layout
	f.Add([]byte{byte(TCancel), 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})            // a byte past the reqID
	// Placements: an address index past a one-entry table, and a count
	// promising two entries with bytes for one.
	f.Add([]byte{byte(TPlacements), 17, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1, 3, 'a', ':', '1', 1, 5, 1, 1})
	f.Add([]byte{byte(TPlacements), 17, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1, 3, 'a', ':', '1', 2, 5, 1, 0})
	// A block put promising two blocks and carrying one byte.
	f.Add([]byte{byte(TPutPage), 13, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 7})
	// Batch promising 2 runs with no table, and a table whose lengths
	// disagree with the data section.
	f.Add(append([]byte{byte(TSubpageBatch), 18, 0, 0, 0}, make([]byte, 17)...))
	f.Add(append(append([]byte{byte(TSubpageBatch), 26, 0, 0, 0}, make([]byte, 16)...),
		0, 1, 0, 1, 0, 0, 0, 4, 0, 0)) // count 1, off 256, len 1024, 0 data bytes

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for {
			fr, err := r.Next()
			if err != nil {
				return // truncated or oversized frames must error out cleanly
			}
			// Decode the payload under every decoder, not just the one the
			// type byte names: a corrupted type byte must not let a payload
			// reach a decoder that panics on it.
			_, _ = DecodePutPage(fr.Payload)
			_, _ = DecodeLookup(fr.Payload)
			if rep, err := DecodeLookupReply(fr.Payload); err == nil {
				_ = rep.Addrs
			}
			if pl, err := DecodePlacements(fr.Payload); err == nil {
				for _, e := range pl.Entries {
					_ = e.Addrs[0] // every entry names at least one replica
				}
			}
			if reg, err := DecodeRegister(fr.Payload); err == nil {
				_ = reg.Pages
			}
			_, _ = DecodeHeartbeat(fr.Payload)
			if m, err := DecodeShardMap(fr.Payload); err == nil {
				// A decoded map must build a usable ring.
				_ = NewRing(m).Owner(1)
			}
			if ws, err := DecodeWrongShard(fr.Payload); err == nil {
				_ = NewRing(ws.Map).Owner(ws.Page)
			}
			_, _ = DecodeGetPageV2(fr.Payload)
			_, _ = DecodeCancel(fr.Payload)
			_, _ = DecodeDrain(fr.Payload)
			_, _ = DecodeDrainReply(fr.Payload)
			if b, err := DecodeSubpageBatch(fr.Payload); err == nil {
				// A decoded batch's runs must be safely iterable.
				for i := 0; i < b.Runs(); i++ {
					off, data := b.Run(i)
					_ = off
					_ = data
				}
			}
			_ = DecodeError(fr.Payload)
		}
	})
}
