// Package netmodel models the latency of remote-memory transfers.
//
// A remote page fetch is a fixed-cost request (fault handling, global cache
// directory lookup, request message, server processing) followed by one or
// more data messages that flow store-and-forward through three pipelined
// resources — the server's DMA engine, the network wire, and the requester's
// DMA engine — with an optional receiver-CPU delivery step (interrupt, copy,
// restart). Consecutive messages of a transfer pipeline through these
// resources, which is what makes eager fullpage fetch and subpage pipelining
// profitable: the follow-on transfer's server DMA overlaps the faulted
// subpage's wire and delivery time.
//
// The default parameters (AN2ATM) are calibrated to the paper's prototype
// measurements on the DEC Alpha 250 / AN2 155 Mb/s ATM platform (Table 2,
// Figure 2): they reproduce the published subpage and rest-of-page latencies
// within ~5%, including the two non-obvious effects the paper highlights —
// splitting a page into 4K+4K completes *sooner* than one 8K message, and a
// 1K first subpage completes the whole page *later* than a 2K first subpage
// because the small first message leaves a gap on the wire.
package netmodel

import (
	"slices"

	"github.com/gms-sim/gmsubpage/internal/units"
)

// Stage is one pipelined resource with a fixed per-message cost and a
// per-byte cost (expressed per KiB for readability).
type Stage struct {
	Fixed  units.Nanos
	PerKiB units.Nanos
}

// Cost returns the stage occupancy for a message of n bytes.
func (s Stage) Cost(n int) units.Nanos {
	return s.Fixed + units.Nanos(int64(s.PerKiB)*int64(n)/units.KiB)
}

// Params describes one network/host configuration.
type Params struct {
	// Name identifies the configuration in reports.
	Name string

	// Request is the fixed time from the fault until the server's DMA
	// engine can begin on the first message: fault handling, locating the
	// page in the global cache directory, the request message, and server
	// request processing. (Paper: ~0.27 ms on the prototype.)
	Request units.Nanos

	// The three pipelined data-path resources.
	SrvDMA Stage // server memory -> controller
	Wire   Stage // on the interconnect
	ReqDMA Stage // controller -> requester memory

	// Deliver is the requester-CPU completion step: interrupt handling,
	// any copy into place, and resuming the faulted thread. Messages
	// delivered by an intelligent controller (pipelined follow-on
	// subpages) skip this step.
	Deliver Stage
}

// AN2ATM returns parameters calibrated to the paper's Alpha 250 + DEC AN2
// (155 Mb/s ATM) prototype. See package comment.
func AN2ATM() *Params {
	return &Params{
		Name:    "an2-atm",
		Request: units.FromMs(0.27),
		SrvDMA:  Stage{Fixed: units.FromMs(0.020), PerKiB: units.FromMs(0.040)},
		Wire:    Stage{Fixed: units.FromMs(0.015), PerKiB: units.FromMs(0.055)},
		ReqDMA:  Stage{Fixed: units.FromMs(0.020), PerKiB: units.FromMs(0.020)},
		Deliver: Stage{Fixed: units.FromMs(0.090), PerKiB: units.FromMs(0.018)},
	}
}

// Ethernet10 returns parameters for a lightly-loaded 10 Mb/s Ethernet with
// the same hosts: the wire dominates (≈0.82 ms/KiB payload time).
func Ethernet10() *Params {
	return &Params{
		Name:    "ethernet-10",
		Request: units.FromMs(0.35),
		SrvDMA:  Stage{Fixed: units.FromMs(0.030), PerKiB: units.FromMs(0.040)},
		Wire:    Stage{Fixed: units.FromMs(0.100), PerKiB: units.FromMs(0.8192)},
		ReqDMA:  Stage{Fixed: units.FromMs(0.030), PerKiB: units.FromMs(0.020)},
		Deliver: Stage{Fixed: units.FromMs(0.120), PerKiB: units.FromMs(0.018)},
	}
}

// LoadedEthernet10 returns parameters for a heavily-loaded 10 Mb/s Ethernet:
// contention both queues messages (large fixed wait) and stretches the
// effective wire rate.
func LoadedEthernet10() *Params {
	p := Ethernet10()
	p.Name = "ethernet-10-loaded"
	p.Wire.Fixed += units.FromMs(2.0)    // queueing behind other senders
	p.Wire.PerKiB = units.FromMs(3.2768) // 4x stretch from collisions/backoff
	return p
}

// Message is one unit of a transfer.
type Message struct {
	// Bytes is the payload size.
	Bytes int
	// Deliver reports whether the receiving CPU must take an interrupt
	// and copy the data (true for normal messages, false for follow-on
	// subpages delivered by an intelligent controller that updates
	// subpage valid bits directly).
	Deliver bool
}

// Resources tracks when each shared receive-side resource next becomes
// free, in absolute model time. A single Resources value shared across
// transfers models congestion on the faulting node's network link; the
// zero value means everything is idle. Server-side DMA is per-transfer
// (GMS spreads pages across many lightly-loaded servers).
type Resources struct {
	WireFree   units.Nanos
	ReqDMAFree units.Nanos
	CPUFree    units.Nanos
}

// Arrival describes when one message of a transfer became usable by the
// faulting program, with the component completion times used to render
// timelines (Figure 2).
type Arrival struct {
	Msg      Message
	SrvStart units.Nanos // server DMA begins
	SrvEnd   units.Nanos
	WireEnd  units.Nanos
	DMAEnd   units.Nanos
	At       units.Nanos // data usable: DMAEnd, or deliver end if Msg.Deliver
}

// Transfer schedules the messages of one remote fetch issued at time start,
// contending on res (which is updated in place; pass nil for a private,
// idle network). Messages are sent in order by a single server. The
// returned arrivals are in message order and non-decreasing in At.
func (p *Params) Transfer(start units.Nanos, res *Resources, msgs []Message) []Arrival {
	return p.AppendTransfer(nil, start, res, msgs)
}

// AppendTransfer is Transfer appending the arrivals to dst, so a caller that
// schedules many transfers can reuse one buffer.
func (p *Params) AppendTransfer(dst []Arrival, start units.Nanos, res *Resources, msgs []Message) []Arrival {
	if res == nil {
		res = &Resources{}
	}
	srvFree := start + p.Request
	n := len(dst)
	dst = slices.Grow(dst, len(msgs))[:n+len(msgs)]
	for i, m := range msgs {
		a := &dst[n+i]
		*a = Arrival{Msg: m, SrvStart: srvFree}
		a.SrvEnd = a.SrvStart + p.SrvDMA.Cost(m.Bytes)
		srvFree = a.SrvEnd

		wireStart := max64(a.SrvEnd, res.WireFree)
		a.WireEnd = wireStart + p.Wire.Cost(m.Bytes)
		res.WireFree = a.WireEnd

		dmaStart := max64(a.WireEnd, res.ReqDMAFree)
		a.DMAEnd = dmaStart + p.ReqDMA.Cost(m.Bytes)
		res.ReqDMAFree = a.DMAEnd

		a.At = a.DMAEnd
		if m.Deliver {
			cpuStart := max64(a.DMAEnd, res.CPUFree)
			a.At = cpuStart + p.Deliver.Cost(m.Bytes)
			res.CPUFree = a.At
		}
	}
	return dst
}

// FetchLatency returns the time from fault to resumption for a single
// message of n bytes on an idle network — the basic "latency vs page size"
// quantity of Figure 1.
func (p *Params) FetchLatency(n int) units.Nanos {
	arr := p.Transfer(0, nil, []Message{{Bytes: n, Deliver: true}})
	return arr[0].At
}

// EagerLatencies returns the two latencies of Table 2 for eager fullpage
// fetch with the given subpage size on an idle network: the time until the
// program resumes (subpage arrival) and the time until the entire page has
// arrived (rest-of-page arrival). For subpage == units.PageSize both values
// are the full-page latency.
func (p *Params) EagerLatencies(subpage int) (sub, rest units.Nanos) {
	if subpage >= units.PageSize {
		l := p.FetchLatency(units.PageSize)
		return l, l
	}
	msgs := []Message{
		{Bytes: subpage, Deliver: true},
		{Bytes: units.PageSize - subpage, Deliver: true},
	}
	arr := p.Transfer(0, nil, msgs)
	return arr[0].At, arr[1].At
}

// OverlapPotential returns Table 2's "improvement potential" columns for a
// subpage size: the overlapped-execution window (time between subpage and
// rest-of-page arrival minus the CPU cost of receiving the rest) and the
// sender-pipelining gain (full-page latency minus rest-of-page arrival),
// both as fractions of the full-page latency. Negative values clamp to 0.
func (p *Params) OverlapPotential(subpage int) (overlapExec, senderPipe float64) {
	sub, rest := p.EagerLatencies(subpage)
	full := p.FetchLatency(units.PageSize)
	recvCPU := p.Deliver.Cost(units.PageSize - subpage)
	oe := float64(rest-sub-recvCPU) / float64(full)
	sp := float64(full-rest) / float64(full)
	if oe < 0 {
		oe = 0
	}
	if sp < 0 {
		sp = 0
	}
	return oe, sp
}

func max64(a, b units.Nanos) units.Nanos {
	if a > b {
		return a
	}
	return b
}
