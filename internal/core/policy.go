// Package core implements the paper's contribution: subpage transfer
// policies for remote-memory page faults, and the fault engine that
// schedules their transfers, tracks per-subpage arrival, and attributes the
// resulting benefit to overlapped I/O versus overlapped computation.
//
// A Policy decides, for a fault at a given offset, which messages to
// transfer: the whole page (the classical GMS baseline), just the faulted
// subpage (lazy fetch / small pages), the faulted subpage followed by the
// rest of the page as one large message (eager fullpage fetch), or the
// faulted subpage followed by pipelined neighbour subpages and then the
// remainder (subpage pipelining), including the §4.3 variants.
package core

import (
	"fmt"

	"github.com/gms-sim/gmsubpage/internal/memmodel"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// PlannedMessage is one message of a fault's transfer plan.
type PlannedMessage struct {
	// Bytes is the payload size.
	Bytes int
	// Deliver reports whether the receiving CPU takes an interrupt and
	// copy for this message (false models the intelligent controller
	// that deposits pipelined subpages and updates valid bits directly).
	Deliver bool
	// Covers is the set of subpage valid bits this message supplies.
	Covers memmodel.Bitmap
}

// Policy plans the messages for a fault at byte offset faultOff within a
// page, with the system configured for the given subpage size. The first
// message must cover the faulted offset; together the messages may cover
// any subset of the page (lazy fetch covers only the faulted subpage).
//
// A plan may depend on faultOff only through faultOff>>7, and its
// caller must not modify it: the Engine asks a stateless policy once per
// 128-byte granule and size, and reuses the answer for every later fault
// there. Half the smallest subpage is fine enough for WideFault, which
// reads which half of the subpage the fault is in.
type Policy interface {
	Name() string
	Plan(subpageSize, faultOff int) []PlannedMessage
}

// planShift is log2 of the granule a stateless policy's plan is constant
// over: half of units.MinSubpage.
const planShift = 7

// A granule must be no coarser than half the smallest subpage.
const _ = uint(units.MinSubpage - 2<<planShift)

// FullPage is the classical GMS baseline: the entire page in one transfer.
type FullPage struct{}

// Name implements Policy.
func (FullPage) Name() string { return "fullpage" }

// Plan implements Policy.
func (FullPage) Plan(subpageSize, faultOff int) []PlannedMessage {
	return []PlannedMessage{{
		Bytes:   units.PageSize,
		Deliver: true,
		Covers:  memmodel.FullBitmap,
	}}
}

// Lazy transfers only the faulted subpage; the remaining subpages fault in
// on demand, each with a full request round-trip. Equivalent in most
// respects to shrinking the page size (§2.1); implemented as a baseline.
type Lazy struct{}

// Name implements Policy.
func (Lazy) Name() string { return "lazy" }

// Plan implements Policy.
func (Lazy) Plan(subpageSize, faultOff int) []PlannedMessage {
	idx := memmodel.SubpageIndex(subpageSize, faultOff)
	return []PlannedMessage{{
		Bytes:   subpageSize,
		Deliver: true,
		Covers:  memmodel.MaskFor(subpageSize, idx),
	}}
}

// Eager is eager fullpage fetch: transfer the faulted subpage, restart the
// program, and send the remainder of the page as one large follow-on
// message.
type Eager struct{}

// Name implements Policy.
func (Eager) Name() string { return "eager" }

// Plan implements Policy.
func (Eager) Plan(subpageSize, faultOff int) []PlannedMessage {
	if subpageSize >= units.PageSize {
		return FullPage{}.Plan(subpageSize, faultOff)
	}
	idx := memmodel.SubpageIndex(subpageSize, faultOff)
	first := memmodel.MaskFor(subpageSize, idx)
	return []PlannedMessage{
		{Bytes: subpageSize, Deliver: true, Covers: first},
		{Bytes: units.PageSize - subpageSize, Deliver: true, Covers: memmodel.FullBitmap &^ first},
	}
}

// Pipelined is subpage pipelining: after the faulted subpage, the sender
// pipelines the neighbouring subpages — most-likely-next first (+1, then
// -1, per the Figure 7 distance distribution) — and then the remainder of
// the page in one message.
type Pipelined struct {
	// Neighbors is how many subpages to pipeline on each side of the
	// fault (default 1: the +1 and -1 subpages).
	Neighbors int
	// DoubleFollowOn doubles the size of each pipelined transfer (the
	// §4.3 variant: "we doubled the size of the pipeline transfers").
	DoubleFollowOn bool
	// SoftwareDelivery charges the receiving CPU for every pipelined
	// subpage, modelling the AN2 prototype (where per-interrupt cost
	// made pipelining unprofitable) instead of the intelligent
	// controller the simulations assume.
	SoftwareDelivery bool
}

// Name implements Policy.
func (p Pipelined) Name() string {
	name := "pipelined"
	if p.DoubleFollowOn {
		name += "-double"
	}
	if p.SoftwareDelivery {
		name += "-sw"
	}
	return name
}

// Plan implements Policy.
func (p Pipelined) Plan(subpageSize, faultOff int) []PlannedMessage {
	if subpageSize >= units.PageSize {
		return FullPage{}.Plan(subpageSize, faultOff)
	}
	n := units.SubpagesPerPage(subpageSize)
	idx := memmodel.SubpageIndex(subpageSize, faultOff)
	first := memmodel.MaskFor(subpageSize, idx)
	neighbors := p.Neighbors
	if neighbors <= 0 {
		neighbors = 1
	}
	// The faulted subpage, at most two pipelined messages per neighbour
	// distance, and the remainder: sized once, so planning allocates once.
	msgs := make([]PlannedMessage, 1, 2*neighbors+2)
	msgs[0] = PlannedMessage{Bytes: subpageSize, Deliver: true, Covers: first}
	covered := first
	span := 1
	if p.DoubleFollowOn {
		span = 2
	}
	// Walk outward from the fault, +direction first (the next consecutive
	// subpage dominates the Figure 7 distance distribution), sending span
	// subpages per pipelined message.
	up, down := idx+1, idx-1
	emit := func(start int) {
		var covers memmodel.Bitmap
		bytes := 0
		for k := 0; k < span; k++ {
			j := start + k
			if j < 0 || j >= n {
				continue
			}
			m := memmodel.MaskFor(subpageSize, j)
			if covered&m != 0 {
				continue
			}
			covers |= m
			bytes += subpageSize
		}
		if bytes == 0 {
			return
		}
		covered |= covers
		msgs = append(msgs, PlannedMessage{
			Bytes:   bytes,
			Deliver: p.SoftwareDelivery,
			Covers:  covers,
		})
	}
	for d := 0; d < neighbors; d++ {
		emit(up)
		up += span
		emit(down - span + 1)
		down -= span
	}
	if rest := memmodel.FullBitmap &^ covered; rest != 0 {
		msgs = append(msgs, PlannedMessage{
			Bytes:   rest.Count() * units.MinSubpage,
			Deliver: p.SoftwareDelivery,
			Covers:  rest,
		})
	}
	return msgs
}

// WideFault is the §4.3 variant that doubles the *initial* transfer: the
// faulted subpage plus either its preceding or following neighbour,
// depending on where in the subpage the faulted word lies, followed by the
// rest of the page as in eager fullpage fetch.
type WideFault struct{}

// Name implements Policy.
func (WideFault) Name() string { return "widefault" }

// Plan implements Policy.
func (WideFault) Plan(subpageSize, faultOff int) []PlannedMessage {
	if subpageSize >= units.PageSize {
		return FullPage{}.Plan(subpageSize, faultOff)
	}
	n := units.SubpagesPerPage(subpageSize)
	idx := memmodel.SubpageIndex(subpageSize, faultOff)
	first := memmodel.MaskFor(subpageSize, idx)
	bytes := subpageSize

	// A fault early in the subpage suggests a forward walk beginning
	// here (include the following subpage); a fault late in the subpage
	// suggests the program landed mid-object and may reach backward.
	within := faultOff - idx*subpageSize
	nb := idx + 1
	if within >= subpageSize/2 {
		nb = idx - 1
	}
	if nb >= 0 && nb < n {
		first |= memmodel.MaskFor(subpageSize, nb)
		bytes += subpageSize
	}
	msgs := make([]PlannedMessage, 1, 2)
	msgs[0] = PlannedMessage{Bytes: bytes, Deliver: true, Covers: first}
	if rest := memmodel.FullBitmap &^ first; rest != 0 {
		msgs = append(msgs, PlannedMessage{
			Bytes:   rest.Count() * units.MinSubpage,
			Deliver: true,
			Covers:  rest,
		})
	}
	return msgs
}

// wirePolicies is the set of policies the remote-memory prototype carries on
// the wire, indexed by wire byte (the proto.Policy* constants are its
// indices). This table is the one place a policy is tied to its byte: names
// come from Policy.Name, so the server, Dial and the public facade resolve
// through it and cannot disagree. The entries are stateless values, safe to
// share across requests.
var wirePolicies = [...]Policy{FullPage{}, Lazy{}, Eager{}, Pipelined{}}

// UnknownPolicyError reports a policy the wire protocol does not carry:
// either a name with no wire byte (simulator-only policies included) or a
// byte no policy owns.
type UnknownPolicyError struct {
	// Name is the offending policy name, or a rendering of the byte.
	Name string
}

func (e *UnknownPolicyError) Error() string {
	return "core: policy " + e.Name + " is not supported by the wire protocol"
}

// WirePolicy returns the policy a wire byte names.
func WirePolicy(b uint8) (Policy, error) {
	if int(b) < len(wirePolicies) {
		return wirePolicies[b], nil
	}
	return nil, &UnknownPolicyError{Name: fmt.Sprintf("byte %d", b)}
}

// WireByte returns the wire byte of the policy called name. The empty name
// selects eager, the prototype's standard policy.
func WireByte(name string) (uint8, error) {
	if name == "" {
		name = Eager{}.Name()
	}
	for b, p := range wirePolicies {
		if p.Name() == name {
			return uint8(b), nil
		}
	}
	return 0, &UnknownPolicyError{Name: name}
}

// policyFactories enumerates the registered policies in presentation order.
// Entries are constructors, not instances: a stateful policy (the
// Prefetcher) must come out fresh per lookup so callers never share fault
// history, and the server's per-request lookup should not build policies it
// will not return.
var policyFactories = []func() Policy{
	func() Policy { return FullPage{} },
	func() Policy { return Lazy{} },
	func() Policy { return Eager{} },
	func() Policy { return Pipelined{} },
	func() Policy { return Pipelined{DoubleFollowOn: true} },
	func() Policy { return Pipelined{SoftwareDelivery: true} },
	func() Policy { return WideFault{} },
	func() Policy { return NewPrefetcher() },
}

// ByName returns the policy with the given Name, or an error listing the
// valid names. Stateful policies come back fresh on every call.
func ByName(name string) (Policy, error) {
	for _, mk := range policyFactories {
		if p := mk(); p.Name() == name {
			return p, nil
		}
	}
	valid := make([]string, len(policyFactories))
	for i, mk := range policyFactories {
		valid[i] = mk().Name()
	}
	return nil, fmt.Errorf("core: unknown policy %q (valid: %v)", name, valid)
}
