//go:build gmsdebug

package core

import (
	"testing"

	"github.com/gms-sim/gmsubpage/internal/netmodel"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// TestDebugAssertionsHoldOnRealPolicies drives every policy through the
// assertion-instrumented StartFault/NoteStall paths: a clean run must not
// panic, which is the whole point of `go test -tags gmsdebug`.
func TestDebugAssertionsHoldOnRealPolicies(t *testing.T) {
	if !debugEnabled {
		t.Fatal("gmsdebug build tag set but debugEnabled is false")
	}
	policies := []Policy{
		FullPage{}, Lazy{}, Eager{},
		Pipelined{}, Pipelined{DoubleFollowOn: true}, Pipelined{SoftwareDelivery: true},
		WideFault{},
	}
	for _, p := range policies {
		for _, sub := range []int{256, 1024, 4096} {
			e := NewEngine(netmodel.AN2ATM(), p, sub)
			now := units.Ticks(100)
			for _, off := range []int{0, sub - 1, 2048, 4095} {
				tr := e.StartFault(now, 1, off)
				e.NoteStall(now, tr.FirstArrival, tr, true)
				e.NoteStall(tr.FirstArrival+50, tr.FirstArrival+80, tr, false)
				e.FinishTransfer(tr, tr.CompleteAt+1)
				now = tr.CompleteAt + 1000
			}
		}
	}
}

func TestDebugAssertCatchesOverlappingStalls(t *testing.T) {
	e := NewEngine(netmodel.AN2ATM(), Eager{}, 1024)
	e.NoteStall(100, 200, nil, true)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping NoteStall did not panic under gmsdebug")
		}
	}()
	e.NoteStall(150, 300, nil, true) // starts inside the previous interval
}

// TestDebugAssertCatchesDeadTransfers: a finished transfer belongs to the
// engine's free list, so finishing it again or applying its arrivals is a
// use after free.
func TestDebugAssertCatchesDeadTransfers(t *testing.T) {
	for name, use := range map[string]func(*Engine, *Transfer){
		"finish twice": func(e *Engine, tr *Transfer) { e.FinishTransfer(tr, tr.CompleteAt) },
		"apply after":  func(e *Engine, tr *Transfer) { tr.ApplyArrived(tr.CompleteAt) },
	} {
		t.Run(name, func(t *testing.T) {
			e := NewEngine(netmodel.AN2ATM(), Eager{}, 1024)
			tr := e.StartFault(0, 1, 0)
			e.StartFault(tr.FirstArrival, 2, 0) // keep another transfer live
			e.FinishTransfer(tr, tr.CompleteAt)
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic under gmsdebug", name)
				}
			}()
			use(e, tr)
		})
	}
}

func TestDebugAssertMessage(t *testing.T) {
	defer func() {
		r := recover()
		s, ok := r.(string)
		if !ok || s != "core: invariant violated: boom" {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	debugAssert(false, "boom")
}
