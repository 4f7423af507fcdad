package gmsubpage

import (
	"fmt"
	"time"

	"github.com/gms-sim/gmsubpage/internal/trace"
	"github.com/gms-sim/gmsubpage/internal/units"
)

// This file connects the paper's workloads to the live prototype: a
// client replays a synthetic application's reference stream against real
// remote memory over TCP, page-compacting the sparse trace addresses onto
// the dense page range the servers donate.

// WorkloadPages returns the number of 8 KB pages the named workload
// touches at the given scale — how much memory the cluster must donate
// before ReplayWorkload can run it.
func WorkloadPages(workload string, scale float64) (int, error) {
	if scale == 0 {
		scale = 0.25
	}
	app := trace.ByName(workload, scale)
	if app == nil {
		return 0, fmt.Errorf("gmsubpage: unknown workload %q (have %v)", workload, Workloads())
	}
	return app.TotalPages, nil
}

// ReplayReport summarizes a live workload replay.
type ReplayReport struct {
	Workload string
	Refs     int64
	Elapsed  time.Duration

	// Client counters accumulated during the replay.
	Faults           int64
	Evictions        int64
	BytesIn          int64
	SubpageLatencyUs float64
	FullLatencyUs    float64
}

// FaultsPerSecond reports the achieved fault service rate.
func (r *ReplayReport) FaultsPerSecond() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Faults) / r.Elapsed.Seconds()
}

// ReplayWorkload drives the client with the named workload's memory
// references: every load and store becomes a Read or Write against remote
// memory. Trace pages are assigned dense page numbers starting at
// firstPage in first-touch order, so a cluster donating
// [firstPage, firstPage+WorkloadPages) can back the whole run.
func (c *Client) ReplayWorkload(workload string, scale float64, firstPage uint64) (*ReplayReport, error) {
	if scale == 0 {
		scale = 0.25
	}
	app := trace.ByName(workload, scale)
	if app == nil {
		return nil, fmt.Errorf("gmsubpage: unknown workload %q (have %v)", workload, Workloads())
	}
	before := c.Stats()
	start := time.Now() //lint:allow simpurity live replay measures the real prototype, so wall-clock elapsed time is the result

	pageMap := make(map[uint64]uint64, app.TotalPages)
	nextPage := firstPage
	rd := app.NewReader()
	buf := make([]trace.Ref, 8192)
	var refs int64
	var word [8]byte
	for {
		n := rd.Read(buf)
		if n == 0 {
			break
		}
		for _, ref := range buf[:n] {
			tracePage := ref.Addr / units.PageSize
			dense, ok := pageMap[tracePage]
			if !ok {
				dense = nextPage
				pageMap[tracePage] = dense
				nextPage++
			}
			// Clamp so an 8-byte access never crosses the page.
			off := ref.Addr % units.PageSize
			if off > units.PageSize-8 {
				off = units.PageSize - 8
			}
			addr := dense*units.PageSize + off
			var err error
			if ref.Store {
				err = c.Write(word[:], addr)
			} else {
				err = c.Read(word[:], addr)
			}
			if err != nil {
				return nil, fmt.Errorf("gmsubpage: replay %s at ref %d: %w",
					workload, refs, err)
			}
			refs++
		}
	}
	after := c.Stats()
	return &ReplayReport{
		Workload:         workload,
		Refs:             refs,
		Elapsed:          time.Since(start), //lint:allow simpurity wall-clock elapsed time of the live run is the reported measurement
		Faults:           after.Faults - before.Faults,
		Evictions:        after.Evictions - before.Evictions,
		BytesIn:          after.BytesIn - before.BytesIn,
		SubpageLatencyUs: after.SubpageLatencyUs,
		FullLatencyUs:    after.FullLatencyUs,
	}, nil
}
