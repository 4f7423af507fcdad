// Netpager: a live remote-memory cluster in one process. Two page servers
// donate memory, a directory tracks page placement, and a client with a
// tiny local cache runs a computation over a dataset that lives entirely
// in "network memory" — then compares fault latency across transfer
// policies, reproducing the prototype measurement of the paper's §3.1
// (subpage faults complete in a fraction of a full-page fault).
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	gmsubpage "github.com/gms-sim/gmsubpage"
)

const (
	datasetPages = 512 // 4 MB dataset
	cachePages   = 32  // local memory: 16x smaller
)

func main() {
	// Assemble the cluster: directory + two donating servers.
	dir, err := gmsubpage.StartDirectory("127.0.0.1:0", gmsubpage.DirectoryOptions{})
	must(err)
	defer dir.Close()

	srvA, err := gmsubpage.StartServer("127.0.0.1:0")
	must(err)
	defer srvA.Close()
	srvB, err := gmsubpage.StartServer("127.0.0.1:0")
	must(err)
	defer srvB.Close()

	// The dataset: one uint64 counter per 8 bytes, split across servers.
	page := make([]byte, gmsubpage.PageSize)
	next := uint64(0)
	for p := uint64(0); p < datasetPages; p++ {
		for i := 0; i < gmsubpage.PageSize; i += 8 {
			binary.LittleEndian.PutUint64(page[i:], next)
			next++
		}
		if p < datasetPages/2 {
			srvA.Store(p, page)
		} else {
			srvB.Store(p, page)
		}
	}
	must(srvA.Register(dir.Addr()))
	must(srvB.Register(dir.Addr()))
	fmt.Printf("cluster up: %d pages (%d MB) across 2 servers, directory at %s\n",
		dir.Pages(), datasetPages*gmsubpage.PageSize/(1<<20), dir.Addr())

	// A client with 16x less local memory sums the whole dataset.
	client, err := gmsubpage.DialClient(dir.Addr(), gmsubpage.ClientOptions{
		CachePages:  cachePages,
		SubpageSize: 1024,
		Policy:      gmsubpage.Eager,
	})
	must(err)
	defer client.Close()

	var sum, want uint64
	buf := make([]byte, gmsubpage.PageSize)
	for p := uint64(0); p < datasetPages; p++ {
		must(client.Read(buf, p*gmsubpage.PageSize))
		for i := 0; i < len(buf); i += 8 {
			sum += binary.LittleEndian.Uint64(buf[i:])
		}
	}
	n := uint64(datasetPages * gmsubpage.PageSize / 8)
	want = n * (n - 1) / 2
	if sum != want {
		log.Fatalf("checksum mismatch: %d != %d", sum, want)
	}
	st := client.Stats()
	fmt.Printf("summed %d counters from remote memory: ok (%d faults, %d evictions, %.1f MB in)\n\n",
		n, st.Faults, st.Evictions, float64(st.BytesIn)/(1<<20))

	// The §3.1 measurement: fault latency per policy. Loopback TCP is
	// effectively an infinite-speed wire, so we emulate a real link rate
	// for this phase; each client faults fresh pages at an interior
	// offset and reports the median time until the faulted subpage is
	// usable vs. until the whole page is resident. (10 Mb/s keeps the
	// serialization times far above single-CPU scheduler noise; on a
	// multicore machine try 155 for the paper's AN2 rate.)
	const wireMbps = 10
	srvA.SetWireMbps(wireMbps)
	srvB.SetWireMbps(wireMbps)
	fmt.Printf("fault latency by policy (median over fresh faults, emulated %d Mb/s link):\n", wireMbps)
	fmt.Printf("  %-10s %14s %14s\n", "policy", "subpage usable", "page complete")
	for _, pol := range []gmsubpage.Policy{gmsubpage.FullPage, gmsubpage.Eager, gmsubpage.Pipelined} {
		c, err := gmsubpage.DialClient(dir.Addr(), gmsubpage.ClientOptions{
			CachePages:  datasetPages,
			SubpageSize: 1024,
			Policy:      pol,
		})
		must(err)
		// Pace the probes — complete each page before the next fault —
		// so the medians measure isolated fault latency, not queueing.
		var probe [64]byte
		for p := uint64(0); p < 64; p++ {
			must(c.Read(probe[:], p*gmsubpage.PageSize+4000))
			must(c.Read(buf, p*gmsubpage.PageSize))
		}
		s := c.Stats()
		fmt.Printf("  %-10s %11.0f us %11.0f us\n", pol, s.SubpageLatencyUs, s.FullLatencyUs)
		_ = c.Close()
	}
	fmt.Println("\nwith subpage policies the program resumes before the page finishes arriving,")
	fmt.Println("exactly as on the paper's Alpha/AN2 prototype (0.52 ms vs 1.48 ms there).")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
