// Command rtcall times the exported entry points of the instrument/rt
// shim directly, without a rewritten program around them: loops of
// rt.R/rt.W (the access path) and rt.Acquire/rt.Release (the sync path),
// each at the given number of concurrent goroutines. It prints one JSON
// object with the nanoseconds per call as each goroutine sees them
// (wall time of the loop divided by the calls one goroutine made).
//
// The shim runs in its trace mode, so FASTTRACK_MODE=trace and
// FASTTRACK_TRACE=<file> must be set, as racedetect run sets them.
//
// Usage: rtcall [-calls N] [-goroutines G]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	rt "fasttrack/instrument/rt"
)

// slots is how many distinct locations each goroutine cycles through:
// enough that adjacent calls never hit the shim's duplicate coalescing,
// few enough that the shim's id tables stay small.
const slots = 1024

func main() {
	calls := flag.Int("calls", 100000, "shim calls per goroutine in each loop")
	goroutines := flag.Int("goroutines", 1, "concurrent goroutines calling the shim")
	flag.Parse()
	if *calls < 2 || *goroutines < 1 {
		fmt.Fprintln(os.Stderr, "rtcall: -calls must be at least 2 and -goroutines at least 1")
		os.Exit(2)
	}
	finish := rt.Boot()

	accessNs := loop(*goroutines, *calls, func(xs *[slots]uint64, mu *sync.Mutex, i int) {
		p := &xs[i%slots]
		rt.R(p)
		rt.W(p)
	})
	syncNs := loop(*goroutines, *calls, func(xs *[slots]uint64, mu *sync.Mutex, i int) {
		rt.Acquire(mu)
		rt.Release(mu)
	})
	finish()

	out, _ := json.Marshal(map[string]float64{"access_ns": accessNs, "sync_ns": syncNs})
	fmt.Println(string(out))
}

// loop runs body calls/2 times on each of g goroutines (every body makes
// two shim calls) and returns the wall nanoseconds per call. The
// goroutines are registered with the shim the way the rewriter
// registers a go statement: Fork in the parent, Begin and End in the
// child.
func loop(g, calls int, body func(xs *[slots]uint64, mu *sync.Mutex, i int)) float64 {
	var wg sync.WaitGroup
	start := make(chan struct{})
	for k := 0; k < g; k++ {
		tid := rt.Fork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Begin(tid)
			defer rt.End()
			var xs [slots]uint64
			var mu sync.Mutex
			<-start
			for i := 0; i < calls/2; i++ {
				body(&xs, &mu, i)
			}
		}()
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / float64(calls/2*2)
}
