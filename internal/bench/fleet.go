package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"text/tabwriter"
	"time"

	"fasttrack/client"
	"fasttrack/internal/fleet"
	"fasttrack/internal/svc"
)

// FleetReport is the machine-readable fleet-routing artifact: the
// session-completion throughput of a fixed client population against
// 1, 2, and 4 localhost racedetectd nodes, routed with client.Fleet.
//
// The scaled resource is session capacity, not CPU: each node admits at
// most SlotsPerNode concurrent sessions, and every session holds its
// slot for HoldMs of wall-clock (the stand-in for the attached
// program's run time, which on a real fleet dwarfs analysis cost). A
// worker whose dial lands on a full node is refused with a Retry-After
// hint, which the fleet tracker turns into steering toward nodes with
// free slots — so completed sessions per second tracks total slots, and
// the N-node speedup measures how much of the extra capacity the
// routing layer actually reaches. This stays meaningful on a 1-CPU
// host, where raw analysis throughput could never scale with nodes.
type FleetReport struct {
	Header
	Workers      int        `json:"workers"`
	SlotsPerNode int        `json:"slotsPerNode"`
	HoldMs       float64    `json:"sessionHoldMs"`
	Events       int        `json:"eventsPerSession"`
	Sessions     int        `json:"sessionsPerRow"`
	Rows         []FleetRow `json:"rows"`
}

// FleetRow is one fleet size. Speedup is SessionsPerSec over the
// 1-node row's; PerNode is where the routed sessions actually landed
// (by the node id stamped in the accepted handshake), the direct
// evidence that rendezvous routing spread the keys.
type FleetRow struct {
	Nodes          int            `json:"nodes"`
	Completed      int            `json:"completed"`
	Failed         int            `json:"failed"`
	ElapsedNs      int64          `json:"elapsedNs"`
	SessionsPerSec float64        `json:"sessionsPerSec"`
	Speedup        float64        `json:"speedup"`
	PerNode        map[string]int `json:"perNode"`
}

// fleetNode is one in-process daemon: a real svc.Server on a loopback
// listener, exactly what racedetectd wraps.
type fleetNode struct {
	srv  *svc.Server
	ln   net.Listener
	done chan error
}

func startFleetNodes(n, slots int, hint time.Duration) ([]fleetNode, []fleet.Node, error) {
	nodes := make([]fleetNode, 0, n)
	specs := make([]fleet.Node, 0, n)
	for i := 0; i < n; i++ {
		srv := svc.New(svc.Config{
			NodeID:           fmt.Sprintf("n%d", i+1),
			MaxSessions:      slots,
			RetryAfterHint:   hint,
			GovernorInterval: -1, // no background ticking in the timed region
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, fn := range nodes {
				fn.ln.Close()
			}
			return nil, nil, err
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		nodes = append(nodes, fleetNode{srv: srv, ln: ln, done: done})
		specs = append(specs, fleet.Node{Addr: ln.Addr().String()})
	}
	return nodes, specs, nil
}

func stopFleetNodes(nodes []fleetNode) {
	for _, fn := range nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		fn.srv.Shutdown(ctx)
		cancel()
		<-fn.done
	}
}

// fleetRun drives total sessions from workers concurrent clients
// through one shared Fleet and times the whole population to
// completion. Each session streams the (race-free) workload, then
// holds its slot for hold before closing.
func fleetRun(specs []fleet.Node, workers, total int, hold time.Duration, perEvents int) FleetRow {
	f := client.NewFleetNodes(specs)
	defer f.Close()

	// Constant-ish retry schedule: a refused dial waits out the server's
	// Retry-After hint (which outranks a shorter scheduled delay), so
	// the schedule only needs to stop full-speed spinning and carry the
	// jitter that keeps refused workers from re-colliding in lockstep.
	opts := []client.Option{
		client.WithRetry(2000, 0),
		client.WithRetrySchedule(func(int) time.Duration {
			return time.Duration(1+rand.Intn(3)) * time.Millisecond
		}),
		client.WithBatchSize(256),
	}

	var (
		next      atomic.Int64
		failed    atomic.Int64
		mu        sync.Mutex
		perNode   = make(map[string]int)
		completed int
	)
	workload := batchWorkload(perEvents)

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > int64(total) {
					return
				}
				sess, err := f.Dial(fmt.Sprintf("s-%d", i), opts...)
				if err != nil {
					failed.Add(1)
					continue
				}
				node := sess.Node()
				ok := true
				for _, e := range workload {
					if err := sess.Write(e); err != nil {
						ok = false
						break
					}
				}
				if ok {
					time.Sleep(hold) // the attached program "runs"
					if err := sess.Close(); err != nil {
						ok = false
					} else if _, err := sess.Results(); err != nil {
						ok = false
					}
				}
				if !ok {
					failed.Add(1)
					continue
				}
				mu.Lock()
				completed++
				perNode[node]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	return FleetRow{
		Nodes:          len(specs),
		Completed:      completed,
		Failed:         int(failed.Load()),
		ElapsedNs:      elapsed.Nanoseconds(),
		SessionsPerSec: float64(completed) / elapsed.Seconds(),
		PerNode:        perNode,
	}
}

// Fleet produces the fleet-routing throughput table at 1, 2, and 4
// nodes. sessions <= 0 defaults to 96 scaled by cfg.Scale with a
// 48 floor.
func Fleet(cfg Config, sessions int) (FleetReport, error) {
	const (
		slots     = 4
		workers   = 16
		hold      = 15 * time.Millisecond
		hint      = 4 * time.Millisecond
		perEvents = 256
	)
	if sessions <= 0 {
		sessions = int(96 * cfg.Scale)
		if sessions < 48 {
			sessions = 48
		}
	}
	rep := FleetReport{
		Header:       newHeader("fleet", cfg),
		Workers:      workers,
		SlotsPerNode: slots,
		HoldMs:       float64(hold) / float64(time.Millisecond),
		Events:       perEvents,
		Sessions:     sessions,
	}
	var base float64
	for _, n := range []int{1, 2, 4} {
		nodes, specs, err := startFleetNodes(n, slots, hint)
		if err != nil {
			return rep, err
		}
		var best FleetRow
		for r := 0; r < cfg.runs(); r++ {
			row := fleetRun(specs, workers, sessions, hold, perEvents)
			if best.Completed == 0 || row.SessionsPerSec > best.SessionsPerSec {
				best = row
			}
		}
		stopFleetNodes(nodes)
		if n == 1 {
			base = best.SessionsPerSec
		}
		if base > 0 {
			best.Speedup = best.SessionsPerSec / base
		}
		rep.Rows = append(rep.Rows, best)
	}
	return rep, nil
}

// Check gates the artifact: exactly the 1-, 2- and 4-node rows, every
// session completed on as many nodes as the row has, and scale-out of
// at least 1.8x at 2 nodes and 2.5x at 4. The table is slot-bound, not
// CPU-bound, so the gate holds on any core count.
func (rep FleetReport) Check() error {
	var g gates
	g.header(rep.Header, "fleet")
	g.need(rep.SlotsPerNode > 0, "slotsPerNode %d, want > 0", rep.SlotsPerNode)
	rows := map[int]FleetRow{}
	for _, r := range rep.Rows {
		rows[r.Nodes] = r
		g.need(r.Failed == 0, "%d nodes: %d failed sessions, want 0", r.Nodes, r.Failed)
		g.need(r.Completed == rep.Sessions, "%d nodes: %d sessions completed, want %d", r.Nodes, r.Completed, rep.Sessions)
		g.need(len(r.PerNode) == r.Nodes, "%d nodes: sessions landed on %d", r.Nodes, len(r.PerNode))
	}
	_, n1 := rows[1]
	_, n2 := rows[2]
	_, n4 := rows[4]
	g.need(len(rows) == 3 && n1 && n2 && n4, "rows for %d node counts, want exactly 1, 2 and 4", len(rows))
	g.need(rows[2].Speedup >= 1.8, "2-node speedup %.2fx, want >= 1.8x", rows[2].Speedup)
	g.need(rows[4].Speedup >= 2.5, "4-node speedup %.2fx, want >= 2.5x", rows[4].Speedup)
	return g.err()
}

// FprintFleet renders the fleet-routing throughput table.
func FprintFleet(w io.Writer, rep FleetReport) {
	fmt.Fprintf(w, "Fleet-routed session throughput: %d workers, %d slots/node, %.0fms hold, %d sessions, best of %d, %d CPU(s)\n\n",
		rep.Workers, rep.SlotsPerNode, rep.HoldMs, rep.Sessions, rep.Runs, rep.CPUs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Nodes\tCompleted\tFailed\tms\tsessions/sec\tvs 1 node\tspread")
	for _, r := range rep.Rows {
		ids := make([]string, 0, len(r.PerNode))
		for id := range r.PerNode {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		spread := ""
		for i, id := range ids {
			if i > 0 {
				spread += " "
			}
			spread += fmt.Sprintf("%s:%d", id, r.PerNode[id])
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.0f\t%.1f\t%.2fx\t%s\n",
			r.Nodes, r.Completed, r.Failed,
			float64(r.ElapsedNs)/1e6, r.SessionsPerSec, r.Speedup, spread)
	}
	tw.Flush()
	fmt.Fprintln(w, "\n(session slots, not CPU, are the scaled resource: every session holds")
	fmt.Fprintln(w, " its node slot for the hold time, refused dials are steered to nodes")
	fmt.Fprintln(w, " with free slots, so throughput tracks total fleet capacity)")
}
