// Package hb computes the happens-before relation of a trace directly
// from its definition (FastTrack paper, Section 2.1) and reports every
// variable with two concurrent conflicting accesses. It is the ground
// truth against which the precise detectors are property-tested
// (Theorem 1: FastTrack flags a variable iff the trace has a race on it).
//
// The oracle is deliberately implemented with none of the vector-clock
// machinery the detectors share: it builds an explicit happens-before
// DAG over trace events and decides ordering by graph reachability. It
// is O(events^2) and intended for small traces only.
package hb

import (
	"fasttrack/trace"
)

// Oracle holds the happens-before DAG of one trace.
type Oracle struct {
	tr   trace.Trace
	succ [][]int32 // adjacency: edges i -> j with i before j
	// reach memoizes per-source reachability bitsets, built on demand.
	reach map[int32][]uint64
}

// New builds the happens-before DAG for tr. The trace should be feasible
// (trace.Validate); infeasible traces yield unspecified results.
func New(tr trace.Trace) *Oracle {
	o := &Oracle{
		tr:    tr,
		succ:  make([][]int32, len(tr)),
		reach: make(map[int32][]uint64),
	}
	o.build()
	return o
}

// build adds one edge per ordering rule; transitivity comes from
// reachability.
func (o *Oracle) build() {
	lastOfThread := map[int32]int32{} // most recent event index per thread
	lastLockOp := map[uint64]int32{}  // most recent acq/rel per lock
	volWrites := map[uint64][]int32{} // all volatile writes per volatile
	pendingFork := map[int32]int32{}  // child tid -> fork event index

	// Per-channel operation history for the Go memory model's channel
	// rules (capacity fixed by the first event naming the channel).
	type chanInfo struct {
		capacity     int32
		sends, recvs []int32 // event indices in operation order
		closes       []int32
		sendsAtClose int // len(sends) at the first close
	}
	chans := map[uint64]*chanInfo{}
	chanOf := func(ch uint64, capacity int32) *chanInfo {
		ci := chans[ch]
		if ci == nil {
			if capacity < 0 {
				capacity = 0
			}
			ci = &chanInfo{capacity: capacity}
			chans[ch] = ci
		}
		return ci
	}

	edge := func(from, to int32) {
		if from >= 0 {
			o.succ[from] = append(o.succ[from], to)
		}
	}

	for idx, e := range o.tr {
		i := int32(idx)
		if e.Kind == trace.BarrierRelease {
			// Program order for participants threads through the barrier
			// node itself: last event of each participant -> barrier ->
			// next event of each participant.
			for _, t := range e.Tids {
				if prev, ok := lastOfThread[t]; ok {
					edge(prev, i)
				}
				if f, ok := pendingFork[t]; ok {
					edge(f, i)
					delete(pendingFork, t)
				}
				lastOfThread[t] = i
			}
			continue
		}

		// Program order.
		if prev, ok := lastOfThread[e.Tid]; ok {
			edge(prev, i)
		}
		lastOfThread[e.Tid] = i

		switch e.Kind {
		case trace.Acquire, trace.Release:
			// All operations on one lock are totally ordered (Section
			// 2.1, "Locking"); chaining consecutive lock operations
			// yields that total order under transitivity.
			if prev, ok := lastLockOp[e.Target]; ok {
				edge(prev, i)
			}
			lastLockOp[e.Target] = i
		case trace.Fork:
			pendingFork[int32(e.Target)] = i
		case trace.Join:
			// The joined thread's last event, or its fork if it never
			// ran, happens before the join.
			u := int32(e.Target)
			if last, ok := lastOfThread[u]; ok {
				edge(last, i)
			}
			if f, ok := pendingFork[u]; ok {
				edge(f, i)
				delete(pendingFork, u)
			}
		case trace.VolatileWrite:
			// JMM: a volatile write happens before every subsequent read
			// of that volatile — and only reads. Two volatile writes are
			// not happens-before ordered (synchronization order is not
			// happens-before), matching the FT WRITE VOLATILE rule, which
			// accumulates writers in L_vx without the writers absorbing
			// each other's clocks.
			volWrites[e.Target] = append(volWrites[e.Target], i)
		case trace.VolatileRead:
			// The accumulated L_vx is the join of every previous writer's
			// state, so the read happens after each of them.
			for _, w := range volWrites[e.Target] {
				edge(w, i)
			}
		case trace.ChanSend:
			// Go memory model: the k-th receive on a channel with capacity
			// C happens before the (k+C)-th send completes. For a
			// rendezvous channel (C = 0) the detector is conservative —
			// every prior receive orders every send — and the oracle
			// matches that relation (on a feasible strictly-alternating
			// stream the extra edges are implied by transitivity anyway).
			ci := chanOf(e.Target, e.Cap)
			k := len(ci.sends) + 1
			if ci.capacity == 0 {
				for _, r := range ci.recvs {
					edge(r, i)
				}
			} else if j := k - int(ci.capacity); j >= 1 && j <= len(ci.recvs) {
				edge(ci.recvs[j-1], i)
			}
			ci.sends = append(ci.sends, i)
		case trace.ChanRecv:
			// The k-th send happens before the k-th receive; a close
			// happens before any receive observing the closed state (for
			// C = 0 the detector folds the close into the send
			// accumulator, so every later receive is ordered after it).
			ci := chanOf(e.Target, e.Cap)
			k := len(ci.recvs) + 1
			if ci.capacity == 0 {
				for _, s := range ci.sends {
					edge(s, i)
				}
				for _, c := range ci.closes {
					edge(c, i)
				}
			} else {
				if k <= len(ci.sends) {
					edge(ci.sends[k-1], i)
				}
				if len(ci.closes) > 0 && k > ci.sendsAtClose {
					for _, c := range ci.closes {
						edge(c, i)
					}
				}
			}
			ci.recvs = append(ci.recvs, i)
		case trace.ChanClose:
			ci := chanOf(e.Target, e.Cap)
			if len(ci.closes) == 0 {
				ci.sendsAtClose = len(ci.sends)
			}
			ci.closes = append(ci.closes, i)
		}

		// Fork edge: fork(t,u) happens before u's first event.
		if f, ok := pendingFork[e.Tid]; ok {
			edge(f, i)
			delete(pendingFork, e.Tid)
		}
	}
}

// HappensBefore reports whether event i happens before event j (i < j in
// trace order and j reachable from i in the DAG).
func (o *Oracle) HappensBefore(i, j int) bool {
	if i >= j {
		return false
	}
	return o.bits(int32(i))[j/64]&(1<<uint(j%64)) != 0
}

// Concurrent reports whether two distinct events are unordered.
func (o *Oracle) Concurrent(i, j int) bool {
	if i == j {
		return false
	}
	if i > j {
		i, j = j, i
	}
	return !o.HappensBefore(i, j)
}

// bits returns (computing and memoizing) the reachability set of event i.
func (o *Oracle) bits(i int32) []uint64 {
	if b, ok := o.reach[i]; ok {
		return b
	}
	b := make([]uint64, (len(o.tr)+63)/64)
	// DFS from i.
	stack := []int32{i}
	seen := make([]bool, len(o.tr))
	seen[i] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range o.succ[n] {
			if !seen[m] {
				seen[m] = true
				b[m/64] |= 1 << uint(m%64)
				stack = append(stack, m)
			}
		}
	}
	o.reach[i] = b
	return b
}

// Race is one pair of concurrent conflicting accesses.
type Race struct {
	Var  uint64
	I, J int // event indices, I < J
}

// Races returns every racy pair, grouped per variable in first-occurrence
// order. A trace is race-free iff the result is empty.
func (o *Oracle) Races() []Race {
	type access struct {
		idx   int
		write bool
	}
	byVar := map[uint64][]access{}
	var order []uint64
	for i, e := range o.tr {
		if !e.Kind.IsAccess() {
			continue
		}
		if _, ok := byVar[e.Target]; !ok {
			order = append(order, e.Target)
		}
		byVar[e.Target] = append(byVar[e.Target], access{i, e.Kind == trace.Write})
	}
	var races []Race
	for _, x := range order {
		accs := byVar[x]
		for a := 0; a < len(accs); a++ {
			for b := a + 1; b < len(accs); b++ {
				if !accs[a].write && !accs[b].write {
					continue // two reads never conflict
				}
				if o.Concurrent(accs[a].idx, accs[b].idx) {
					races = append(races, Race{Var: x, I: accs[a].idx, J: accs[b].idx})
				}
			}
		}
	}
	return races
}

// RacyVars returns the set of variables involved in at least one race.
func (o *Oracle) RacyVars() map[uint64]bool {
	out := map[uint64]bool{}
	for _, r := range o.Races() {
		out[r.Var] = true
	}
	return out
}
