package sim

import "fasttrack/trace"

// ChanProfile describes a channel-heavy workload on first-class
// chsend/chrecv events, the capacity-aware happens-before of DESIGN.md
// §14: Pairs independent producer/consumer goroutine pairs, each mixing
// the three channel idioms the detector's rules exist for. Per pair and
// iteration:
//
//   - Handoffs ping-pong rounds through two unbuffered channels (data
//     forward, ack back): the producer writes a shared cell, sends,
//     and waits for the ack before reusing the cell. Race-free.
//   - RingOps items through a classic bounded buffer: a data channel
//     of capacity RingCap plus a free-token channel of the same
//     capacity, RingCap shared slots reused in rotation. Slot reuse
//     is ordered by the token's round trip, which the capacity-aware
//     rules see as ring snapshots. Race-free.
//   - SlackRaces seeded buffered-slack races: the producer sends into
//     a capacity-2 channel, writes a fresh cell, sends again (the
//     buffer never fills, so neither send waits), and the consumer
//     reads the cell after receiving only the first item. Only the
//     first send happens before that receive, so the write and the
//     read race, and the detector reports each.
type ChanProfile struct {
	Name       string
	Pairs      int
	Handoffs   int
	RingCap    int
	RingOps    int
	SlackRaces int
}

// KnownRaces returns the number of real races seeded in the profile.
func (p ChanProfile) KnownRaces() int {
	return p.Pairs * p.SlackRaces
}

// Threads returns the total thread count including the initial thread.
func (p ChanProfile) Threads() int { return 1 + 2*p.Pairs }

// ChanMix is the default channel-heavy profile (tracegen -workload
// chan).
func ChanMix() ChanProfile {
	return ChanProfile{
		Name:       "chan",
		Pairs:      4,
		Handoffs:   300,
		RingCap:    8,
		RingOps:    600,
		SlackRaces: 3,
	}
}

// Generate expands the profile into a feasible trace. scale multiplies
// the repetition counts (Handoffs, RingOps), not the pair or race
// counts, so scale=2 roughly doubles the event count with the same
// shape. The trace is deterministic: the interleaving is the fixed
// lockstep schedule that keeps every channel operation feasible.
func (p ChanProfile) Generate(scale float64) trace.Trace {
	if scale <= 0 {
		scale = 1
	}
	sc := func(n int) int {
		if n == 0 {
			return 0
		}
		m := int(float64(n) * scale)
		if m < 1 {
			m = 1
		}
		return m
	}

	var tr trace.Trace
	emit := func(e trace.Event) { tr = append(tr, e) }

	// Channel ids: 5 per pair (data, ack, ring data, ring tokens,
	// slack), distinct among themselves in the channel namespace.
	const chansPerPair = 5
	chanID := func(pair, which int) uint64 { return uint64(pair*chansPerPair + which) }
	send := func(t int32, pair, which int, capacity int32) trace.Event {
		return trace.ChSend(t, chanID(pair, which), capacity)
	}
	recv := func(t int32, pair, which int, capacity int32) trace.Event {
		return trace.ChRecv(t, chanID(pair, which), capacity)
	}

	// Variable layout per pair: one ping-pong cell, RingCap ring slots,
	// SlackRaces slack cells.
	varsPerPair := 1 + p.RingCap + p.SlackRaces
	pingVar := func(pair int) uint64 { return uint64(pair * varsPerPair) }
	ringVar := func(pair, slot int) uint64 { return uint64(pair*varsPerPair+1) + uint64(slot) }
	slackVar := func(pair, k int) uint64 {
		return uint64(pair*varsPerPair+1+p.RingCap) + uint64(k)
	}

	const (
		chData  = iota // unbuffered: producer -> consumer
		chAck          // unbuffered: consumer -> producer
		chRing         // capacity RingCap: items
		chFree         // capacity RingCap: free-slot tokens
		chSlack        // capacity 2: the seeded-race channel
	)
	ringCap := int32(p.RingCap)

	// Thread 0 seeds each pair's free-token channel before forking (the
	// fork edge orders the tokens before both workers), then forks
	// producer 2i+1 and consumer 2i+2.
	for pair := 0; pair < p.Pairs; pair++ {
		for i := 0; i < p.RingCap; i++ {
			emit(send(0, pair, chFree, ringCap))
		}
	}
	for pair := 0; pair < p.Pairs; pair++ {
		emit(trace.ForkOf(0, int32(1+2*pair)))
		emit(trace.ForkOf(0, int32(2+2*pair)))
	}

	handoffs, ringOps := sc(p.Handoffs), sc(p.RingOps)
	for pair := 0; pair < p.Pairs; pair++ {
		prod, cons := int32(1+2*pair), int32(2+2*pair)

		// Ping-pong: the ack's rendezvous orders the consumer's read
		// before the producer's next write to the same cell.
		x := pingVar(pair)
		for i := 0; i < handoffs; i++ {
			emit(trace.Wr(prod, x))
			emit(send(prod, pair, chData, 0))
			emit(recv(cons, pair, chData, 0))
			emit(trace.Rd(cons, x))
			emit(send(cons, pair, chAck, 0))
			emit(recv(prod, pair, chAck, 0))
		}

		// Bounded buffer: the producer takes a free token, fills the
		// slot, sends; the consumer receives, drains the slot, returns
		// the token. The token's trip through chFree carries the
		// consumer's drain to the producer's next write of that slot.
		for k := 0; k < ringOps; k++ {
			slot := k % p.RingCap
			emit(recv(prod, pair, chFree, ringCap))
			emit(trace.Wr(prod, ringVar(pair, slot)))
			emit(send(prod, pair, chRing, ringCap))
			emit(recv(cons, pair, chRing, ringCap))
			emit(trace.Rd(cons, ringVar(pair, slot)))
			emit(trace.Wr(cons, ringVar(pair, slot)))
			emit(send(cons, pair, chFree, ringCap))
		}

		// Seeded buffered-slack races: both sends fit the capacity-2
		// buffer, so only send 2k+1 happens before receive 2k+1 and the
		// write between the sends races with the consumer's read.
		for k := 0; k < p.SlackRaces; k++ {
			v := slackVar(pair, k)
			emit(send(prod, pair, chSlack, 2))
			emit(trace.Wr(prod, v))
			emit(send(prod, pair, chSlack, 2))
			emit(recv(cons, pair, chSlack, 2))
			emit(trace.Rd(cons, v))
			emit(recv(cons, pair, chSlack, 2))
		}
	}

	for pair := 0; pair < p.Pairs; pair++ {
		emit(trace.JoinOf(0, int32(1+2*pair)))
		emit(trace.JoinOf(0, int32(2+2*pair)))
	}
	return tr
}
