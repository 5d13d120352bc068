package conformance

import (
	"math/rand"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/sim"
	"fasttrack/trace"
)

// conservativeChans rewrites every channel event to capacity 0, i.e.
// the conservative accumulation semantics in which every send is
// ordered after every prior receive and vice versa — the relation the
// old capacity-unaware encoding implemented.
func conservativeChans(tr trace.Trace) trace.Trace {
	out := make(trace.Trace, len(tr))
	copy(out, tr)
	for i := range out {
		switch out[i].Kind {
		case trace.ChanSend, trace.ChanRecv, trace.ChanClose:
			out[i].Cap = 0
		}
	}
	return out
}

// volatileChans rewrites every channel event into the package's old
// volatile-pair encoding: a send reads the receive-side volatile and
// writes the send-side one, a receive does the reverse, a close writes
// the send side. Volatile ids are placed far above the generator's own
// volatile range.
func volatileChans(tr trace.Trace) trace.Trace {
	const sendVol, recvVol = uint64(1) << 40, uint64(2) << 40
	var out trace.Trace
	for _, e := range tr {
		switch e.Kind {
		case trace.ChanSend:
			out = append(out,
				trace.VRd(e.Tid, recvVol|e.Target),
				trace.VWr(e.Tid, sendVol|e.Target))
		case trace.ChanRecv:
			out = append(out,
				trace.VRd(e.Tid, sendVol|e.Target),
				trace.VWr(e.Tid, recvVol|e.Target))
		case trace.ChanClose:
			out = append(out, trace.VWr(e.Tid, sendVol|e.Target))
		default:
			out = append(out, e)
		}
	}
	return out
}

// chanTrace generates a channel-heavy random feasible trace.
func chanTrace(t *testing.T, seed int64, unbufferedOnly bool) trace.Trace {
	t.Helper()
	cfg := sim.DefaultRandomConfig()
	cfg.PChan = 0.15
	cfg.Chans = 3
	cfg.Events = 150
	tr := sim.RandomTrace(rand.New(rand.NewSource(seed)), cfg)
	if unbufferedOnly {
		tr = conservativeChans(tr)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("seed %d: infeasible trace: %v", seed, err)
	}
	return tr
}

// TestCapacityAwareRefinesConservative: forcing every channel to
// capacity 0 adds happens-before edges the runtime does not guarantee,
// so the capacity-aware race set must be a superset of the conservative
// one — the capacity-aware semantics only ever EXPOSES races the old
// encoding masked, never the reverse.
func TestCapacityAwareRefinesConservative(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		tr := chanTrace(t, 7000+seed, false)
		exact := RacyVars(core.New(4, 8), tr)
		cons := RacyVars(core.New(4, 8), conservativeChans(tr))
		if !Subset(cons, exact) {
			t.Fatalf("seed %d: conservative races %v ⊄ capacity-aware races %v\ntrace:\n%s",
				seed, cons, exact, tr)
		}
	}
}

// TestUnbufferedMatchesVolatileEncoding: on traces whose channels are
// all unbuffered, the first-class channel rules coincide with the old
// volatile-pair encoding — the rendezvous accumulators implement
// exactly that relation — so both report the same racy variables.
func TestUnbufferedMatchesVolatileEncoding(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		tr := chanTrace(t, 9000+seed, true)
		native := RacyVars(core.New(4, 8), tr)
		encoded := RacyVars(core.New(4, 8), volatileChans(tr))
		if !SameVars(native, encoded) {
			t.Fatalf("seed %d: native unbuffered races %v != volatile encoding %v\ntrace:\n%s",
				seed, native, encoded, tr)
		}
	}
}
