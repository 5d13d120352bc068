package svc

import (
	"fmt"
	"math"
	"time"

	"fasttrack/client"
)

// This file implements the fidelity governor: racedetectd's graceful-
// degradation layer. Every session sits on a fidelity ladder
//
//	full → sampled(p) → coarse → shed
//
// where each rung is a sampling rate of the session detector's variable
// space (see internal/core/sampling.go): full analyzes everything,
// sampled analyzes the session's base rate p (handshake SampleRate or
// the server default), coarse is the deep-sampling rung at p/8 — named
// for its coverage; shadow granularity itself is immutable per session,
// because remixing fine and coarse location ids mid-stream could alias
// distinct variables and break the no-false-positives guarantee — and
// shed analyzes nothing while still counting events and keeping the
// happens-before clocks warm (sync events are never sampled), so a
// later upgrade resumes sound analysis immediately.
//
// The governor goroutine ticks on every live session and consumes ONLY
// lock-free signals: the worker's busy stamp, the queue depth,
// and the shadow-byte / health snapshot the worker refreshes at frame
// boundaries on request. It never takes a session's monitor lock, and
// rate changes are applied by the session worker itself between
// batches — so a session wedged inside its detector can never wedge
// the governor, it can only get quarantined by it.
//
// Ladder moves use hysteresis: downgradeAfter consecutive over-pressure
// ticks move one rung down, upgradeAfter consecutive clear ticks (after
// a cooldown) move one rung up, never above the session's ceiling
// (sampled, for sessions admitted under the soft limit). A session
// whose detector the resilience layer disabled (poisoned by repeated
// panics) is forced straight to shed.

// Fidelity ladder rungs, best first. Stored per session as an atomic
// int32 (written by the governor, read by the HTTP surface).
const (
	rungFull int32 = iota
	rungSampled
	rungCoarse
	rungShed
)

var rungNames = [...]string{"full", "sampled", "coarse", "shed"}

// Governor hysteresis, in ticks.
const (
	downgradeAfter = 2 // consecutive pressure ticks per downgrade
	upgradeAfter   = 4 // consecutive clear ticks per upgrade
	cooldownTicks  = 4 // minimum ticks between a move and the next upgrade
)

// rateFor maps a ladder rung to the session's sampling rate.
func (sess *session) rateFor(rung int32) float64 {
	switch rung {
	case rungFull:
		return 1
	case rungSampled:
		return sess.baseRate
	case rungCoarse:
		return sess.baseRate / 8
	default:
		return 0
	}
}

// fidelityString renders a rung for humans: "full", "sampled(0.25)",
// "coarse(0.031)", "shed".
func (sess *session) fidelityString(rung int32) string {
	switch rung {
	case rungFull:
		return "full"
	case rungShed:
		return "shed"
	default:
		return fmt.Sprintf("%s(%.3g)", rungNames[rung], sess.rateFor(rung))
	}
}

// setRung moves a session to the given rung: the worker applies the new
// sampling rate at its next frame boundary; the HTTP surface and the
// per-session gauge see it immediately.
func (sess *session) setRung(rung int32) {
	sess.rung.Store(rung)
	sess.pendingRate.Store(math.Float64bits(sess.rateFor(rung)))
	sess.fidGauge.Set(int64(rung))
}

// governorLoop ticks until stop closes. It is started by Serve when
// Config.GovernorInterval is not negative; tests drive governorTick
// directly for determinism.
func (s *Server) governorLoop(stop chan struct{}) {
	t := time.NewTicker(s.cfg.GovernorInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			s.governorTick()
		}
	}
}

// governorTick runs one governor pass over the live sessions: watchdog
// first (on every session), then adaptive fidelity control.
func (s *Server) governorTick() {
	s.mu.Lock()
	soft := s.softLimitedLocked()
	live := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		if sess.state.Load() == stateStreaming {
			live = append(live, sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range live {
		s.governSession(sess, soft)
	}
}

// governSession applies one tick to one session. All sess.gov fields
// are touched only from governor ticks (one at a time), never from the
// session's own goroutines. soft reports whether the admission soft
// limit is currently engaged.
func (s *Server) governSession(sess *session, soft bool) {
	// Watchdog: a worker that has sat on one item for StuckTimeout is
	// wedged (a poisoned detector spinning, a hostile payload, a
	// deadlocked tool). Quarantine it: sever the connection and release
	// the worker's drain obligations, but kill no neighbor. The age is
	// measured, not counted in ticks, so a worker that a starved CPU
	// merely preempted mid-item across ticks is never taken for wedged.
	if start := sess.busySince.Load(); start != 0 && s.cfg.StuckTimeout > 0 &&
		time.Duration(s.now()-start) >= s.cfg.StuckTimeout {
		s.quarantine(sess, fmt.Sprintf("no worker progress in %v with input pending", s.cfg.StuckTimeout))
		return
	}

	if !sess.adaptive {
		return
	}

	// A force-sampled admission keeps its ceiling at sampled only while
	// the node stays soft-limited; once admission pressure clears, the
	// session may be governed back up to what it originally asked for.
	if sess.forced && !soft && sess.gov.ceiling > sess.gov.requestCeiling {
		sess.gov.ceiling = sess.gov.requestCeiling
	}

	// Poisoned pipeline: the resilience layer disabled the tool, so
	// analysis work is wasted; shed keeps the stream drained and the
	// accounting honest without burning cycles.
	if sess.toolDisabled.Load() {
		if sess.rung.Load() != rungShed {
			sess.setRung(rungShed)
			s.sm.governorDowngrades.Inc()
			s.cfg.Logf("svc: session %s shed (tool disabled)", sess.id)
			s.event(Event{Kind: "downgrade", Session: sess.id, Remote: sess.remote,
				Fidelity: "shed", Reason: "tool disabled"})
		}
		return
	}

	queued := len(sess.queue)
	pressure := queued*4 >= s.cfg.QueueDepth*3
	if b := s.cfg.SessionMemBudget; b > 0 && sess.shadowBytes.Load() > b {
		pressure = true
	}

	rung := sess.rung.Load()
	if pressure {
		sess.gov.overTicks++
		sess.gov.clearTicks = 0
		if sess.gov.overTicks >= downgradeAfter && rung < rungShed {
			sess.setRung(rung + 1)
			sess.gov.overTicks = 0
			sess.gov.cooldown = cooldownTicks
			s.sm.governorDowngrades.Inc()
			s.cfg.Logf("svc: session %s downgraded to %s (queue=%d shadowBytes=%d)",
				sess.id, sess.fidelityString(rung+1), queued, sess.shadowBytes.Load())
			s.event(Event{Kind: "downgrade", Session: sess.id, Remote: sess.remote,
				Fidelity: sess.fidelityString(rung + 1),
				Reason:   fmt.Sprintf("queue=%d shadowBytes=%d", queued, sess.shadowBytes.Load())})
		}
	} else {
		sess.gov.overTicks = 0
		sess.gov.clearTicks++
		if sess.gov.cooldown > 0 {
			sess.gov.cooldown--
		} else if sess.gov.clearTicks >= upgradeAfter && rung > sess.gov.ceiling {
			sess.setRung(rung - 1)
			sess.gov.clearTicks = 0
			sess.gov.cooldown = cooldownTicks
			s.sm.governorUpgrades.Inc()
			s.cfg.Logf("svc: session %s upgraded to %s", sess.id, sess.fidelityString(rung-1))
			s.event(Event{Kind: "upgrade", Session: sess.id, Remote: sess.remote,
				Fidelity: sess.fidelityString(rung - 1), Reason: "pressure cleared"})
		}
	}

	// Ask the worker for a fresh shadow/health snapshot at its next
	// frame boundary, feeding the next tick's memory signal.
	sess.statsReq.Store(true)
}

// quarantine isolates a stuck session without touching its monitor (the
// wedged worker may hold that lock forever): the connection is severed
// so the reader exits, the worker's WaitGroup slot is released so drain
// never waits on it, and the session's capacity is handed back. The
// wedged goroutine itself cannot be killed; it is leaked by design,
// bounded by the quarantine counter, and if it ever unwedges its
// finalize is a no-op (the state CAS below has already won).
func (s *Server) quarantine(sess *session, reason string) {
	if !sess.state.CompareAndSwap(stateStreaming, stateQuarantined) {
		return
	}
	sess.errMsg.Store(reason)
	close(sess.abortCh) // unblocks a reader stuck enqueueing into the full queue
	sess.conn.Close()   // unblocks a reader stuck in a frame read
	sess.workerDone()   // drain no longer waits for the wedged worker
	s.mu.Lock()
	s.active--
	s.retireLocked(sess.id) // age out of /sessions with the retention window
	s.mu.Unlock()
	s.sm.sessionsActive.Add(-1)
	s.sm.sessionsQuarantined.Add(1)
	s.sm.governorQuarantines.Inc()
	s.quarantined.Add(1)
	s.reg.DeleteByPrefix("svc.session." + sess.id + ".")
	s.cfg.Logf("svc: session %s quarantined: %s", sess.id, reason)
	s.event(Event{Kind: "quarantine", Session: sess.id, Remote: sess.remote,
		Fidelity: sess.fidelityString(sess.rung.Load()), Reason: reason})
}

// fidelityPlan is a session's resolved starting position on the ladder.
type fidelityPlan struct {
	mode           string // canonical requested mode
	adaptive       bool   // governor may move the session
	forced         bool   // admission soft limit forced a sampled start
	start          int32  // starting rung
	ceiling        int32  // best rung the governor may restore (for now)
	requestCeiling int32  // best rung once admission pressure clears
	baseRate       float64
}

// resolveFidelity validates a handshake's fidelity request against the
// admission decision. forced reports that the soft admission limit is
// engaged: the session starts sampled regardless of the request and is
// governed (adaptively) with a ceiling of sampled until the limit
// clears, after which its requested ceiling applies again.
func (s *Server) resolveFidelity(h client.Handshake, forced bool) (fidelityPlan, error) {
	mode, rate, err := client.ParseFidelity(h.Fidelity)
	if err != nil {
		return fidelityPlan{}, fmt.Errorf("%s: %v", client.ErrCodeBadRequest, err)
	}
	if rate == 0 {
		rate = h.SampleRate
	}
	if rate < 0 || rate > 1 {
		return fidelityPlan{}, fmt.Errorf("%s: sample rate %v out of range (0, 1]", client.ErrCodeBadRequest, h.SampleRate)
	}
	p := fidelityPlan{mode: mode, baseRate: rate}
	if p.baseRate == 0 || p.baseRate == 1 {
		p.baseRate = defaultSampleRate
	}
	switch mode {
	case client.FidelitySampled:
		p.start, p.requestCeiling = rungSampled, rungSampled
	case client.FidelityAdaptive:
		p.adaptive = true
	}
	p.ceiling = p.requestCeiling
	if forced {
		p.forced, p.adaptive = true, true
		if p.start < rungSampled {
			p.start = rungSampled
		}
		if p.ceiling < rungSampled {
			p.ceiling = rungSampled
		}
	}
	return p, nil
}
