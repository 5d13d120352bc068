package svc

import (
	"fmt"
	"time"
)

// This file implements the watchdog: a ticker that quarantines any
// session whose worker has sat on one item for StuckTimeout. It reads
// only the worker's lock-free busy stamp and never takes a session's
// monitor lock, so a session wedged inside its detector can never wedge
// the watchdog; it can only get quarantined by it.

// watchdogLoop ticks until stop closes. It is started by Serve when
// Config.WatchdogInterval is positive; tests drive governorTick
// directly for determinism.
func (s *Server) watchdogLoop(stop chan struct{}) {
	t := time.NewTicker(s.cfg.WatchdogInterval)
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

// governorTick runs one watchdog pass over the live sessions. A worker
// that has sat on one item for StuckTimeout is wedged (a poisoned
// detector spinning, a hostile payload, a deadlocked tool); its session
// is quarantined, and no neighbor is touched. The age is measured, not
// counted in ticks, so a worker that a starved CPU merely preempted
// mid-item across ticks is never taken for wedged.
func (s *Server) governorTick() {
	if s.cfg.StuckTimeout <= 0 {
		return
	}
	s.mu.Lock()
	live := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		if sess.state.Load() == stateStreaming {
			live = append(live, sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range live {
		if start := sess.busySince.Load(); start != 0 &&
			time.Duration(s.now()-start) >= s.cfg.StuckTimeout {
			s.quarantine(sess, fmt.Sprintf("no worker progress in %v with input pending", s.cfg.StuckTimeout))
		}
	}
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
	s.activeN.Store(int64(s.active))
	s.retireLocked(sess.id) // age out of /sessions with the retention window
	s.mu.Unlock()
	s.sm.sessionsActive.Add(-1)
	s.sm.sessionsQuarantined.Add(1)
	s.sm.governorQuarantines.Inc()
	s.quarantined.Add(1)
	s.reg.DeleteByPrefix("svc.session." + sess.id + ".")
	s.cfg.Logf("svc: session %s quarantined: %s", sess.id, reason)
	s.event(Event{Kind: "quarantine", Session: sess.id, Remote: sess.remote,
		Fidelity: sess.fid.String(), Reason: reason})
}
