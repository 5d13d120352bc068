package trace

import (
	"fmt"
	"strings"
)

// Trace is a finite sequence of events, one program execution.
type Trace []Event

// String renders the trace in the text format, one event per line.
func (tr Trace) String() string {
	var b strings.Builder
	for _, e := range tr {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Threads returns the number of distinct threads mentioned by the trace,
// assuming dense thread ids starting at 0 (max id + 1).
func (tr Trace) Threads() int {
	maxID := int32(-1)
	for _, e := range tr {
		if e.Kind == BarrierRelease {
			for _, t := range e.Tids {
				if t > maxID {
					maxID = t
				}
			}
			continue
		}
		if e.Tid > maxID {
			maxID = e.Tid
		}
		if e.Kind == Fork || e.Kind == Join {
			if u := int32(e.Target); u > maxID {
				maxID = u
			}
		}
	}
	return int(maxID) + 1
}

// Vars returns the set of ordinary (non-volatile) variables accessed.
func (tr Trace) Vars() []uint64 {
	seen := map[uint64]bool{}
	var vars []uint64
	for _, e := range tr {
		if e.Kind.IsAccess() && !seen[e.Target] {
			seen[e.Target] = true
			vars = append(vars, e.Target)
		}
	}
	return vars
}

// Counts tallies the trace by operation class; the evaluation's Figure 2
// reports these proportions (82.3% reads, 14.5% writes, 3.3% other).
type Counts struct {
	Reads  int
	Writes int
	Other  int
}

// Total returns the number of events counted.
func (c Counts) Total() int { return c.Reads + c.Writes + c.Other }

// Count tallies the trace.
func (tr Trace) Count() Counts {
	var c Counts
	for _, e := range tr {
		switch e.Kind {
		case Read:
			c.Reads++
		case Write:
			c.Writes++
		default:
			c.Other++
		}
	}
	return c
}

// ValidationError describes the first violation of the feasibility
// constraints of Section 2.1 found in a trace.
type ValidationError struct {
	Index int    // position of the offending event
	Event Event  // the offending event
	Msg   string // what constraint it violates
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("trace: event %d (%s): %s", e.Index, e.Event, e.Msg)
}

// Validate checks the feasibility constraints on traces from Section
// 2.1, as the Validator states them, and returns the first violation as
// a *ValidationError.
//
// For streams too large to hold in memory, use Validator directly.
func (tr Trace) Validate() error {
	v := NewValidator()
	for _, e := range tr {
		if err := v.Event(e); err != nil {
			return err
		}
	}
	return nil
}

// Validator checks the feasibility constraints of Section 2.1 one event
// at a time. It is the one state machine for thread liveness and lock
// ownership: Trace.Validate, racedetect's -policy off and the
// validating policies of internal/rr all run it. An event violates the
// constraints when
//
//   - it acquires a lock another thread holds;
//   - it releases, or waits on, a lock its thread does not hold;
//   - its thread is not running: thread 0 runs from the start, any
//     other thread from its fork until its join;
//   - it forks a thread that exists or has ended, or joins a thread
//     that is not running;
//   - it forks or joins its own thread;
//   - it is a barrier naming a thread that is not running.
//
// A thread may re-acquire a lock it holds: the validator counts the
// depth, and each release or wait gives back one level (the wake-up
// from a wait is a separate acquire). Section 2.1's first rule forbids
// re-entrant acquires in the stream a detector sees, and the dispatcher
// filters them out before any detector does (Section 4), so the raw
// stream may carry them. Section 2.1's fourth rule, at least one
// instruction of u between fork(t,u) and join(v,u), is not checked:
// FastTrack's [FT JOIN] rule orders the join after the fork whether or
// not u ran, so a join of an idle thread loses no happens-before edge.
//
// Most events come in runs from one thread, so the validator caches
// the thread of the last event it accepted, which is running: an
// access by that thread returns without touching a map. Only a join can
// end a thread, and a join moves the cache to the joining thread before
// the joined one dies, so the cache never holds a dead thread. Tids
// range up to 2^31-1, so the state stays in maps, not tid-indexed
// slices.
type Validator struct {
	state  map[int32]uint8 // thread liveness; absent means never forked
	locks  map[uint64]hold // held locks
	index  int
	last   int32 // the cached thread, if lastOK
	lastOK bool
}

// hold is one held lock: its owner and re-entrant depth (at least 1).
type hold struct {
	owner int32
	depth int32
}

const (
	vRunning uint8 = iota + 1
	vEnded
)

// NewValidator returns a validator in the initial state (thread 0
// running, no locks held).
func NewValidator() *Validator {
	return &Validator{
		state: map[int32]uint8{0: vRunning},
		locks: map[uint64]hold{},
	}
}

// Running reports whether thread t is running.
func (v *Validator) Running(t int32) bool {
	return v.lastOK && t == v.last || v.state[t] == vRunning
}

// Holder returns the thread holding lock m and its re-entrant depth; a
// depth of 0 means m is free.
func (v *Validator) Holder(m uint64) (owner int32, depth int) {
	h := v.locks[m]
	return h.owner, int(h.depth)
}

// Event checks one event against the constraints and, if it keeps them,
// advances the state. The returned error, if any, is a
// *ValidationError carrying the event's position in the stream, and
// leaves the state as it was.
func (v *Validator) Event(e Event) error {
	if v.lastOK && e.Tid == v.last && e.Kind.IsAccess() {
		v.index++
		return nil
	}
	i := v.index
	v.index++
	if msg := v.step(e, false); msg != "" {
		return &ValidationError{Index: i, Event: e, Msg: msg}
	}
	if e.Kind != BarrierRelease {
		v.last, v.lastOK = e.Tid, true
	}
	return nil
}

// Repair applies fix, protocol events that a repairing caller built
// for e, without checking them (a fork may revive an ended thread),
// then checks and applies e as Event does. If e still breaks a
// constraint, the fix is undone and e's violation is returned.
func (v *Validator) Repair(fix []Event, e Event) error {
	// Each fix event changes one entry: a fork its target's state, a
	// lock event its lock's hold. Keep both, restore the one it changed.
	states, holds := make([]uint8, len(fix)), make([]hold, len(fix))
	for i, f := range fix {
		states[i], holds[i] = v.state[int32(f.Target)], v.locks[f.Target]
		v.step(f, true)
	}
	err := v.Event(e)
	for i := len(fix) - 1; err != nil && i >= 0; i-- {
		if f := fix[i]; f.Kind == Fork {
			v.state[int32(f.Target)] = states[i]
		} else {
			v.setHold(f.Target, holds[i])
		}
	}
	return err
}

// step checks e against the constraints and, if it keeps them,
// advances the state over it; it returns the constraint e breaks, or "".
// A forced step skips the checks: it applies a repair event. Waiting
// gives back one level of the lock, as the dispatcher does.
func (v *Validator) step(e Event, force bool) string {
	switch {
	case force:
	case e.Kind == BarrierRelease:
		for _, t := range e.Tids {
			if !v.Running(t) {
				return fmt.Sprintf("barrier releases thread %d which is not running", t)
			}
		}
	case !v.Running(e.Tid):
		return fmt.Sprintf("thread %d is not running", e.Tid)
	}
	switch e.Kind {
	case Acquire:
		h := v.locks[e.Target]
		if !force && h.depth > 0 && h.owner != e.Tid {
			return fmt.Sprintf("lock m%d already held by thread %d", e.Target, h.owner)
		}
		v.locks[e.Target] = hold{owner: e.Tid, depth: h.depth + 1}
	case Release, Wait:
		h := v.locks[e.Target]
		if !force && (h.depth == 0 || h.owner != e.Tid) {
			return NotHeldMsg(e)
		}
		h.depth--
		v.setHold(e.Target, h)
	case Fork, Join:
		u := int32(e.Target)
		switch st := v.state[u]; {
		case force:
		case u == e.Tid:
			return fmt.Sprintf("thread %d %ss itself", e.Tid, e.Kind)
		case e.Kind == Join && st != vRunning:
			return fmt.Sprintf("join of thread %d which is not running", u)
		case e.Kind == Fork && st == vRunning:
			return fmt.Sprintf("fork of thread %d which already exists", u)
		case e.Kind == Fork && st == vEnded:
			return fmt.Sprintf("fork of thread %d which already terminated", u)
		}
		if e.Kind == Fork {
			v.state[u] = vRunning
		} else {
			v.state[u] = vEnded
		}
	}
	return ""
}

// NotHeldMsg is the violation message for release or wait e of a lock
// its thread does not hold.
func NotHeldMsg(e Event) string {
	verb := "releases"
	if e.Kind == Wait {
		verb = "waits on"
	}
	return fmt.Sprintf("thread %d %s lock m%d it does not hold", e.Tid, verb, e.Target)
}

// setHold records lock m's hold, forgetting the lock once it is free.
func (v *Validator) setHold(m uint64, h hold) {
	if h.depth > 0 {
		v.locks[m] = h
	} else {
		delete(v.locks, m)
	}
}
