package rr

import (
	"fmt"
	"strings"

	"fasttrack/trace"
)

// This file implements the Dispatcher's online stream validator: a
// resilience layer that checks the well-formedness constraints of the
// paper's Section 2.1 (plus resource-safety caps on identifiers) one
// event at a time, and — unlike trace.Validator, which only rejects —
// can repair or drop malformed events so that analysis of hostile or
// damaged streams degrades gracefully instead of aborting. Every
// deviation is counted and surfaced through Dispatcher.Health and the
// resilience fields of Stats.

// Policy selects how the Dispatcher responds to stream well-formedness
// violations.
type Policy uint8

const (
	// PolicyOff disables validation. The dispatcher still never forwards
	// a release with no matching acquire to the tool (it is intercepted
	// and counted in UnheldReleases); everything else is trusted.
	PolicyOff Policy = iota
	// PolicyStrict stops the stream at the first violation; the error is
	// available from Dispatcher.Err and Health.
	PolicyStrict
	// PolicyRepair synthesizes the missing protocol events (a fork for an
	// unknown thread, an acquire for an unheld release, ...) and keeps
	// going; irreparable events are dropped. All of it is counted.
	PolicyRepair
	// PolicyDrop skips every offending event and keeps going.
	PolicyDrop
)

// String returns the mnemonic accepted by PolicyFromString.
func (p Policy) String() string {
	switch p {
	case PolicyOff:
		return "off"
	case PolicyStrict:
		return "strict"
	case PolicyRepair:
		return "repair"
	case PolicyDrop:
		return "drop"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// PolicyFromString parses a policy mnemonic ("off", "strict", "repair",
// "drop"); the boolean reports whether it was recognized.
func PolicyFromString(s string) (Policy, bool) {
	for _, p := range []Policy{PolicyOff, PolicyStrict, PolicyRepair, PolicyDrop} {
		if s == p.String() {
			return p, true
		}
	}
	return PolicyOff, false
}

// Default identifier caps. A single event naming an absurd id can force
// a detector's dense shadow tables to allocate unbounded memory (the
// thread table additionally holds one vector clock per thread), so the
// validator bounds both namespaces; events beyond the caps are
// irreparable and handled per policy. Both caps are configurable on the
// Dispatcher.
const (
	// DefaultMaxTid bounds thread ids (per-thread state includes a vector
	// clock, so this cap bounds O(n^2) worst-case clock storage).
	DefaultMaxTid = 1 << 12
	// DefaultMaxTarget bounds variable/lock/volatile/barrier ids.
	DefaultMaxTarget = 1 << 24
)

// CapViolation returns the index of the first event that breaks the
// identifier caps maxTid (on thread ids, including a fork's or join's
// target) and maxTarget (on every other target), and how; or -1 and ""
// when every event keeps within them. racedetectd applies it under the
// default caps to every decoded frame, whatever the session's policy,
// so the loop tests an event in range without a call.
func CapViolation(events []trace.Event, maxTid int32, maxTarget uint64) (int, string) {
	for i := range events {
		e := &events[i]
		if uint32(e.Tid) > uint32(maxTid) || e.Target > maxTarget || 1<<e.Kind&threadTargets != 0 {
			if msg := capViolation(e, maxTid, maxTarget); msg != "" {
				return i, msg
			}
		}
	}
	return -1, ""
}

// threadTargets has a bit set for each kind whose thread ids lie outside
// Tid: in Target (fork, join) or in Tids (barrier).
const threadTargets = 1<<trace.Fork | 1<<trace.Join | 1<<trace.BarrierRelease

// capViolation describes how e breaks the identifier caps, or returns
// "" when it keeps within them.
func capViolation(e *trace.Event, maxTid int32, maxTarget uint64) string {
	if e.Kind == trace.BarrierRelease {
		for _, t := range e.Tids {
			if t < 0 || t > maxTid {
				return fmt.Sprintf("thread id %d outside [0, %d]", t, maxTid)
			}
		}
	} else if e.Tid < 0 || e.Tid > maxTid {
		return fmt.Sprintf("thread id %d outside [0, %d]", e.Tid, maxTid)
	}
	switch e.Kind {
	case trace.Fork, trace.Join:
		if e.Target > uint64(maxTid) {
			return fmt.Sprintf("thread id %d outside [0, %d]", e.Target, maxTid)
		}
	default:
		if e.Target > maxTarget {
			return fmt.Sprintf("target id %d outside [0, %d]", e.Target, maxTarget)
		}
	}
	return ""
}

// ViolationAction records how a violation was handled.
type ViolationAction uint8

const (
	// ActionErrored: PolicyStrict stopped the stream.
	ActionErrored ViolationAction = iota
	// ActionRepaired: missing events were synthesized and the original
	// event was forwarded.
	ActionRepaired
	// ActionDropped: the event was skipped.
	ActionDropped
)

func (a ViolationAction) String() string {
	switch a {
	case ActionErrored:
		return "errored"
	case ActionRepaired:
		return "repaired"
	default:
		return "dropped"
	}
}

// Violation is one recorded well-formedness deviation.
type Violation struct {
	Index  int // position in the dispatcher's input stream
	Event  trace.Event
	Msg    string
	Action ViolationAction
}

func (v Violation) String() string {
	return fmt.Sprintf("event %d (%s): %s [%s]", v.Index, v.Event, v.Msg, v.Action)
}

// maxViolationLog bounds the retained violation records; the counters
// keep exact totals regardless.
const maxViolationLog = 32

// Validator tracks the thread-liveness and lock-ownership protocol of
// Section 2.1 and decides, per the configured policy, what to do with
// each event. The Dispatcher drives it; it is exported for tests and
// the chaos harness.
type Validator struct {
	policy    Policy
	maxTid    int32
	maxTarget uint64

	state map[int32]uint8 // thread liveness; 0 starts alive
	locks map[uint64]lockHold

	// Counters. Violations == Repaired + Dropped (+1 if a strict error
	// stopped the stream) — the accounting invariant the chaos harness
	// asserts.
	Violations  int64
	Repaired    int64
	Dropped     int64
	Synthesized int64

	// Log holds the first maxViolationLog violations.
	Log []Violation
}

type lockHold struct {
	owner int32
	depth int
}

const (
	vUnborn = iota
	vAlive
	vDead
)

// NewValidator returns a validator for the given policy with the default
// identifier caps.
func NewValidator(p Policy) *Validator {
	return &Validator{
		policy:    p,
		maxTid:    DefaultMaxTid,
		maxTarget: DefaultMaxTarget,
		state:     map[int32]uint8{0: vAlive},
		locks:     map[uint64]lockHold{},
	}
}

// SetCaps overrides the identifier caps; zero keeps the default.
func (v *Validator) SetCaps(maxTid int32, maxTarget uint64) {
	if maxTid > 0 {
		v.maxTid = maxTid
	}
	if maxTarget > 0 {
		v.maxTarget = maxTarget
	}
}

func (v *Validator) alive(t int32) bool { return v.state[t] == vAlive }

// Check examines the i'th event. When repairs is non-nil the caller must
// feed the repair events, then e. drop reports that e must be skipped.
// err is non-nil only under PolicyStrict and is sticky at the caller.
func (v *Validator) Check(i int, e trace.Event) (repairs []trace.Event, drop bool, err error) {
	msg, rep, reparable := v.examine(e)
	if msg == "" {
		v.apply(e)
		return nil, false, nil
	}
	v.Violations++
	switch {
	case v.policy == PolicyStrict:
		v.log(i, e, msg, ActionErrored)
		return nil, false, &trace.ValidationError{Index: i, Event: e, Msg: msg}
	case v.policy == PolicyRepair && reparable:
		v.log(i, e, msg, ActionRepaired)
		v.Repaired++
		v.Synthesized += int64(len(rep))
		for _, r := range rep {
			v.apply(r)
		}
		v.apply(e)
		return rep, false, nil
	default: // PolicyDrop, or irreparable under PolicyRepair
		v.log(i, e, msg, ActionDropped)
		v.Dropped++
		return nil, true, nil
	}
}

// examine checks e against the current protocol state without mutating
// it. It returns a description of the violation (empty if none), the
// events that would repair it, and whether repair is possible at all.
func (v *Validator) examine(e trace.Event) (msg string, repairs []trace.Event, reparable bool) {
	// Identifier sanity: absurd ids are irreparable.
	if msg := capViolation(&e, v.maxTid, v.maxTarget); msg != "" {
		return msg, nil, false
	}
	if (e.Kind == trace.Fork || e.Kind == trace.Join) && int32(e.Target) == e.Tid {
		return fmt.Sprintf("thread %d %ss itself", e.Tid, e.Kind), nil, false
	}

	var msgs []string
	if e.Kind == trace.BarrierRelease {
		bad := false
		for _, t := range e.Tids {
			if v.alive(t) {
				continue
			}
			bad = true
			// Thread 0 cannot be forked by anyone; apply resurrects it
			// without a synthesized edge.
			if t != 0 {
				repairs = append(repairs, trace.ForkOf(0, t))
			}
		}
		if bad {
			return "barrier releases threads that are not running", repairs, true
		}
		return "", nil, false
	}

	if !v.alive(e.Tid) {
		msgs = append(msgs, fmt.Sprintf("thread %d is not running", e.Tid))
		if e.Tid != 0 {
			repairs = append(repairs, trace.ForkOf(0, e.Tid))
		}
	}

	switch e.Kind {
	case trace.Acquire:
		if h, held := v.locks[e.Target]; held && h.owner != e.Tid {
			// Two threads cannot hold one lock; release the phantom hold.
			msgs = append(msgs, fmt.Sprintf("lock m%d already held by thread %d", e.Target, h.owner))
			repairs = append(repairs, trace.Rel(h.owner, e.Target))
		}
	case trace.Release, trace.Wait:
		h, held := v.locks[e.Target]
		switch {
		case held && h.owner != e.Tid:
			return fmt.Sprintf("thread %d releases lock m%d held by thread %d", e.Tid, e.Target, h.owner), nil, false
		case !held:
			msgs = append(msgs, fmt.Sprintf("thread %d releases lock m%d it does not hold", e.Tid, e.Target))
			repairs = append(repairs, trace.Acq(e.Tid, e.Target))
		}
	case trace.Fork:
		switch v.state[int32(e.Target)] {
		case vAlive:
			return fmt.Sprintf("fork of thread %d which already exists", e.Target), nil, false
		case vDead:
			return fmt.Sprintf("fork of thread %d which already terminated", e.Target), nil, false
		}
	case trace.Join:
		if !v.alive(int32(e.Target)) {
			return fmt.Sprintf("join of thread %d which is not running", e.Target), nil, false
		}
	}
	if len(msgs) > 0 {
		return strings.Join(msgs, "; "), repairs, true
	}
	return "", nil, false
}

// apply advances the protocol state over an event that is (now) valid in
// sequence — either an accepted input event or a synthesized repair.
func (v *Validator) apply(e trace.Event) {
	// The event's own thread is running by now (it was either already
	// alive, or a repair forked it; a resurrected thread 0 has no
	// synthesizable fork and is revived here).
	if e.Kind == trace.BarrierRelease {
		for _, t := range e.Tids {
			v.state[t] = vAlive
		}
	} else {
		v.state[e.Tid] = vAlive
	}
	switch e.Kind {
	case trace.Fork:
		v.state[int32(e.Target)] = vAlive
	case trace.Join:
		v.state[int32(e.Target)] = vDead
	case trace.Acquire:
		h := v.locks[e.Target]
		if h.depth > 0 && h.owner == e.Tid {
			h.depth++
		} else {
			h = lockHold{owner: e.Tid, depth: 1}
		}
		v.locks[e.Target] = h
	case trace.Release, trace.Wait:
		// Wait releases one hold level, mirroring the dispatcher's
		// conservative re-entrant-wait handling.
		h := v.locks[e.Target]
		h.depth--
		if h.depth <= 0 {
			delete(v.locks, e.Target)
		} else {
			v.locks[e.Target] = h
		}
	}
}

func (v *Validator) log(i int, e trace.Event, msg string, a ViolationAction) {
	if len(v.Log) < maxViolationLog {
		v.Log = append(v.Log, Violation{Index: i, Event: e, Msg: msg, Action: a})
	}
}
