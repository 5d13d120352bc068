package rr

import (
	"fmt"

	"fasttrack/trace"
)

// This file implements the Dispatcher's online stream validator: a
// policy layer over trace.Validator, the one state machine that checks
// the feasibility constraints of the paper's Section 2.1. It adds
// resource-safety caps on identifiers and decides per policy what
// happens to an infeasible event: stop the stream, repair it with
// synthesized protocol events, or drop it, so that analysis of hostile
// or damaged streams degrades gracefully instead of aborting. The
// Dispatcher counts every deviation once, in the ledger Health reads.

// Policy selects how the Dispatcher responds to stream well-formedness
// violations.
type Policy uint8

const (
	// PolicyOff disables validation. The dispatcher still never forwards
	// a release or wait of a lock its thread does not hold to the tool:
	// it is recorded as a dropped violation. Everything else is trusted.
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
// and racedetect to every batch it checks for feasibility under
// -policy off, so the loop tests an event in range without a call.
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

// Validator applies a Policy to the Section 2.1 checks of one
// trace.Validator, the state machine Trace.Validate and racedetect's
// -policy off run too, so every policy judges feasibility alike. It
// adds what a policy needs: the identifier caps and the repair events.
// It counts nothing: the Dispatcher drives it and records each verdict
// in its ledger.
type Validator struct {
	policy    Policy
	maxTid    int32
	maxTarget uint64

	m *trace.Validator
}

// NewValidator returns a validator for the given policy with the default
// identifier caps.
func NewValidator(p Policy) *Validator {
	return &Validator{
		policy:    p,
		maxTid:    DefaultMaxTid,
		maxTarget: DefaultMaxTarget,
		m:         trace.NewValidator(),
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

// Check examines one event. An empty msg means e keeps the constraints
// and is forwarded as is. Otherwise msg says how e breaks them and act
// what the policy does about it: ActionErrored stops the stream
// (PolicyStrict), ActionRepaired forwards the repairs and then e, and
// ActionDropped skips e.
//
// An event beyond the identifier caps is irreparable. Any other
// violation is the state machine's; under PolicyRepair the validator
// builds the missing forks, acquire or releases and checks e again, and
// drops e if it still fails.
func (v *Validator) Check(e trace.Event) (msg string, act ViolationAction, repairs []trace.Event) {
	msg = capViolation(&e, v.maxTid, v.maxTarget)
	reparable := msg == ""
	if reparable {
		verr := v.m.Event(e)
		if verr == nil {
			return "", 0, nil
		}
		msg = verr.(*trace.ValidationError).Msg
	}
	if v.policy == PolicyStrict {
		return msg, ActionErrored, nil
	}
	if v.policy == PolicyRepair && reparable {
		if fix := v.repairs(e); len(fix) > 0 && v.m.Repair(fix, e) == nil {
			return msg, ActionRepaired, fix
		}
	}
	// PolicyDrop, or irreparable under PolicyRepair.
	return msg, ActionDropped, nil
}

// repairs builds the protocol events e misses: a fork from thread 0 for
// each thread e names that is not running (thread 0 itself has none),
// the releases of a lock another thread holds, or the acquire of a lock
// a release or wait finds free.
func (v *Validator) repairs(e trace.Event) []trace.Event {
	var fix []trace.Event
	threads := []int32{e.Tid}
	if e.Kind == trace.BarrierRelease {
		threads = e.Tids
	}
	for _, t := range threads {
		if t != 0 && !v.m.Running(t) {
			fix = append(fix, trace.ForkOf(0, t))
		}
	}
	switch owner, depth := v.m.Holder(e.Target); e.Kind {
	case trace.Acquire:
		for ; owner != e.Tid && depth > 0; depth-- {
			fix = append(fix, trace.Rel(owner, e.Target))
		}
	case trace.Release, trace.Wait:
		if depth == 0 {
			fix = append(fix, trace.Acq(e.Tid, e.Target))
		}
	}
	return fix
}
