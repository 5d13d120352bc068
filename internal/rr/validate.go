package rr

import (
	"fmt"

	"fasttrack/trace"
)

// This file implements the Dispatcher's stream checks: the identifier
// caps, which hold under every policy, and a policy layer over
// trace.Validator, the one state machine that checks the feasibility
// constraints of the paper's Section 2.1. The policy decides what
// happens to an infeasible event: stop the stream, repair it with
// synthesized protocol events, or drop it, so that analysis of hostile
// or damaged streams degrades gracefully instead of aborting. The
// Dispatcher counts every deviation once, in the ledger Health reads.

// Policy selects how the Dispatcher responds to stream well-formedness
// violations. Two checks hold whatever the policy: an id beyond the
// identifier caps (DefaultMaxTid, DefaultMaxTarget) is never forwarded,
// and neither is a release or wait of a lock its thread does not hold.
type Policy uint8

const (
	// PolicyOff disables validation: the stream is trusted to be
	// feasible. An id beyond the caps stops the stream (see Health.Err);
	// a release or wait of a lock its thread does not hold is recorded
	// as a dropped violation.
	PolicyOff Policy = iota
	// PolicyStrict stops the stream at the first violation, an id beyond
	// the caps included; the error is available from Dispatcher.Err and
	// Health.
	PolicyStrict
	// PolicyRepair synthesizes the missing protocol events (a fork for an
	// unknown thread, an acquire for an unheld release, ...) and keeps
	// going; irreparable events, ids beyond the caps among them, are
	// dropped. All of it is counted.
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
// a detector's dense tables to allocate unbounded memory, so the
// Dispatcher bounds the two namespaces some tool indexes densely: thread
// ids and the variables of reads and writes. Every tool keeps lock,
// volatile, channel and barrier state in maps or hash tables, so those
// ids are not capped. An event beyond a cap is irreparable, under every
// policy: it stops the stream under PolicyOff and PolicyStrict and is
// dropped under PolicyRepair and PolicyDrop. Both caps are configurable
// on the Dispatcher.
const (
	// DefaultMaxTid bounds thread ids, a fork's or join's target and a
	// barrier's participants included (per-thread state includes a
	// vector clock, so this cap bounds O(n^2) worst-case clock storage).
	DefaultMaxTid = 1 << 12
	// DefaultMaxTarget bounds the variable ids of reads and writes.
	DefaultMaxTarget = 1 << 24
)

// threadTargets has a bit set for each kind whose thread ids lie outside
// Tid: in Target (fork, join) or in Tids (barrier).
const threadTargets = 1<<trace.Fork | 1<<trace.Join | 1<<trace.BarrierRelease

// capViolation describes how e breaks the identifier caps, or returns
// "" when it keeps within them. It is the slow path of the Dispatcher's
// inlined cap test, reached only by an event that may break one.
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
	case trace.Read, trace.Write:
		if e.Target > maxTarget {
			return fmt.Sprintf("target id %d outside [0, %d]", e.Target, maxTarget)
		}
	}
	return ""
}

// ViolationAction records how a violation was handled.
type ViolationAction uint8

const (
	// ActionErrored: the stream stopped (PolicyStrict, or an id beyond
	// the caps under PolicyOff).
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

// capped records event idx, which names an id beyond a cap (msg says
// which). No policy can repair it: it stops the stream under PolicyOff
// and PolicyStrict and is dropped under the others. Under PolicyStrict
// the state machine judges it first, so an event that also breaks a
// feasibility constraint gets the message racedetect -policy off gives,
// whose state machine runs before any dispatcher sees the event.
func (d *Dispatcher) capped(idx int64, e trace.Event, msg string) {
	act := ActionErrored
	switch d.Policy {
	case PolicyStrict:
		if verr := d.machine().Event(e); verr != nil {
			msg = verr.(*trace.ValidationError).Msg
		}
	case PolicyRepair, PolicyDrop:
		act = ActionDropped
	}
	d.violation(idx, e, msg, act)
}

// machine returns the Section 2.1 state machine of a validating policy,
// built on first use.
func (d *Dispatcher) machine() *trace.Validator {
	if d.feas == nil {
		d.feas = trace.NewValidator()
	}
	return d.feas
}

// validate runs e, at fed position idx, through a validating policy's
// state machine, the trace.Validator that Trace.Validate and
// racedetect's -policy off run too, so every policy judges feasibility
// alike. It reports whether e goes on to the tool. An infeasible e
// stops the stream (PolicyStrict) or is dropped (PolicyDrop); under
// PolicyRepair the missing forks, acquire or releases are built and
// fed first, and e is dropped only if it still fails.
func (d *Dispatcher) validate(idx int64, e trace.Event) bool {
	verr := d.machine().Event(e)
	if verr == nil {
		return true
	}
	msg := verr.(*trace.ValidationError).Msg
	switch d.Policy {
	case PolicyStrict:
		d.violation(idx, e, msg, ActionErrored)
		return false
	case PolicyRepair:
		if fix := d.repairs(e); len(fix) > 0 && d.feas.Repair(fix, e) == nil {
			d.violation(idx, e, msg, ActionRepaired)
			d.synthesized(int64(len(fix)))
			for _, r := range fix {
				d.process(idx, r)
			}
			return true
		}
	}
	d.violation(idx, e, msg, ActionDropped)
	return false
}

// repairs builds the protocol events e misses: a fork from thread 0 for
// each thread e names that is not running (thread 0 itself has none),
// the releases of a lock another thread holds, or the acquire of a lock
// a release or wait finds free.
func (d *Dispatcher) repairs(e trace.Event) []trace.Event {
	var fix []trace.Event
	threads := []int32{e.Tid}
	if e.Kind == trace.BarrierRelease {
		threads = e.Tids
	}
	for _, t := range threads {
		if t != 0 && !d.feas.Running(t) {
			fix = append(fix, trace.ForkOf(0, t))
		}
	}
	switch owner, depth := d.feas.Holder(e.Target); e.Kind {
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
