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

// Validate checks the well-formedness constraints on traces from
// Section 2.1:
//
//  1. no thread acquires a lock previously acquired but not released
//     (locks are not re-entrant at the trace level; the dispatcher filters
//     re-entrant acquires before they reach a detector),
//  2. no thread releases a lock it did not previously acquire,
//  3. no instructions of a thread u precede fork(t,u) or follow
//     join(v,u), and
//  4. there is at least one instruction of thread u between fork(t,u)
//     and join(v,u).
//
// Thread 0 is the initial thread and needs no fork. A thread may only
// wait on a lock it holds, and waiting releases the lock (the wake-up is
// a separate acquire). A BarrierRelease requires every participant to be
// alive.
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

// Validator checks the Section 2.1 feasibility constraints incrementally,
// one event at a time; Trace.Validate is a convenience wrapper over it.
//
// Most events come in runs from one thread, so the validator caches
// the thread of the last event it accepted, which is running and
// active: that thread's next event skips both map lookups, and an
// access by it returns without touching a map. Only a join can end a
// thread, and a join moves the cache to the joining thread before the
// joined one dies, so the cache never holds a dead thread. Tids range
// up to 2^31-1, so the state stays in maps, not tid-indexed slices.
type Validator struct {
	state     map[int32]int
	active    map[int32]bool // executed at least one instruction
	lockOwner map[uint64]int32
	index     int
	last      int32 // the cached thread, if lastOK
	lastOK    bool
}

const (
	vUnborn = iota
	vAlive
	vDead
)

// NewValidator returns a validator in the initial state (thread 0
// running, no locks held).
func NewValidator() *Validator {
	return &Validator{
		state:     map[int32]int{0: vAlive},
		active:    map[int32]bool{},
		lockOwner: map[uint64]int32{},
	}
}

// Event checks one event against the constraints and advances the
// state. The returned error, if any, is a *ValidationError carrying the
// event's position in the stream.
func (v *Validator) Event(e Event) error {
	if v.lastOK && e.Tid == v.last && e.Kind.IsAccess() {
		v.index++
		return nil
	}
	i := v.index
	v.index++
	fail := func(msg string, args ...any) error {
		return &ValidationError{Index: i, Event: e, Msg: fmt.Sprintf(msg, args...)}
	}

	if e.Kind == BarrierRelease {
		for _, t := range e.Tids {
			if v.state[t] != vAlive {
				return fail("barrier releases thread %d which is not running", t)
			}
			v.active[t] = true
		}
		return nil
	}
	if !v.lastOK || e.Tid != v.last {
		if v.state[e.Tid] != vAlive {
			return fail("thread %d is not running", e.Tid)
		}
		v.active[e.Tid] = true
		v.last, v.lastOK = e.Tid, true
	}
	switch e.Kind {
	case Acquire:
		if owner, held := v.lockOwner[e.Target]; held {
			return fail("lock m%d already held by thread %d", e.Target, owner)
		}
		v.lockOwner[e.Target] = e.Tid
	case Release:
		owner, held := v.lockOwner[e.Target]
		if !held || owner != e.Tid {
			return fail("thread %d releases lock m%d it does not hold", e.Tid, e.Target)
		}
		delete(v.lockOwner, e.Target)
	case Wait:
		owner, held := v.lockOwner[e.Target]
		if !held || owner != e.Tid {
			return fail("thread %d waits on lock m%d it does not hold", e.Tid, e.Target)
		}
		delete(v.lockOwner, e.Target) // waiting releases the lock
	case Fork:
		u := int32(e.Target)
		if u == e.Tid {
			return fail("thread %d forks itself", e.Tid)
		}
		if v.state[u] != vUnborn {
			return fail("thread %d already exists", u)
		}
		v.state[u] = vAlive
	case Join:
		u := int32(e.Target)
		if u == e.Tid {
			return fail("thread %d joins itself", e.Tid)
		}
		if v.state[u] != vAlive {
			return fail("join of thread %d which is not running", u)
		}
		if !v.active[u] {
			return fail("join of thread %d which executed no instruction", u)
		}
		v.state[u] = vDead
	}
	return nil
}
