// Package rr is this module's analog of the RoadRunner dynamic-analysis
// framework (Section 4 of the FastTrack paper): it defines the back-end
// tool interface shared by all seven checkers, the race-report and
// statistics types, an event dispatcher that performs RoadRunner's
// services (re-entrant lock filtering, wait expansion, shadow-location
// granularity), and prefilter pipelines for composing analyses
// (Section 5.2, "-tool FastTrack:Velodrome").
package rr

import (
	"fmt"

	"fasttrack/trace"
)

// RaceKind classifies a warning.
type RaceKind uint8

const (
	// WriteWrite is a race between two writes.
	WriteWrite RaceKind = iota
	// WriteRead is a race between a write and a later read.
	WriteRead
	// ReadWrite is a race between a read and a later write.
	ReadWrite
	// LockSetViolation is an imprecise (Eraser-style) warning: no lock was
	// consistently held on every access to the location. It may or may not
	// correspond to a real race.
	LockSetViolation
	// AtomicityViolation is reported by the Atomizer- and Velodrome-style
	// checkers of Section 5.2: a transaction is not serializable.
	AtomicityViolation
	// DeterminismViolation is reported by the SingleTrack-style checker:
	// inter-thread communication depends on lock-acquisition order.
	DeterminismViolation
	// DeadlockPotential is reported by the Goodlock-style lock-order
	// analysis: a cycle in the lock acquisition graph means some schedule
	// can deadlock, even if the observed one did not.
	DeadlockPotential
)

func (k RaceKind) String() string {
	switch k {
	case WriteWrite:
		return "write-write race"
	case WriteRead:
		return "write-read race"
	case ReadWrite:
		return "read-write race"
	case LockSetViolation:
		return "empty lockset"
	case AtomicityViolation:
		return "atomicity violation"
	case DeterminismViolation:
		return "determinism violation"
	case DeadlockPotential:
		return "potential deadlock"
	default:
		return fmt.Sprintf("race-kind(%d)", uint8(k))
	}
}

// Report is one warning. Tools report at most one warning per variable
// (the paper reports at most one race per field of each class).
type Report struct {
	Var     uint64   // the shadow location (after any granularity remap)
	Kind    RaceKind // what conflicted
	Tid     int32    // thread performing the second (racing) access
	PrevTid int32    // thread of the prior conflicting access; -1 if unknown
	Index   int      // index of the racing event in the trace
	// PrevIndex is the event index of the prior conflicting access, when
	// the tool tracks access history (FastTrack with detailed reports
	// enabled); -1 otherwise. With a recorded trace it pinpoints both
	// halves of the race.
	PrevIndex int
}

func (r Report) String() string {
	if r.PrevTid >= 0 {
		if r.PrevIndex >= 0 {
			return fmt.Sprintf("%s on x%d: thread %d (event %d) conflicts with thread %d (event %d)",
				r.Kind, r.Var, r.Tid, r.Index, r.PrevTid, r.PrevIndex)
		}
		return fmt.Sprintf("%s on x%d: thread %d conflicts with thread %d (event %d)",
			r.Kind, r.Var, r.Tid, r.PrevTid, r.Index)
	}
	return fmt.Sprintf("%s on x%d: thread %d (event %d)", r.Kind, r.Var, r.Tid, r.Index)
}

// Stats are the instrumentation counters every tool maintains; the
// evaluation harness derives Table 2 (VC allocations / VC operations),
// Table 3 (shadow bytes), and the Figure 2 rule frequencies from them.
// The JSON tags define the stable schema of the machine-readable run
// report (racedetect -json) and the metrics snapshot.
type Stats struct {
	Events int64 `json:"events"` // events handled
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	Syncs  int64 `json:"syncs"`

	// Per-kind synchronization breakdown (the operation-mix columns of
	// the paper's Table 2): Acquires + Releases + Forks + Joins +
	// Volatiles + Barriers + Waits == Syncs for every detector that
	// counts via CountKind. Waits stays zero behind the Dispatcher,
	// which expands wait into release before delivery.
	Acquires  int64 `json:"acquires,omitempty"`
	Releases  int64 `json:"releases,omitempty"`
	Forks     int64 `json:"forks,omitempty"`
	Joins     int64 `json:"joins,omitempty"`
	Volatiles int64 `json:"volatiles,omitempty"` // volatile reads + writes
	Barriers  int64 `json:"barriers,omitempty"`
	Waits     int64 `json:"waits,omitempty"`
	// Channels counts chsend/chrecv/chclose events, the channel
	// happens-before edges of the Go memory model (DESIGN.md §14).
	Channels int64 `json:"channels,omitempty"`
	// Markers counts transaction boundary events (txbegin/txend), which
	// carry no happens-before edge and are outside Syncs.
	Markers int64 `json:"markers,omitempty"`

	VCAlloc int64 `json:"vcAlloc,omitempty"` // vector clocks allocated
	VCOp    int64 `json:"vcOps,omitempty"`   // O(n)-time vector clock operations (copy, join, compare)

	// FastTrack / DJIT+ rule counters (Figure 2). For DJIT+,
	// ReadExclusive/WriteExclusive count the generic [DJIT+ READ]/[WRITE]
	// rules and the Share/Shared counters stay zero.
	ReadSameEpoch  int64 `json:"readSameEpoch,omitempty"`
	ReadShared     int64 `json:"readShared,omitempty"`
	ReadExclusive  int64 `json:"readExclusive,omitempty"`
	ReadShare      int64 `json:"readShare,omitempty"`
	WriteSameEpoch int64 `json:"writeSameEpoch,omitempty"`
	WriteExclusive int64 `json:"writeExclusive,omitempty"`
	WriteShared    int64 `json:"writeShared,omitempty"`

	// Ownership-transition counters for the MultiRace-style detector,
	// whose state machine has a thread-owned phase before any vector
	// clocks exist: accesses handled entirely in the owned (virgin or
	// exclusive) states. Zero for every other tool.
	ReadOwned  int64 `json:"readOwned,omitempty"`
	WriteOwned int64 `json:"writeOwned,omitempty"`

	LockSetOps  int64 `json:"lockSetOps,omitempty"`  // Eraser-style lock set updates/intersections
	ShadowBytes int64 `json:"shadowBytes,omitempty"` // live shadow-memory footprint, computed by Stats()

	// Resilience counters, filled in by the Dispatcher (via Monitor.Stats
	// or Dispatcher.FillStats); always zero for a bare tool.
	Panics      int64 `json:"panics,omitempty"`      // tool panics recovered by the quarantine
	Quarantined int64 `json:"quarantined,omitempty"` // shadow locations quarantined after panics
	Violations  int64 `json:"violations,omitempty"`  // stream well-formedness violations observed
	Repaired    int64 `json:"repaired,omitempty"`    // violations repaired by synthesizing events
	Dropped     int64 `json:"dropped,omitempty"`     // validator-rejected events dropped from the stream

	// UnheldReleases counts releases of unheld locks intercepted by the
	// dispatcher before reaching the tool. They are tracked separately
	// from Dropped so that Violations == Repaired + Dropped holds exactly
	// for the validator's own accounting under every policy.
	UnheldReleases int64 `json:"unheldReleases,omitempty"`

	// Memory-budget degradation, maintained by detectors that support a
	// shadow-memory budget (FastTrack).
	MemSqueezes int64 `json:"memSqueezes,omitempty"` // read vector clocks forcibly squeezed to epochs
	MemCoarse   int64 `json:"memCoarse,omitempty"`   // accesses remapped to coarse shadowing by the budget

	// ClockSaturations counts increments of a thread clock that had
	// already reached the epoch format's MaxClock (2^40-1). A saturated
	// thread's epoch stops advancing, so later accesses by it may be
	// treated as ordered when they are not — races can be missed, never
	// invented. Nonzero means the session has outlived the clock width
	// and its precision is degrading; long-running deployments should
	// recycle the session (the downgrade/Reset machinery) when this
	// starts moving.
	ClockSaturations int64 `json:"clockSaturations,omitempty"`
}

// CountKind records one synchronization or transaction-marker event in
// both the aggregate Syncs counter and the per-kind breakdown. Access
// events are intentionally not handled here: every detector counts
// reads and writes inside its access fast paths (where the rule
// taxonomy is attributed), so routing them through CountKind as well
// would double-count. Wait and Notify never reach a tool behind the
// Dispatcher; the cases exist for tools driven directly in tests.
func (s *Stats) CountKind(k trace.Kind) {
	switch k {
	case trace.Acquire:
		s.Syncs++
		s.Acquires++
	case trace.Release:
		s.Syncs++
		s.Releases++
	case trace.Fork:
		s.Syncs++
		s.Forks++
	case trace.Join:
		s.Syncs++
		s.Joins++
	case trace.VolatileRead, trace.VolatileWrite:
		s.Syncs++
		s.Volatiles++
	case trace.BarrierRelease:
		s.Syncs++
		s.Barriers++
	case trace.Wait:
		s.Syncs++
		s.Waits++
	case trace.ChanSend, trace.ChanRecv, trace.ChanClose:
		s.Syncs++
		s.Channels++
	case trace.TxBegin, trace.TxEnd:
		s.Markers++
	}
}

// SyncKindSum is the sum of the per-kind sync counters; for a detector
// that counts via CountKind it equals Syncs exactly (the accounting
// invariant the observability tests assert).
func (s Stats) SyncKindSum() int64 {
	return s.Acquires + s.Releases + s.Forks + s.Joins + s.Volatiles + s.Barriers + s.Waits + s.Channels
}

// Merge adds every counter of o into s. Tee and Pipeline use it to
// combine component stats, so new fields only need to be added here.
func (s *Stats) Merge(o Stats) {
	s.Events += o.Events
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Syncs += o.Syncs
	s.Acquires += o.Acquires
	s.Releases += o.Releases
	s.Forks += o.Forks
	s.Joins += o.Joins
	s.Volatiles += o.Volatiles
	s.Barriers += o.Barriers
	s.Waits += o.Waits
	s.Channels += o.Channels
	s.Markers += o.Markers
	s.VCAlloc += o.VCAlloc
	s.VCOp += o.VCOp
	s.ReadSameEpoch += o.ReadSameEpoch
	s.ReadShared += o.ReadShared
	s.ReadExclusive += o.ReadExclusive
	s.ReadShare += o.ReadShare
	s.WriteSameEpoch += o.WriteSameEpoch
	s.WriteExclusive += o.WriteExclusive
	s.WriteShared += o.WriteShared
	s.ReadOwned += o.ReadOwned
	s.WriteOwned += o.WriteOwned
	s.LockSetOps += o.LockSetOps
	s.ShadowBytes += o.ShadowBytes
	s.Panics += o.Panics
	s.Quarantined += o.Quarantined
	s.Violations += o.Violations
	s.Repaired += o.Repaired
	s.Dropped += o.Dropped
	s.UnheldReleases += o.UnheldReleases
	s.MemSqueezes += o.MemSqueezes
	s.MemCoarse += o.MemCoarse
	s.ClockSaturations += o.ClockSaturations
}

// Tool is a back-end dynamic analysis: it consumes the event stream one
// operation at a time and accumulates warnings and statistics. Tools are
// not safe for concurrent use; the thread-safe public Monitor serializes
// events before they reach a tool.
type Tool interface {
	// Name identifies the tool ("FastTrack", "DJIT+", ...).
	Name() string
	// HandleEvent processes event e, the i'th operation of the trace.
	HandleEvent(i int, e trace.Event)
	// Races returns the warnings reported so far, in detection order.
	Races() []Report
	// Stats returns the current counters, including a freshly computed
	// shadow-memory footprint.
	Stats() Stats
}

// Prefilter is implemented by tools that can act as event filters for a
// downstream analysis (Section 5.2): HandleFilter processes the event and
// additionally reports whether the event is still "interesting" — i.e.
// not yet proven redundant/race-free — and therefore must be passed on.
type Prefilter interface {
	Tool
	HandleFilter(i int, e trace.Event) bool
}
