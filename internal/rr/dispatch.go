package rr

import (
	"fmt"
	"time"

	"fasttrack/internal/obs"
	"fasttrack/trace"
)

// Granularity selects how memory locations map to shadow locations
// (Section 4, "Granularity").
type Granularity uint8

const (
	// Fine gives each variable its own shadow location (the default, and
	// the precise configuration).
	Fine Granularity = iota
	// Coarse groups FieldsPerObject consecutive variables into one shadow
	// location, modeling RoadRunner's one-VarState-per-object analysis.
	// It roughly halves memory at the cost of possible false alarms.
	Coarse
)

// FieldsPerObject is the number of consecutive variable ids folded into
// one shadow location under Coarse granularity. The workload generators
// allocate the fields of one simulated object contiguously, so integer
// division by this constant is exactly the paper's object-level shadowing.
const FieldsPerObject = 8

// Dispatcher feeds an event stream to a back-end tool, providing the
// RoadRunner services the paper describes:
//
//   - re-entrant lock acquires and releases (which are redundant) are
//     filtered out (Section 4);
//   - wait(t,m), recorded at wait entry, becomes rel(t,m) — the wake-up
//     is recorded separately as acq(t,m) — and notify is dropped
//     (Section 4, "Extensions");
//   - under Coarse granularity, variable ids are remapped to per-object
//     shadow locations.
//
// The dispatcher is additionally the pipeline's resilience layer: it
// holds every event to the identifier caps (see DefaultMaxTid), an
// optional stream validator (see Policy) checks well-formedness online,
// and every call into the tool is wrapped in a panic quarantine — a
// panicking HandleEvent never escapes to the caller; instead the
// offending shadow location is quarantined (skipped from then on) and,
// after DefaultMaxToolPanics panics, the whole tool is downgraded to a no-op
// that still serves the warnings and stats gathered so far. The
// dispatcher counts every deviation once, in one ledger: Health reads
// it, and the rr.* metrics are bumped where it is.
type Dispatcher struct {
	Tool        Tool
	Granularity Granularity

	// Policy selects stream validation (default PolicyOff). Set before
	// feeding events.
	Policy Policy
	// MaxTid/MaxTarget override the identifier caps
	// (DefaultMaxTid/DefaultMaxTarget when zero), which hold under every
	// policy. Set before feeding events.
	MaxTid    int32
	MaxTarget uint64

	// FilteredReentrant counts redundant acquire/release events dropped.
	FilteredReentrant int64
	// Fed counts events offered to the dispatcher.
	Fed int64

	// Obs, when non-nil, receives live pipeline metrics (rr.* namespace:
	// events fed, delivered by class, validator/quarantine accounting,
	// sampled per-event dispatch latency). Metrics are atomic, so a
	// concurrent goroutine may snapshot the registry while events flow;
	// the dispatcher itself remains single-threaded.
	Obs *obs.Registry

	depth map[lockKey]int
	next  int64 // index of the next event forwarded to the tool

	om *obsMetrics // cached metric handles, nil until Obs is set

	// deliveredKind counts events actually handed to the tool, indexed
	// by event kind — the dispatcher-side ground truth the detectors'
	// own Stats are audited against.
	deliveredKind [trace.ChanClose + 1]int64

	// feas is a validating policy's Section 2.1 state machine (see
	// machine).
	feas *trace.Validator

	// ledger is the pipeline's one count of deviations: validation
	// verdicts (see violation), the sticky error, and the panic
	// quarantine (see recoverPanic). Health returns a copy of it.
	ledger      Health
	quarantined map[uint64]bool
}

// DefaultMaxToolPanics is the panic budget: after this many recovered
// tool panics, the tool is downgraded to a no-op.
const DefaultMaxToolPanics = 8

// maxPanicLog and maxViolationLog bound the retained panic and
// violation records; the counters keep exact totals regardless.
const (
	maxPanicLog     = 8
	maxViolationLog = 32
)

// PanicRecord describes one recovered tool panic.
type PanicRecord struct {
	Index int         // event index at which the tool panicked
	Event trace.Event // the event being handled
	Value string      // the panic value, stringified
}

func (p PanicRecord) String() string {
	return fmt.Sprintf("panic at event %d (%s): %s", p.Index, p.Event, p.Value)
}

// Health is a snapshot of the dispatcher's ledger: everything the
// resilience layer did instead of crashing, each deviation counted once,
// here and nowhere else (the rr.validator.* and rr.quarantine.* metrics
// are bumped as it is). A healthy pipeline has Healthy == true and all
// counters zero.
type Health struct {
	// Healthy is true iff no degradation of any kind occurred.
	Healthy bool
	// ToolDisabled reports that the tool exceeded the panic budget and
	// was downgraded to a no-op.
	ToolDisabled bool
	// Panics counts tool panics recovered by the quarantine; PanicLog
	// holds the first few.
	Panics   int64
	PanicLog []PanicRecord
	// QuarantinedLocations is the number of shadow locations quarantined
	// after panics; QuarantinedAccesses counts accesses skipped because
	// their location was quarantined.
	QuarantinedLocations int
	QuarantinedAccesses  int64
	// Validation accounting: Violations == Repaired + Dropped, plus one
	// if Err is set, under every policy. Under PolicyOff the only
	// violations are a release or wait of a lock its thread does not
	// hold, which is dropped, and an id beyond the caps, which sets
	// Err. Synthesized counts repair events fed to the tool.
	// ViolationLog holds the first few violations.
	Violations   int64
	Repaired     int64
	Dropped      int64
	Synthesized  int64
	ViolationLog []Violation
	// Err is the sticky error that stopped the stream, if any:
	// PolicyStrict's first violation, or under PolicyOff an id beyond
	// the identifier caps. Every later event is ignored.
	Err error
}

type lockKey struct {
	tid  int32
	lock uint64
}

// NewDispatcher returns a dispatcher feeding tool with fine granularity.
func NewDispatcher(tool Tool) *Dispatcher {
	return &Dispatcher{Tool: tool, depth: map[lockKey]int{}}
}

// CurrentTool returns the tool events are delivered to right now: the
// configured Tool until a panic-budget downgrade swaps in its no-op
// wrapper. Races and Stats should be read through it rather than
// through a caller-retained tool reference: after a downgrade the
// wrapper's recover guards contain a tool whose accessors panic too.
func (d *Dispatcher) CurrentTool() Tool { return d.Tool }

// EventBatch offers a batch of events in order, the dispatcher's one
// entry point (a single event is a one-element batch). The cap test,
// validation, filtering and delivery stay per event; the fed accounting
// (Fed, the rr.events.fed counter) and the rr.delivered.* counters are
// updated once per batch. Each event's index in the violation log is
// its position in the fed stream. An error that stops the stream (see
// Health.Err) makes the dispatcher ignore all later events.
func (d *Dispatcher) EventBatch(events []trace.Event) {
	n := int64(len(events))
	if n == 0 {
		return
	}
	base := d.Fed
	d.Fed += n
	if d.Obs != nil && d.om == nil {
		d.initObs()
	}
	if d.om != nil {
		d.om.fed.Add(n)
	}
	maxTid, maxTarget := d.MaxTid, d.MaxTarget
	if maxTid <= 0 {
		maxTid = DefaultMaxTid
	}
	if maxTarget == 0 {
		maxTarget = DefaultMaxTarget
	}
	for i := range events {
		if d.ledger.Err != nil {
			break
		}
		e, idx := &events[i], base+int64(i)
		// The identifier caps, under every policy: one test on the
		// event in hand, and a call only for an event that may break
		// one (an id past a cap, or a fork, join or barrier, whose
		// threads lie outside Tid).
		if uint32(e.Tid) > uint32(maxTid) || e.Target > maxTarget && e.Kind.IsAccess() || 1<<e.Kind&threadTargets != 0 {
			if msg := capViolation(e, maxTid, maxTarget); msg != "" {
				d.capped(idx, *e, msg)
				continue
			}
		}
		if d.Policy == PolicyOff || d.validate(idx, *e) {
			d.process(idx, *e)
		}
	}
	if d.om != nil {
		d.om.publishDelivered(d)
	}
}

// violation records that event idx broke the feasibility constraints
// or an identifier cap, and how it was handled; ActionErrored also sets the sticky error.
func (d *Dispatcher) violation(idx int64, e trace.Event, msg string, act ViolationAction) {
	l := &d.ledger
	l.Violations++
	if len(l.ViolationLog) < maxViolationLog {
		l.ViolationLog = append(l.ViolationLog, Violation{Index: int(idx), Event: e, Msg: msg, Action: act})
	}
	switch act {
	case ActionErrored:
		l.Err = &trace.ValidationError{Index: int(idx), Event: e, Msg: msg}
	case ActionRepaired:
		l.Repaired++
	case ActionDropped:
		l.Dropped++
	}
	if d.om != nil {
		d.om.violations.Inc()
		switch act {
		case ActionRepaired:
			d.om.repaired.Inc()
		case ActionDropped:
			d.om.dropped.Inc()
		}
	}
}

// synthesized counts n repair events about to be fed to the tool.
func (d *Dispatcher) synthesized(n int64) {
	d.ledger.Synthesized += n
	if d.om != nil {
		d.om.synthesized.Add(n)
	}
}

// Delivered returns how many events of kind k the dispatcher actually
// handed to the tool (after validation, filtering, wait expansion, and
// quarantine). Wait events are delivered as Release.
func (d *Dispatcher) Delivered(k trace.Kind) int64 {
	if int(k) >= len(d.deliveredKind) {
		return 0
	}
	return d.deliveredKind[k]
}

// DeliveredSyncs returns the number of delivered synchronization events
// (every delivered kind that is neither a data access nor a transaction
// marker).
func (d *Dispatcher) DeliveredSyncs() int64 {
	var n int64
	for k, c := range d.deliveredKind {
		if trace.Kind(k).IsSync() {
			n += c
		}
	}
	return n
}

// Err returns the sticky error that stopped the stream, if any (see
// Health.Err).
func (d *Dispatcher) Err() error { return d.ledger.Err }

// process applies the framework services (re-entrant lock filtering,
// wait expansion, granularity) and forwards the event to the tool. idx
// is the fed position of the event e is or repairs.
func (d *Dispatcher) process(idx int64, e trace.Event) {
	// Fast path: data accesses are >96% of the stream and need only the
	// granularity remap.
	if e.Kind == trace.Read || e.Kind == trace.Write {
		if d.Granularity == Coarse {
			e.Target /= FieldsPerObject
		}
		d.forward(e)
		return
	}
	if d.depth == nil {
		d.depth = map[lockKey]int{}
	}
	switch e.Kind {
	case trace.Acquire:
		k := lockKey{e.Tid, e.Target}
		d.depth[k]++
		if d.depth[k] > 1 {
			d.filteredReentrant()
			return
		}
	case trace.Release:
		k := lockKey{e.Tid, e.Target}
		switch d.depth[k] {
		case 0:
			// Release with no matching acquire: never forwarded unchecked.
			// A validating policy repairs or drops it before it gets here;
			// under PolicyOff it is dropped here.
			d.notHeld(idx, e)
			return
		case 1:
			delete(d.depth, k)
		default:
			d.depth[k]--
			d.filteredReentrant()
			return
		}
	case trace.Wait:
		// Wait entry releases the monitor; the wake-up is a separate,
		// explicitly recorded acquire (Section 4). The depth bookkeeping
		// must see the release, or the wake-up acquire would be
		// misclassified as re-entrant.
		k := lockKey{e.Tid, e.Target}
		switch d.depth[k] {
		case 0:
			// Waiting on a lock the thread does not hold would forward a
			// release that never had an acquire; drop it like one.
			d.notHeld(idx, e)
			return
		case 1:
			delete(d.depth, k)
		default:
			// Waiting while holding the monitor re-entrantly: the JVM
			// releases all holds; we conservatively keep the re-entrant
			// depth and release the outermost hold only.
			d.depth[k]--
			d.filteredReentrant()
			return
		}
		d.forward(trace.Rel(e.Tid, e.Target))
		return
	case trace.Notify:
		return // no happens-before edge (Section 4)
	}
	d.forward(e)
}

func (d *Dispatcher) forward(e trace.Event) {
	i := int(d.next)
	d.next++
	if d.quarantined != nil && e.Kind.IsAccess() && d.quarantined[e.Target] {
		d.ledger.QuarantinedAccesses++
		return
	}
	d.deliver(i, e)
}

func (d *Dispatcher) filteredReentrant() {
	d.FilteredReentrant++
	if d.om != nil {
		d.om.filtered.Inc()
	}
}

// notHeld drops release or wait e of a lock its thread does not hold,
// recorded as the violation the state machine reports for it.
func (d *Dispatcher) notHeld(idx int64, e trace.Event) {
	d.violation(idx, e, trace.NotHeldMsg(e), ActionDropped)
}

// deliver counts the event into the per-kind delivery counters and
// hands it to the tool.
func (d *Dispatcher) deliver(i int, e trace.Event) {
	if int(e.Kind) < len(d.deliveredKind) {
		d.deliveredKind[e.Kind]++
	}
	if d.om != nil {
		// Sample 1 in latencySampleEvery deliveries into the latency
		// histogram; registered before the recover defer (LIFO) so a
		// panicking delivery is still timed.
		if i%latencySampleEvery == 0 {
			start := time.Now()
			defer func() { d.om.latency.Observe(time.Since(start).Nanoseconds()) }()
		}
	}
	defer func() {
		if r := recover(); r != nil {
			d.recoverPanic(i, e, r)
		}
	}()
	d.Tool.HandleEvent(i, e)
}

// recoverPanic is the quarantine's slow path: account the panic, put
// the offending location in quarantine, and downgrade the tool once the
// panic budget is spent.
func (d *Dispatcher) recoverPanic(i int, e trace.Event, r any) {
	l := &d.ledger
	l.Panics++
	if len(l.PanicLog) < maxPanicLog {
		l.PanicLog = append(l.PanicLog, PanicRecord{Index: i, Event: e, Value: fmt.Sprint(r)})
	}
	if e.Kind.IsAccess() {
		if d.quarantined == nil {
			d.quarantined = map[uint64]bool{}
		}
		d.quarantined[e.Target] = true
	}
	if d.om != nil {
		d.om.panics.Inc()
		d.om.quarantine.Set(int64(len(d.quarantined)))
	}
	if !l.ToolDisabled && l.Panics >= DefaultMaxToolPanics {
		d.Tool = &disabledTool{inner: d.Tool}
		l.ToolDisabled = true
	}
}

// Quarantined reports whether shadow location x is quarantined.
func (d *Dispatcher) Quarantined(x uint64) bool { return d.quarantined[x] }

// Health returns a degradation snapshot of the pipeline: a copy of the
// ledger, with the quarantine size and the verdict filled in.
func (d *Dispatcher) Health() Health {
	h := d.ledger
	h.PanicLog = append([]PanicRecord(nil), h.PanicLog...)
	h.ViolationLog = append([]Violation(nil), h.ViolationLog...)
	h.QuarantinedLocations = len(d.quarantined)
	h.Healthy = h.Panics == 0 && !h.ToolDisabled && h.Violations == 0 && h.Err == nil
	return h
}

// disabledTool is the downgrade target for a tool that exceeded the
// panic budget: the EMPTY-tool analysis (events are no longer delivered)
// that still serves the warnings and statistics collected before the
// downgrade. Its queries guard against a tool whose accessors also
// panic.
type disabledTool struct{ inner Tool }

func (t *disabledTool) Name() (name string) {
	name = "disabled"
	defer func() { _ = recover() }()
	return t.inner.Name() + " (disabled)"
}

func (t *disabledTool) HandleEvent(int, trace.Event) {}

func (t *disabledTool) Races() (rs []Report) {
	defer func() { _ = recover() }()
	return t.inner.Races()
}

func (t *disabledTool) Stats() (st Stats) {
	defer func() { _ = recover() }()
	return t.inner.Stats()
}

// Feed offers an entire trace as one batch.
func (d *Dispatcher) Feed(tr trace.Trace) { d.EventBatch(tr) }

// Pipeline composes a prefilter with a downstream tool, the analog of
// RoadRunner's "-tool FastTrack:Velodrome" (Section 5.2): every event is
// handled by the prefilter, and only events the prefilter still considers
// interesting reach the downstream tool. Synchronization and transaction
// events always pass (the downstream analyses need them for their own
// happens-before and transaction tracking).
type Pipeline struct {
	Pre  Prefilter
	Back Tool
	// Passed/Filtered count data accesses forwarded/suppressed.
	Passed   int64
	Filtered int64
}

// Name implements Tool.
func (p *Pipeline) Name() string { return p.Pre.Name() + ":" + p.Back.Name() }

// HandleEvent implements Tool.
func (p *Pipeline) HandleEvent(i int, e trace.Event) {
	pass := p.Pre.HandleFilter(i, e)
	if !e.Kind.IsAccess() {
		pass = true
	}
	if pass {
		if e.Kind.IsAccess() {
			p.Passed++
		}
		p.Back.HandleEvent(i, e)
		return
	}
	p.Filtered++
}

// Races implements Tool; it returns the downstream tool's warnings.
func (p *Pipeline) Races() []Report { return p.Back.Races() }

// Stats implements Tool; it merges both halves' counters so the total
// instrumentation cost of the composed analysis is visible.
func (p *Pipeline) Stats() Stats {
	a := p.Pre.Stats()
	a.Merge(p.Back.Stats())
	return a
}
