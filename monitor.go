package fasttrack

import (
	"errors"
	"sync"
	"sync/atomic"

	"fasttrack/internal/obs"
	"fasttrack/internal/rr"
	"fasttrack/trace"
)

// ErrMonitorClosed is returned by Ingest (and reported by Err-aware
// callers) for events offered to a monitor after Close.
var ErrMonitorClosed = errors.New("fasttrack: monitor is closed")

// Monitor is the thread-safe online front end: live goroutines report
// their memory accesses and synchronization operations, and the wrapped
// detector checks them on the fly. It plays the role RoadRunner's
// instrumented bytecode plays in the paper — producing the event stream —
// for programs that annotate their operations explicitly.
//
// Thread identifiers are small dense integers chosen by the caller
// (thread 0 is the initial thread); memory locations and locks are
// arbitrary uint64 names in separate namespaces. All methods are safe
// for concurrent use; events are serialized in arrival order, which is a
// legal linearization of the program's own synchronization because every
// happens-before edge the detector tracks is created by a method call
// that the caller orders with the underlying operation. The
// serialization is a single lock: the detector is one sequential
// analysis over the event stream, as in the paper.
type Monitor struct {
	mu     sync.Mutex
	disp   *rr.Dispatcher
	reg    *obs.Registry
	onRace func(Report)
	seen   int
	tids   *threadIDs // lazy; see Monitor.MainThread

	// cfg is the configuration the monitor was built with, kept so Reset
	// can rebuild an identical pipeline. Immutable after NewMonitor.
	cfg monitorConfig

	// Lifecycle (see Close/Reset). closed is guarded by mu; final holds
	// the terminal snapshot queries serve once the live pipeline is
	// released.
	closed   bool
	final    *monitorFinal
	rejected atomic.Int64 // events rejected after Close
}

// monitorFinal is the snapshot captured by Close, after which the
// detector and its shadow state are released.
type monitorFinal struct {
	races    []Report
	detailed []DetailedReport
	stats    Stats
	health   Health
}

// tool returns the dispatcher's current delivery target. Reads must go
// through it rather than a cached Tool: after a panic-budget downgrade
// the wrapper's recover guards contain a tool whose accessors panic too.
func (m *Monitor) tool() Tool { return m.disp.CurrentTool() }

// MonitorOption configures a Monitor.
type MonitorOption func(*monitorConfig)

type monitorConfig struct {
	toolName    string
	tool        Tool // WithTool's instance; NewMonitor hands it to the dispatcher
	custom      bool // the tool came from WithTool, so Reset cannot rebuild it
	granularity Granularity
	hints       Hints
	onRace      func(Report)
	policy      Policy
}

// WithDetector selects the detector by name (default "FastTrack").
func WithDetector(name string) MonitorOption {
	return func(c *monitorConfig) { c.toolName = name }
}

// WithTool installs a caller-constructed tool (e.g. a Compose pipeline),
// overriding WithDetector.
func WithTool(t Tool) MonitorOption {
	return func(c *monitorConfig) { c.tool = t }
}

// WithGranularity selects Fine (default) or Coarse shadow locations.
func WithGranularity(g Granularity) MonitorOption {
	return func(c *monitorConfig) { c.granularity = g }
}

// WithHints supplies capacity hints.
func WithHints(h Hints) MonitorOption {
	return func(c *monitorConfig) { c.hints = h }
}

// WithRaceHandler installs a callback invoked synchronously (under the
// monitor's lock) for each new warning.
//
// Reentrancy hazard: because the callback runs while the monitor's lock
// is held, calling ANY method of the same Monitor from inside the
// callback (Read, Write, Races, Stats, Health, ...) self-deadlocks: the
// goroutine blocks forever on a lock it already holds. Hand the Report
// off (e.g. to a channel or log) and return; query the monitor only
// after the callback has returned.
func WithRaceHandler(f func(Report)) MonitorOption {
	return func(c *monitorConfig) { c.onRace = f }
}

// WithValidation enables online stream validation under the given
// policy. PolicyRepair and PolicyDrop degrade gracefully on malformed
// event sequences (the degradation is visible in Health and Stats);
// PolicyStrict stops analysis at the first violation, reported by
// Health().Err. The default is PolicyOff.
func WithValidation(p Policy) MonitorOption {
	return func(c *monitorConfig) { c.policy = p }
}

// NewMonitor returns a Monitor running FastTrack unless configured
// otherwise. It panics on an unknown detector name, since that is a
// programming error at initialization time.
func NewMonitor(opts ...MonitorOption) *Monitor {
	cfg := monitorConfig{toolName: "FastTrack"}
	for _, o := range opts {
		o(&cfg)
	}
	tool := cfg.tool
	if tool == nil {
		var err error
		tool, err = NewTool(cfg.toolName, cfg.hints)
		if err != nil {
			panic(err)
		}
	} else {
		// Only the dispatcher keeps the instance, so Close releases its
		// shadow state just as it does for a tool built by name.
		cfg.tool, cfg.custom = nil, true
	}
	d := rr.NewDispatcher(tool)
	d.Granularity = cfg.granularity
	d.Policy = cfg.policy
	reg := obs.NewRegistry()
	d.Obs = reg
	return &Monitor{disp: d, reg: reg, onRace: cfg.onRace, cfg: cfg}
}

// Close finalizes the monitor: it snapshots the warnings, statistics,
// and health for later queries, releases the detector's shadow state
// (the dominant memory cost of a long-lived monitor), and rejects all
// further events — Ingest returns ErrMonitorClosed; the void typed
// methods (Read, Acquire, ...) become counted no-ops. Close is
// idempotent and safe to call concurrently with producers: in-flight
// events complete first, later ones are rejected. Races, Stats, Health,
// and Metrics keep serving the final snapshot.
func (m *Monitor) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	st := m.tool().Stats()
	m.disp.FillStats(&st)
	m.final = &monitorFinal{
		races:  append([]Report(nil), m.tool().Races()...),
		stats:  st,
		health: m.disp.Health(),
	}
	if dt, ok := m.tool().(rr.DetailedTool); ok {
		m.final.detailed = append([]DetailedReport(nil), dt.DetailedRaces()...)
	}
	m.closed = true
	// Drop the pipeline so the shadow state is collectable. Every event
	// and query path checks closed under the lock before touching these.
	m.disp = nil
	return nil
}

// Closed reports whether Close has been called.
func (m *Monitor) Closed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Rejected returns the number of events offered after Close.
func (m *Monitor) Rejected() int64 { return m.rejected.Load() }

// Reset rebuilds the monitor's pipeline from its original configuration
// with fresh (empty) detector state, whether or not the monitor was
// closed; prior warnings and statistics are discarded. It requires a
// detector constructed by name — a caller-supplied WithTool instance
// cannot be rebuilt — and must not run concurrently with producers
// (unlike Close, which may). The thread-handle id allocator is
// preserved, so MainThread-derived handles stay valid id sources.
func (m *Monitor) Reset() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.custom {
		return errors.New("fasttrack: Reset requires a detector constructed by name (a WithTool instance cannot be rebuilt)")
	}
	tool, err := NewTool(m.cfg.toolName, m.cfg.hints)
	if err != nil {
		return err
	}
	d := rr.NewDispatcher(tool)
	d.Granularity = m.cfg.granularity
	d.Policy = m.cfg.policy
	d.Obs = m.reg
	m.disp = d
	m.seen = 0
	m.closed = false
	m.final = nil
	m.rejected.Store(0)
	return nil
}

// event feeds one event under the lock and fires the race callback for
// any new warnings. It returns ErrMonitorClosed after Close.
func (m *Monitor) event(e trace.Event) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		m.rejected.Add(1)
		return ErrMonitorClosed
	}
	m.disp.Event(e)
	m.drainRacesLocked()
	return nil
}

// drainRacesLocked fires the race callback for the warnings reported
// since the last drain. Caller holds mu.
func (m *Monitor) drainRacesLocked() {
	if m.onRace == nil {
		return
	}
	races := m.tool().Races()
	for ; m.seen < len(races); m.seen++ {
		m.onRace(races[m.seen])
	}
}

// Ingest records one pre-encoded trace event, routing it exactly as the
// corresponding typed method (Read, Acquire, ...) would. It is the entry
// point for feeding recorded traces into a live monitor, e.g. from the
// CLI, the benchmarks, or the racedetectd ingestion service. It
// returns ErrMonitorClosed once the monitor has been closed and nil
// otherwise.
func (m *Monitor) Ingest(e trace.Event) error { return m.event(e) }

// IngestBatch records a batch of pre-encoded trace events in order and
// returns how many were ingested. It is semantically identical to
// calling Ingest once per element — same race set, same Stats, same
// Health — but the per-event serialization cost is amortized: the
// monitor takes its lock once per batch. Race callbacks are drained
// once per batch rather than per event, still in report order.
//
// The batch is all or nothing: after Close none of it is ingested, all
// of it is counted in Rejected, and the error is ErrMonitorClosed.
func (m *Monitor) IngestBatch(events []trace.Event) (int, error) {
	if len(events) == 0 {
		return 0, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		m.rejected.Add(int64(len(events)))
		return 0, ErrMonitorClosed
	}
	m.disp.EventBatch(events)
	m.drainRacesLocked()
	return len(events), nil
}

// Read records a read of location addr by thread tid.
func (m *Monitor) Read(tid int32, addr uint64) { m.event(trace.Rd(tid, addr)) }

// Write records a write of location addr by thread tid.
func (m *Monitor) Write(tid int32, addr uint64) { m.event(trace.Wr(tid, addr)) }

// Acquire records that thread tid acquired lock l. Re-entrant acquires
// are filtered automatically.
func (m *Monitor) Acquire(tid int32, l uint64) { m.event(trace.Acq(tid, l)) }

// Release records that thread tid released lock l.
func (m *Monitor) Release(tid int32, l uint64) { m.event(trace.Rel(tid, l)) }

// Fork records that thread tid started thread child. Call it before the
// child's first operation.
func (m *Monitor) Fork(tid, child int32) { m.event(trace.ForkOf(tid, child)) }

// Join records that thread tid joined on thread child. Call it after the
// child's last operation.
func (m *Monitor) Join(tid, child int32) { m.event(trace.JoinOf(tid, child)) }

// VolatileRead records a read of volatile (atomic) location v.
func (m *Monitor) VolatileRead(tid int32, v uint64) { m.event(trace.VRd(tid, v)) }

// VolatileWrite records a write of volatile (atomic) location v.
func (m *Monitor) VolatileWrite(tid int32, v uint64) { m.event(trace.VWr(tid, v)) }

// WaitBegin records that thread tid started waiting on lock l (it must
// hold l); per the paper's Section 4 it behaves as a release of l.
func (m *Monitor) WaitBegin(tid int32, l uint64) {
	m.event(trace.Event{Kind: trace.Wait, Tid: tid, Target: l})
}

// WaitEnd records that thread tid woke up from a wait on lock l; it
// behaves as a re-acquisition of l.
func (m *Monitor) WaitEnd(tid int32, l uint64) {
	m.event(trace.Acq(tid, l))
}

// Notify records a notify on lock l; it induces no happens-before edge.
func (m *Monitor) Notify(tid int32, l uint64) {
	m.event(trace.Event{Kind: trace.Notify, Tid: tid, Target: l})
}

// BarrierRelease records that the given threads were simultaneously
// released from barrier b.
func (m *Monitor) BarrierRelease(b uint64, tids ...int32) {
	m.event(trace.Barrier(b, tids...))
}

// ChanSend records that thread tid sent on channel ch (capacity cap).
// Record it immediately before the send operation, so the k-th send
// event precedes the k-th receive event in the monitor's serialization.
func (m *Monitor) ChanSend(tid int32, ch uint64, capacity int32) {
	m.event(trace.ChSend(tid, ch, capacity))
}

// ChanRecv records that thread tid received from channel ch (capacity
// cap). Record it immediately after the receive completes.
func (m *Monitor) ChanRecv(tid int32, ch uint64, capacity int32) {
	m.event(trace.ChRecv(tid, ch, capacity))
}

// ChanClose records that thread tid closed channel ch (capacity cap).
// Record it immediately before the close operation.
func (m *Monitor) ChanClose(tid int32, ch uint64, capacity int32) {
	m.event(trace.ChClose(tid, ch, capacity))
}

// TxBegin marks the start of an atomic block of thread tid, consumed by
// the downstream atomicity checkers; race detectors ignore it.
func (m *Monitor) TxBegin(tid int32) { m.event(trace.Event{Kind: trace.TxBegin, Tid: tid}) }

// TxEnd marks the end of thread tid's current atomic block.
func (m *Monitor) TxEnd(tid int32) { m.event(trace.Event{Kind: trace.TxEnd, Tid: tid}) }

// Races returns a snapshot of the warnings reported so far, in report
// order; per variable, at most one warning is ever reported.
func (m *Monitor) Races() []Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return append([]Report(nil), m.final.races...)
	}
	return append([]Report(nil), m.tool().Races()...)
}

// DetailedRaces returns the provenance-enriched view of Races(): one
// DetailedReport per warning, in the same order, with the embedded
// Report identical to the plain snapshot. Reports carry the recorder's
// evidence (clock snapshots, the failed happens-before check, recent
// sync chains, a rendered explanation) only when the wrapped detector
// had provenance enabled (Hints.Provenance); otherwise — including
// tools without a recorder — each entry holds just the plain fields.
func (m *Monitor) DetailedRaces() []DetailedReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return append([]DetailedReport(nil), m.final.detailed...)
	}
	if dt, ok := m.tool().(rr.DetailedTool); ok {
		return append([]DetailedReport(nil), dt.DetailedRaces()...)
	}
	races := m.tool().Races()
	out := make([]DetailedReport, len(races))
	for i, r := range races {
		out[i] = DetailedReport{Report: r}
	}
	return out
}

// Stats returns a snapshot of the detector's counters, including the
// pipeline's resilience counters (panics recovered, locations
// quarantined, validation repairs/drops).
func (m *Monitor) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return m.final.stats
	}
	st := m.tool().Stats()
	m.disp.FillStats(&st)
	return st
}

// TryStats returns the Stats and Health snapshots as one non-blocking
// acquisition: ok is false, with zero-value snapshots, when the monitor
// lock is contended at the instant of the call. It exists for
// out-of-band observers (the daemon's HTTP stats endpoint) that must
// stay responsive even when an ingesting goroutine has wedged inside
// the detector while holding the lock — a plain Stats() call would
// inherit the wedge.
func (m *Monitor) TryStats() (Stats, Health, bool) {
	if !m.mu.TryLock() {
		return Stats{}, Health{}, false
	}
	defer m.mu.Unlock()
	if m.closed {
		return m.final.stats, m.final.health, true
	}
	st := m.tool().Stats()
	m.disp.FillStats(&st)
	return st, m.disp.Health(), true
}

// TryRaces is the non-blocking Races(): ok is false, with a nil
// snapshot, when the monitor lock is contended at the instant of the
// call. Like TryStats it exists for out-of-band observers that must not
// inherit a wedged ingester's lock.
func (m *Monitor) TryRaces() ([]Report, bool) {
	if !m.mu.TryLock() {
		return nil, false
	}
	defer m.mu.Unlock()
	if m.closed {
		return append([]Report(nil), m.final.races...), true
	}
	return append([]Report(nil), m.tool().Races()...), true
}

// Health returns a degradation snapshot of the monitor's pipeline: a
// crashed (panicking) detector, quarantined shadow locations, and
// stream-validation accounting all surface here instead of aborting the
// caller's process.
func (m *Monitor) Health() Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return m.final.health
	}
	return m.disp.Health()
}

// Metrics returns a point-in-time metrics snapshot: the dispatcher's
// live pipeline counters (rr.* namespace, updated atomically on every
// event) plus the detector's own counters and warning count published
// under tool.* at snapshot time. The detector's non-thread-safe state
// is read under the monitor's lock, but the registry snapshot itself is
// taken after the lock is released, so Metrics never holds both the
// monitor lock and the registry lock at once.
func (m *Monitor) Metrics() MetricsSnapshot {
	m.mu.Lock()
	var (
		st    Stats
		races int
	)
	if m.closed {
		st = m.final.stats
		races = len(m.final.races)
	} else {
		st = m.tool().Stats()
		m.disp.FillStats(&st)
		races = len(m.tool().Races())
	}
	m.mu.Unlock()

	rr.PublishStats(m.reg, "tool", st)
	m.reg.Gauge("tool.races").Set(int64(races))
	return m.reg.Snapshot()
}

// MetricsRegistry exposes the monitor's live registry, e.g. to serve it
// over HTTP with obs-style handlers. The dispatcher's rr.* metrics are
// updated on every event; tool.* gauges are refreshed by Metrics.
func (m *Monitor) MetricsRegistry() *obs.Registry { return m.reg }
