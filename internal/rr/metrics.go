package rr

import (
	"fasttrack/internal/obs"
	"fasttrack/trace"
)

// PublishStats mirrors a Stats snapshot into reg as gauges named
// "<prefix>.<field>". Gauges (not counters) because st is a snapshot
// owned by the caller: successive calls overwrite rather than
// accumulate, so republishing after every progress tick is idempotent.
// Zero-valued fields with an omitempty JSON tag are skipped to keep the
// /metrics payload proportional to what the tool actually did.
func PublishStats(reg *obs.Registry, prefix string, st Stats) {
	set := func(name string, v int64, always bool) {
		if v != 0 || always {
			reg.Gauge(prefix + "." + name).Set(v)
		}
	}
	set("events", st.Events, true)
	set("reads", st.Reads, true)
	set("writes", st.Writes, true)
	set("syncs", st.Syncs, true)
	set("acquires", st.Acquires, false)
	set("releases", st.Releases, false)
	set("forks", st.Forks, false)
	set("joins", st.Joins, false)
	set("volatiles", st.Volatiles, false)
	set("barriers", st.Barriers, false)
	set("waits", st.Waits, false)
	set("markers", st.Markers, false)
	set("vcAlloc", st.VCAlloc, false)
	set("vcOps", st.VCOp, false)
	set("readSameEpoch", st.ReadSameEpoch, false)
	set("readShared", st.ReadShared, false)
	set("readExclusive", st.ReadExclusive, false)
	set("readShare", st.ReadShare, false)
	set("writeSameEpoch", st.WriteSameEpoch, false)
	set("writeExclusive", st.WriteExclusive, false)
	set("writeShared", st.WriteShared, false)
	set("readOwned", st.ReadOwned, false)
	set("writeOwned", st.WriteOwned, false)
	set("lockSetOps", st.LockSetOps, false)
	set("shadowBytes", st.ShadowBytes, true)
	set("panics", st.Panics, false)
	set("quarantined", st.Quarantined, false)
	set("violations", st.Violations, false)
	set("repaired", st.Repaired, false)
	set("dropped", st.Dropped, false)
	set("unheldReleases", st.UnheldReleases, false)
	set("memSqueezes", st.MemSqueezes, false)
	set("memCoarse", st.MemCoarse, false)
}

// obsMetrics caches the dispatcher's metric handles so publishing is a
// handful of atomic adds with no registry (map) lookups.
type obsMetrics struct {
	fed         *obs.Counter
	reads       *obs.Counter
	writes      *obs.Counter
	syncs       *obs.Counter
	delivered   *obs.Counter
	filtered    *obs.Counter // re-entrant acquire/release suppressed
	unheld      *obs.Counter
	violations  *obs.Counter
	repaired    *obs.Counter
	droppedVal  *obs.Counter
	synthesized *obs.Counter
	panics      *obs.Counter
	quarantine  *obs.Gauge // quarantined shadow locations (live count)
	latency     *obs.Histogram

	// Last-published validator values, so deltas can be mirrored into
	// the monotone counters after each Check.
	lastViolations, lastRepaired, lastDropped, lastSynthesized int64
	// Last-published delivery counts, mirrored the same way once per
	// Event or EventBatch call.
	lastDelivered, lastReads, lastWrites, lastSyncs int64
}

// dispatcher metric names, all under the rr.* namespace. The canonical
// live event total is rr.events.fed: it counts every event offered to
// the pipeline and therefore matches racedetect's closing "N events
// analyzed" note.
const (
	metricFed          = "rr.events.fed"
	metricReads        = "rr.delivered.reads"
	metricWrites       = "rr.delivered.writes"
	metricSyncs        = "rr.delivered.syncs"
	metricDelivered    = "rr.delivered.total"
	metricFiltered     = "rr.filtered.reentrant"
	metricUnheld       = "rr.filtered.unheldReleases"
	metricViolations   = "rr.validator.violations"
	metricRepaired     = "rr.validator.repaired"
	metricDroppedVal   = "rr.validator.dropped"
	metricSynthesized  = "rr.validator.synthesized"
	metricPanics       = "rr.quarantine.panics"
	metricQuarantined  = "rr.quarantine.locations"
	metricDispatchNs   = "rr.dispatch.ns"
	latencySampleEvery = 64 // sample 1 in 64 deliveries into the histogram
)

// initObs resolves the metric handles once. Called lazily from Event so
// that setting d.Obs after construction still works.
func (d *Dispatcher) initObs() {
	r := d.Obs
	d.om = &obsMetrics{
		fed:         r.Counter(metricFed),
		reads:       r.Counter(metricReads),
		writes:      r.Counter(metricWrites),
		syncs:       r.Counter(metricSyncs),
		delivered:   r.Counter(metricDelivered),
		filtered:    r.Counter(metricFiltered),
		unheld:      r.Counter(metricUnheld),
		violations:  r.Counter(metricViolations),
		repaired:    r.Counter(metricRepaired),
		droppedVal:  r.Counter(metricDroppedVal),
		synthesized: r.Counter(metricSynthesized),
		panics:      r.Counter(metricPanics),
		quarantine:  r.Gauge(metricQuarantined),
		latency:     r.Histogram(metricDispatchNs),
	}
}

// publishValidator mirrors the validator's counters into the registry
// as deltas, preserving counter monotonicity across repeated calls.
func (m *obsMetrics) publishValidator(v *Validator) {
	if d := v.Violations - m.lastViolations; d > 0 {
		m.violations.Add(d)
		m.lastViolations = v.Violations
	}
	if d := v.Repaired - m.lastRepaired; d > 0 {
		m.repaired.Add(d)
		m.lastRepaired = v.Repaired
	}
	if d := v.Dropped - m.lastDropped; d > 0 {
		m.droppedVal.Add(d)
		m.lastDropped = v.Dropped
	}
	if d := v.Synthesized - m.lastSynthesized; d > 0 {
		m.synthesized.Add(d)
		m.lastSynthesized = v.Synthesized
	}
}

// publishDelivered mirrors the dispatcher's per-kind delivery counts
// into the rr.delivered.* counters as deltas. The dispatcher calls it
// once per Event or EventBatch, so the per-event path does no atomic
// work for them. forward counts every event it forwards in next and the
// quarantined ones in quarantinedHits, so their difference is the number
// handed to deliver; the sync count is summed only when something other
// than a read or write was delivered since the last call.
func (m *obsMetrics) publishDelivered(d *Dispatcher) {
	total := d.next - d.quarantinedHits
	if total == m.lastDelivered {
		return
	}
	reads, writes := d.deliveredKind[trace.Read], d.deliveredKind[trace.Write]
	other := (total - reads - writes) != (m.lastDelivered - m.lastReads - m.lastWrites)
	publishDelta(m.delivered, &m.lastDelivered, total)
	publishDelta(m.reads, &m.lastReads, reads)
	publishDelta(m.writes, &m.lastWrites, writes)
	if other {
		var syncs int64
		for k, c := range d.deliveredKind {
			if trace.Kind(k).IsSync() {
				syncs += c
			}
		}
		publishDelta(m.syncs, &m.lastSyncs, syncs)
	}
}

// publishDelta adds v's growth since *last to c and records v.
func publishDelta(c *obs.Counter, last *int64, v int64) {
	if v != *last {
		c.Add(v - *last)
		*last = v
	}
}
