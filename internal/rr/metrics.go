package rr

import (
	"reflect"
	"strings"

	"fasttrack/internal/obs"
	"fasttrack/trace"
)

// PublishStats mirrors a Stats snapshot into reg as gauges named
// "<prefix>.<json name>", one per field. Gauges (not counters) because
// st is a snapshot owned by the caller: successive calls overwrite
// rather than accumulate, so republishing after every progress tick is
// idempotent. A zero field with an omitempty JSON tag is skipped, to
// keep the /metrics payload proportional to what the tool actually
// did; shadowBytes is published even at zero.
func PublishStats(reg *obs.Registry, prefix string, st Stats) {
	v := reflect.ValueOf(st)
	for i, f := range statGauges {
		if n := v.Field(i).Int(); n != 0 || f.always {
			reg.Gauge(prefix + "." + f.name).Set(n)
		}
	}
}

// statGauge is the gauge of one Stats field.
type statGauge struct {
	name   string // the field's JSON name
	always bool   // published at zero too
}

// statGauges holds the gauge of each Stats field, in field order.
var statGauges = func() []statGauge {
	t := reflect.TypeOf(Stats{})
	out := make([]statGauge, t.NumField())
	for i := range out {
		name, opts, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		out[i] = statGauge{name: name, always: opts != "omitempty" || name == "shadowBytes"}
	}
	return out
}()

// obsMetrics caches the dispatcher's metric handles so publishing is a
// handful of atomic adds with no registry (map) lookups.
type obsMetrics struct {
	fed         *obs.Counter
	reads       *obs.Counter
	writes      *obs.Counter
	syncs       *obs.Counter
	delivered   *obs.Counter
	filtered    *obs.Counter // re-entrant acquire/release suppressed
	violations  *obs.Counter
	repaired    *obs.Counter
	dropped     *obs.Counter
	synthesized *obs.Counter
	panics      *obs.Counter
	quarantine  *obs.Gauge // quarantined shadow locations (live count)
	latency     *obs.Histogram

	// Last-published delivery counts, so their growth can be added to
	// the monotone counters once per EventBatch call.
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
	metricViolations   = "rr.validator.violations"
	metricRepaired     = "rr.validator.repaired"
	metricDropped      = "rr.validator.dropped"
	metricSynthesized  = "rr.validator.synthesized"
	metricPanics       = "rr.quarantine.panics"
	metricQuarantined  = "rr.quarantine.locations"
	metricDispatchNs   = "rr.dispatch.ns"
	latencySampleEvery = 64 // sample 1 in 64 deliveries into the histogram
)

// initObs resolves the metric handles once. Called lazily from
// EventBatch so that setting d.Obs after construction still works.
func (d *Dispatcher) initObs() {
	r := d.Obs
	d.om = &obsMetrics{
		fed:         r.Counter(metricFed),
		reads:       r.Counter(metricReads),
		writes:      r.Counter(metricWrites),
		syncs:       r.Counter(metricSyncs),
		delivered:   r.Counter(metricDelivered),
		filtered:    r.Counter(metricFiltered),
		violations:  r.Counter(metricViolations),
		repaired:    r.Counter(metricRepaired),
		dropped:     r.Counter(metricDropped),
		synthesized: r.Counter(metricSynthesized),
		panics:      r.Counter(metricPanics),
		quarantine:  r.Gauge(metricQuarantined),
		latency:     r.Histogram(metricDispatchNs),
	}
}

// publishDelivered mirrors the dispatcher's per-kind delivery counts
// into the rr.delivered.* counters as deltas. The dispatcher calls it
// once per EventBatch, so the per-event path does no atomic work for
// them. forward counts every event it forwards in next and the
// quarantined ones in the ledger's QuarantinedAccesses, so their
// difference is the number handed to deliver; the sync count is summed
// only when something other than a read or write was delivered since
// the last call.
func (m *obsMetrics) publishDelivered(d *Dispatcher) {
	total := d.next - d.ledger.QuarantinedAccesses
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
