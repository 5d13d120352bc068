package core

import (
	"fmt"

	"fasttrack/internal/rr"
	"fasttrack/internal/vc"
	"fasttrack/trace"
)

// This file implements the provenance flight recorder: an opt-in layer
// that captures enough recent history to explain *why* a reported race
// is a race. Two structures, both bounded:
//
//   - a per-thread ring of recent synchronization operations (acquire,
//     release, fork, join, volatile, barrier) with the thread's epoch
//     at the time;
//   - a per-thread ring of recent clock snapshots, one taken at every
//     synchronization operation that changes the thread's clock. A
//     thread's clock is constant between sync operations, so the
//     snapshot at an access's generation IS the accessor's clock at the
//     access;
//   - a per-variable last-access record: the tid, event index, epoch,
//     and snapshot generation of the most recent non-redundant read and
//     write — four scalar stores, no copying — in a dense slice parallel
//     to the variable table.
//
// When a race fires, Detector.report enriches the rr.Report into an
// rr.DetailedReport: both accesses' clocks (the prior one reconstructed
// from the snapshot ring), the exact epoch comparison that failed, the
// racing threads' recent release/acquire chains, and a rendered
// explanation. Enrichment work happens only at report time (at most
// once per variable); the steady-state costs of the recorder are a few
// scalar stores per slow-path access and one clock copy per sync
// operation. With the recorder disabled (the default) the access paths
// pay a nil check.

// provRingSize bounds each thread's sync ring.
const provRingSize = 16

// provChainLen is how many of each racing thread's most recent sync
// records a report quotes.
const provChainLen = 4

// provSnapRing bounds each thread's ring of clock snapshots. A prior
// access whose thread has since performed provSnapRing clock-changing
// sync operations loses its clock snapshot (the report omits PrevClock
// but keeps every other field).
const provSnapRing = 16

// provAccess is the last-access record for one side (read or write) of
// a variable: who accessed it, when, at what epoch, and under which of
// the accessor's clock snapshots (gen). The clock itself lives in the
// thread's snapshot ring; recording an access is four scalar stores.
type provAccess struct {
	epoch vc.Epoch
	gen   uint64
	idx   int
	tid   int32
}

func (pa *provAccess) record(tid int32, i int, gen uint64, epoch vc.Epoch) {
	pa.tid, pa.idx, pa.gen, pa.epoch = tid, i, gen, epoch
}

// provVarRec is a variable's last-access record, both sides.
type provVarRec struct {
	w, r provAccess
}

// provSyncRec is a ring entry in raw form. Rendering the op name and
// epoch to the strings rr.SyncRecord carries is deferred to report time
// (recent), keeping the per-sync-op recording cost to a struct store.
type provSyncRec struct {
	idx    int
	target uint64
	epoch  vc.Epoch
	tid    int32
	kind   trace.Kind
}

// provRing is one thread's flight-recorder state: a bounded ring of
// recent sync operations, and a bounded ring of clock snapshots — gen
// counts clock-changing sync operations, and slot (gen-1)%provSnapRing
// holds the latest snapshot. Snapshot buffers are reused in place, so a
// snapshot is valid only until the ring wraps past it. Keeping both
// rings in one struct means a sync operation pays a single per-thread
// lookup to record itself and snapshot the changed clock.
type provRing struct {
	buf   [provRingSize]provSyncRec
	n     int // total records ever appended
	gen   uint64
	snaps [provSnapRing]vc.VC
}

func (r *provRing) add(rec provSyncRec) {
	r.buf[r.n%provRingSize] = rec
	r.n++
}

// recent appends the ring's last k records (oldest first) to out,
// rendering them into the report schema's form.
func (r *provRing) recent(k int, out []rr.SyncRecord) []rr.SyncRecord {
	if r == nil || r.n == 0 {
		return out
	}
	if k > provRingSize {
		k = provRingSize
	}
	if k > r.n {
		k = r.n
	}
	for j := r.n - k; j < r.n; j++ {
		rec := r.buf[j%provRingSize]
		out = append(out, rr.SyncRecord{
			Index: rec.idx, Tid: rec.tid, Op: rec.kind.String(),
			Target: rec.target, Clock: rec.epoch.String(),
		})
	}
	return out
}

// provState is the detector's flight-recorder state; nil when disabled.
type provState struct {
	rings   []*provRing                   // per-thread recorder state, indexed by tid
	vars    []provVarRec                  // serial-mode per-variable records
	details map[uint64]*rr.DetailedReport // serial-mode enriched reports, by variable
}

// EnableProvenance turns on the flight recorder (implying detailed
// reports): subsequent races are enriched into rr.DetailedReports
// available via DetailedRaces. Like EnableDetailedReports, accesses
// processed before the call have no recorded history. Costs roughly one
// vector-clock copy per non-redundant access while enabled.
func (d *Detector) EnableProvenance() {
	if d.prov != nil {
		return
	}
	d.EnableDetailedReports()
	d.prov = &provState{details: make(map[uint64]*rr.DetailedReport)}
}

// provRecordSync appends one sync operation to the acting threads'
// rings with their post-operation epochs, and snapshots every clock the
// operation may have changed (both ends of a fork/join, every barrier
// participant). Called from HandleEvent after the
// handler ran — it sees the post-operation clocks.
func (d *Detector) provRecordSync(i int, e trace.Event) {
	switch e.Kind {
	case trace.Acquire, trace.Release, trace.VolatileRead, trace.VolatileWrite,
		trace.ChanSend, trace.ChanRecv, trace.ChanClose:
		r, ts := d.provRing(e.Tid), d.thread(e.Tid)
		r.add(provSyncRec{
			idx: i, tid: e.Tid, kind: e.Kind, target: e.Target,
			epoch: ts.epoch,
		})
		r.snapshot(ts.c)
	case trace.Fork, trace.Join:
		r, ts := d.provRing(e.Tid), d.thread(e.Tid)
		r.add(provSyncRec{
			idx: i, tid: e.Tid, kind: e.Kind, target: e.Target,
			epoch: ts.epoch,
		})
		r.snapshot(ts.c)
		peer := int32(e.Target)
		d.provRing(peer).snapshot(d.thread(peer).c)
	case trace.BarrierRelease:
		for _, t := range e.Tids {
			r, ts := d.provRing(t), d.thread(t)
			r.add(provSyncRec{
				idx: i, tid: t, kind: e.Kind, target: e.Target,
				epoch: ts.epoch,
			})
			r.snapshot(ts.c)
		}
	}
}

// snapshot records the thread's (just-changed) clock into its snapshot
// ring, reusing the slot's buffer.
func (r *provRing) snapshot(c vc.VC) {
	slot := &r.snaps[r.gen%provSnapRing]
	*slot = slot.CopyInto(c)
	r.gen++
}

// provGenOf reads thread t's snapshot generation without materializing,
// for the access paths.
func (d *Detector) provGenOf(t int32) uint64 {
	if int(t) < len(d.prov.rings) {
		if r := d.prov.rings[t]; r != nil {
			return r.gen
		}
	}
	return 0
}

// provClockAt reconstructs the clock a recorded access ran under: the
// accessor's snapshot at the access's generation. A thread's clock is
// constant between sync operations, so the reconstruction is exact.
// Returns nil when the snapshot ring has wrapped past the generation.
func (d *Detector) provClockAt(pa *provAccess) []uint64 {
	if pa.gen == 0 {
		// No sync operation had touched the accessor's clock yet, so it
		// held exactly its own component — recoverable from the epoch.
		out := make([]uint64, pa.tid+1)
		out[pa.tid] = uint64(pa.epoch.Clock())
		return out
	}
	r := d.provRingOf(pa.tid)
	if r == nil || r.gen-pa.gen >= provSnapRing {
		return nil
	}
	return clockSnapshot(r.snaps[(pa.gen-1)%provSnapRing])
}

// provRing returns (materializing if needed) thread t's sync ring.
func (d *Detector) provRing(t int32) *provRing {
	for int(t) >= len(d.prov.rings) {
		d.prov.rings = append(d.prov.rings, nil)
	}
	if d.prov.rings[t] == nil {
		d.prov.rings[t] = &provRing{}
	}
	return d.prov.rings[t]
}

// provRingOf returns thread t's ring without materializing, for readers
// on the access path.
func (d *Detector) provRingOf(t int32) *provRing {
	if int(t) < len(d.prov.rings) {
		return d.prov.rings[t]
	}
	return nil
}

// provVar returns (materializing if needed) variable x's last-access
// record.
func (d *Detector) provVar(x uint64) *provVarRec {
	for x >= uint64(len(d.prov.vars)) {
		d.prov.vars = append(d.prov.vars, provVarRec{
			w: provAccess{idx: -1}, r: provAccess{idx: -1},
		})
	}
	return &d.prov.vars[x]
}

// clockSnapshot copies a vector clock into the plain []uint64 form the
// JSON report schema uses, dropping trailing zeros.
func clockSnapshot(c vc.VC) []uint64 {
	n := len(c)
	for n > 0 && c[n-1] == 0 {
		n--
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = uint64(c[i])
	}
	return out
}

// enrich builds the DetailedReport for a just-detected race and stores
// it in the details map, where DetailedRaces will find it. w and r are
// the variable's pre-update history — w the prior write epoch, r (or a
// component of the read-VC store's clock it tags) the prior read
// history. It runs at most once per variable.
func (d *Detector) enrich(rep rr.Report, w, r vc.Epoch, ts *threadState) {
	det := &rr.DetailedReport{
		Report:      rep,
		AccessClock: clockSnapshot(ts.c),
		FailedCheck: d.failedCheck(rep, w, r, ts),
	}

	pv := d.provVar(rep.Var)
	// The epoch and clock snapshot of the prior access.
	prev := vc.Tid(rep.PrevTid)
	var prevRec *provAccess
	switch rep.Kind {
	case rr.WriteWrite, rr.WriteRead:
		det.PrevEpoch = w.String()
		if pv.w.idx >= 0 {
			prevRec = &pv.w
		}
	case rr.ReadWrite:
		if isShared(r) {
			det.PrevEpoch = vc.MakeEpoch(prev, d.shared.get(sharedIdx(r), prev)).String()
		} else {
			det.PrevEpoch = r.String()
		}
		if pv.r.idx >= 0 {
			prevRec = &pv.r
		}
	}
	// Quote the snapshot only when it belongs to the thread the race
	// names: for read-shared histories the recorded reader may be a
	// different (later) reader than the one that exceeds C_t.
	if prevRec != nil && prevRec.tid == rep.PrevTid {
		det.PrevClock = d.provClockAt(prevRec)
	}

	// The racing threads' recent release/acquire chains, oldest first.
	det.SyncChain = d.provRingOf(rep.Tid).recent(provChainLen, det.SyncChain)
	if rep.PrevTid != rep.Tid {
		det.SyncChain = d.provRingOf(rep.PrevTid).recent(provChainLen, det.SyncChain)
	}
	sortSyncChain(det.SyncChain)

	det.Explanation = det.Render()
	d.prov.details[rep.Var] = det
}

// failedCheck renders the FastTrack happens-before comparison the race
// failed, in the paper's notation. w/r are the pre-update history, as
// in enrich.
func (d *Detector) failedCheck(rep rr.Report, w, r vc.Epoch, ts *threadState) string {
	switch rep.Kind {
	case rr.WriteRead, rr.WriteWrite:
		// W_x ⋠ C_t: the write epoch's clock exceeds the reader's /
		// writer's component for that thread.
		return fmt.Sprintf("W_x%d = %s !<= C_%d (C_%d[%d] = %d)",
			rep.Var, w, rep.Tid, rep.Tid, w.Tid(), ts.c.Get(w.Tid()))
	case rr.ReadWrite:
		if isShared(r) {
			prev := vc.Tid(rep.PrevTid)
			return fmt.Sprintf("R_x%d[%d] = %d !<= C_%d[%d] = %d",
				rep.Var, prev, d.shared.get(sharedIdx(r), prev), rep.Tid, prev, ts.c.Get(prev))
		}
		return fmt.Sprintf("R_x%d = %s !<= C_%d (C_%d[%d] = %d)",
			rep.Var, r, rep.Tid, rep.Tid, r.Tid(), ts.c.Get(r.Tid()))
	}
	return ""
}

// sortSyncChain orders a small chain by event index (insertion sort:
// the chain is at most 2*provChainLen entries).
func sortSyncChain(chain []rr.SyncRecord) {
	for i := 1; i < len(chain); i++ {
		for j := i; j > 0 && chain[j].Index < chain[j-1].Index; j-- {
			chain[j], chain[j-1] = chain[j-1], chain[j]
		}
	}
}

// DetailedRaces implements rr.DetailedTool: one DetailedReport per
// Races() entry, in the same order, with the embedded Report identical.
// Races detected while the recorder was off (or reported by a detector
// without it) carry only the plain Report fields.
func (d *Detector) DetailedRaces() []rr.DetailedReport {
	races := d.Races()
	out := make([]rr.DetailedReport, len(races))
	for i, r := range races {
		var det *rr.DetailedReport
		if d.prov != nil {
			det = d.prov.details[r.Var]
		}
		if det != nil && det.Report == r {
			out[i] = *det
		} else {
			out[i] = rr.DetailedReport{Report: r}
		}
	}
	return out
}

var _ rr.DetailedTool = (*Detector)(nil)
