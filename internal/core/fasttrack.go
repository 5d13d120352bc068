// Package core implements the FastTrack dynamic race detection algorithm
// of Flanagan & Freund (PLDI 2009), Figures 2, 3 and 5, together with the
// Section 4 extensions for volatile variables, barriers and wait/notify.
//
// FastTrack is a precise, online happens-before race detector. Its key
// idea is the adaptive representation of per-variable access histories:
//
//   - the last write to each variable is recorded as a single epoch c@t
//     (all non-racy writes are totally ordered, so one epoch suffices);
//   - the read history is an epoch while reads remain totally ordered
//     (thread-local and lock-protected data) and is promoted to a full
//     vector clock only when reads become concurrent (read-shared data);
//     a subsequent write that happens after all those reads demotes the
//     history back to an epoch.
//
// The result is O(1) space per variable and O(1) time per access in the
// common case, with no loss of precision (Theorem 1).
//
// Shadow-state layout (DESIGN.md §13): the per-variable history is
// stored struct-of-arrays. The write and read epochs live in dense
// parallel w[]/r[] arrays — eight variables per cache line — so the
// same-epoch fast path (>96% of accesses in the paper's workloads)
// loads exactly one shadow word. Everything cold (read vector clocks,
// race flags, detailed-mode indices, provenance records) lives in side
// tables consulted only on the slow paths. A read-shared variable's r[]
// entry carries a tag (thread-id field all ones) whose low bits index
// the detector's read-VC store, so promotion costs no extra lookup
// structure and demotion recycles the backing array in place.
package core

import (
	"fasttrack/internal/rr"
	"fasttrack/internal/vc"
	"fasttrack/trace"
)

// epochClockMask masks the clock field of a packed epoch.
const epochClockMask = uint64(1)<<vc.ClockBits - 1

// sharedTagBase marks a read history promoted to a vector clock: every
// r[] value at or above it (thread-id field all ones — a tid no real
// program reaches, mirroring the READ_SHARED sentinel of Figure 5) is
// read-shared, and its clock field indexes the layout's rvcStore.
const sharedTagBase = vc.Epoch(uint64(vc.MaxTid) << vc.ClockBits)

// isShared reports whether a stored read history is the promoted form.
func isShared(e vc.Epoch) bool { return e >= sharedTagBase }

// sharedIdx extracts the rvcStore slot of a promoted read history.
func sharedIdx(e vc.Epoch) int { return int(uint64(e) & epochClockMask) }

// sharedTag builds the tagged r[] value for rvcStore slot idx.
func sharedTag(idx int) vc.Epoch { return sharedTagBase | vc.Epoch(idx) }

// rvcStore holds the read vector clocks of a layout's read-shared
// variables as regions of one flat, pointer-free clock slab, indexed by
// the tag in the variable's r[] entry. The slab layout is what makes
// the [FT READ SHARED] rule — the hottest slow path — a pair of int32
// loads and one word store: no per-variable clock allocation, no slice
// header to write back, no write barrier, and nothing for the garbage
// collector to scan. Releasing a slot (write-shared demotion) keeps its
// region for the next promotion, so the read-share inflation path
// allocates only when the store has never been this large; discarding
// (accordion compaction) forgets the region, and compactSlab repacks
// the survivors so the memory actually returns to the allocator.
type rvcStore struct {
	clocks  []vc.Clock  // flat slab of every slot's components
	regions []rvcRegion // slot -> region in clocks
	free    []int32     // recycled slot indices
}

// rvcRegion locates one slot's clock inside the slab. Packing offset
// and width together keeps a slot lookup to one 8-byte load.
type rvcRegion struct {
	off, width int32
}

// vcAt returns slot idx's clock as a zero-copy vector view into the
// slab. The three-index slice keeps an append by a caller from bleeding
// into the next region.
func (rs *rvcStore) vcAt(idx int) vc.VC {
	g := rs.regions[idx]
	return vc.VC(rs.clocks[g.off : g.off+g.width : g.off+g.width])
}

// get returns component t of slot idx (missing components are zero).
func (rs *rvcStore) get(idx int, t vc.Tid) vc.Clock {
	if g := rs.regions[idx]; int32(t) < g.width {
		return rs.clocks[g.off+int32(t)]
	}
	return 0
}

// set updates component t of slot idx in place. The region grows
// (rarely: only when threads were created after the promotion) by
// re-carving at the slab's end. The [FT READ SHARED] rule in read
// open-codes the in-bounds store and only calls here to grow.
func (rs *rvcStore) set(idx int, t vc.Tid, c vc.Clock) {
	if int32(t) >= rs.regions[idx].width {
		rs.growSlot(idx, int(t)+1)
	}
	rs.clocks[rs.regions[idx].off+int32(t)] = c
}

// growSlot re-carves slot idx's region with at least n components,
// preserving its contents. The old region leaks inside the slab until
// the next compactSlab.
func (rs *rvcStore) growSlot(idx, n int) {
	g := rs.regions[idx]
	rs.regions[idx] = rvcRegion{off: int32(len(rs.clocks)), width: int32(n)}
	rs.clocks = append(rs.clocks, rs.clocks[g.off:g.off+g.width]...)
	for k := n - int(g.width); k > 0; k-- {
		rs.clocks = append(rs.clocks, 0)
	}
}

// promote services a read-share inflation in one call: it returns a
// slot of >= n components holding exactly {rt: rc, t: c} — the prior
// reader's epoch and the current reader — recycling a freed slot's
// region when one exists. Fusing the slot recycle, the zeroing and
// both component stores into one operation keeps the [FT READ SHARE]
// rule at a single region lookup.
func (rs *rvcStore) promote(n int, rt vc.Tid, rc vc.Clock, t vc.Tid, c vc.Clock) int {
	var idx int
	if k := len(rs.free); k > 0 {
		idx = int(rs.free[k-1])
		rs.free = rs.free[:k-1]
		if int(rs.regions[idx].width) < n {
			rs.growSlot(idx, n)
		}
		g := rs.regions[idx]
		v := rs.clocks[g.off : g.off+g.width]
		for i := range v {
			v[i] = 0
		}
	} else {
		idx = len(rs.regions)
		rs.regions = append(rs.regions, rvcRegion{off: int32(len(rs.clocks)), width: int32(n)})
		for k := n; k > 0; k-- {
			rs.clocks = append(rs.clocks, 0)
		}
	}
	o := rs.regions[idx].off
	rs.clocks[o+int32(rt)] = rc
	rs.clocks[o+int32(t)] = c
	return idx
}

// release retires a slot, keeping its region for reuse.
func (rs *rvcStore) release(idx int) { rs.free = append(rs.free, int32(idx)) }

// discard retires a slot and forgets its region, for Compact. The slab
// space is reclaimed by the compactSlab Compact runs afterwards.
func (rs *rvcStore) discard(idx int) {
	rs.regions[idx].width = 0
	rs.free = append(rs.free, int32(idx))
}

// compactSlab repacks the live regions into a fresh, exactly-sized slab
// so discarded and leaked regions go back to the allocator. Called by
// Compact, never on access paths.
func (rs *rvcStore) compactSlab() {
	freeSet := make(map[int32]bool, len(rs.free))
	for _, idx := range rs.free {
		freeSet[idx] = true
	}
	var live int32
	for idx := range rs.regions {
		if !freeSet[int32(idx)] {
			live += rs.regions[idx].width
		}
	}
	packed := make([]vc.Clock, 0, live)
	for idx := range rs.regions {
		if freeSet[int32(idx)] {
			rs.regions[idx] = rvcRegion{}
			continue
		}
		g := rs.regions[idx]
		rs.regions[idx].off = int32(len(packed))
		packed = append(packed, rs.clocks[g.off:g.off+g.width]...)
	}
	rs.clocks = packed
}

// bytes reports the store's footprint: the slab (leaked and free
// regions included — they are pinned until compactSlab) plus the slot
// and free-list tables.
func (rs *rvcStore) bytes() int64 {
	return int64(cap(rs.clocks))*8 +
		int64(cap(rs.regions))*8 + int64(cap(rs.free))*4
}

// threadState caches each thread's vector clock C_t and current epoch
// E(t) = C_t(t)@t (the "epoch" field invariant of Figure 5).
type threadState struct {
	c     vc.VC
	epoch vc.Epoch
}

// Detector is the FastTrack analysis state σ = (C, L, R, W).
// It implements rr.Tool and rr.Prefilter.
type Detector struct {
	threads []threadState
	locks   lockTab // L: lock -> VC of last release (see synctab.go)
	vols    lockTab // L extended to volatiles (Section 4)

	// chans holds the per-channel happens-before state (see channel.go).
	chans map[uint64]*chanState

	// Struct-of-arrays variable tables: W and R epochs indexed by
	// variable id (hot), the per-variable race flags as a bitset, and
	// the read-VC side store (cold).
	w, r    []vc.Epoch
	flagged []uint64
	shared  rvcStore

	// Detailed error reporting (the "more precise error reporting" of
	// the paper's Section 4 implementation notes): when enabled, the
	// detector additionally tracks the event index of each variable's
	// most recent non-redundant read and write, so race reports carry
	// PrevIndex — the position of the prior racing access. Costs two
	// extra words per variable and one store per slow-path access. The
	// tables hold the index plus one, so a fresh variable's zero entry
	// means no access yet and the tables grow as w and r do.
	detailed     bool
	lastWriteIdx []int
	lastReadIdx  []int

	// extendedSameEpoch enables the extended [FT READ SAME EPOCH] rule
	// the paper describes (Section 3, "Read Operations"): it additionally
	// matches same-epoch reads of read-shared data (R_x ∈ VC with
	// R_x(t) = C_t(t)), raising the rule's coverage to DJIT+'s 78% of
	// reads. The paper reports it "does not improve performance of our
	// prototype perceptibly" — the default leaves it off, matching the
	// presented algorithm, and the stats counters let the claim be
	// re-checked here (see the rule-frequency tests).
	extendedSameEpoch bool

	// prov is the provenance flight recorder (see provenance.go); nil —
	// the default — means race reports stay plain and the access paths
	// pay only this nil check.
	prov *provState

	races []rr.Report
	st    rr.Stats
}

var (
	_ rr.Tool      = (*Detector)(nil)
	_ rr.Prefilter = (*Detector)(nil)
)

// New returns a detector expecting roughly the given numbers of threads
// and variables (hints only; both grow on demand).
func New(threadHint, varHint int) *Detector {
	d := &Detector{}
	if threadHint > 0 {
		d.threads = make([]threadState, 0, threadHint)
	}
	if varHint > 0 {
		d.w = make([]vc.Epoch, 0, varHint)
		d.r = make([]vc.Epoch, 0, varHint)
	}
	return d
}

// Name implements rr.Tool.
func (d *Detector) Name() string { return "FastTrack" }

// EnableExtendedSameEpoch turns on the extended [FT READ SAME EPOCH]
// rule; see the field comment. Precision is unaffected.
func (d *Detector) EnableExtendedSameEpoch() { d.extendedSameEpoch = true }

// EnableDetailedReports turns on per-variable access-history tracking so
// subsequent race reports carry PrevIndex. Accesses processed before the
// call have no history (their PrevIndex would report -1).
func (d *Detector) EnableDetailedReports() {
	d.detailed = true
	d.lastWriteIdx = grow(d.lastWriteIdx, len(d.r))
	d.lastReadIdx = grow(d.lastReadIdx, len(d.r))
}

// thread returns the state of thread t, initializing C_t = inc_t(⊥V)
// on first use (the initial analysis state σ0 of Section 3).
func (d *Detector) thread(t int32) *threadState {
	for int(t) >= len(d.threads) {
		u := vc.Tid(len(d.threads))
		cv := vc.New(len(d.threads) + 1).Inc(u)
		d.st.VCAlloc++
		d.threads = append(d.threads, threadState{c: cv, epoch: cv.Epoch(u)})
	}
	return &d.threads[t]
}

// growVars extends the dense serial tables so variable x is valid.
// Fresh variables have R = W = ⊥e (the zero epoch), a clear flag and,
// with detailed reports, no access index.
// Growth doubles explicitly rather than relying on append: the runtime's
// large-slice growth factor (~1.25x) re-copies a multi-megabyte table
// dozens of times during a rapid-allocation phase, and per-element
// appends pay that for every table separately. make zeroes the whole
// capacity and the tables never shrink, so extending within capacity is
// a pure reslice — fresh variables are born zero for free.
func (d *Detector) growVars(x uint64) {
	n := int(x) + 1
	d.w = grow(d.w, n)
	d.r = grow(d.r, n)
	if d.detailed {
		d.lastWriteIdx = grow(d.lastWriteIdx, n)
		d.lastReadIdx = grow(d.lastReadIdx, n)
	}
	if nw := (n + 63) >> 6; len(d.flagged) < nw {
		if nw <= cap(d.flagged) {
			d.flagged = d.flagged[:nw]
		} else {
			c := 2 * cap(d.flagged)
			if c < 16 {
				c = 16
			}
			for c < nw {
				c *= 2
			}
			nf := make([]uint64, nw, c)
			copy(nf, d.flagged)
			d.flagged = nf
		}
	}
}

// grow extends s to length n, doubling capacity as needed.
func grow[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	c := 2 * cap(s)
	if c < 64 {
		c = 64
	}
	for c < n {
		c *= 2
	}
	ns := make([]T, n, c)
	copy(ns, s)
	return ns
}

// flagBit reports whether a race has already been recorded on variable
// x, without materializing shadow state.
func (d *Detector) flagBit(x uint64) bool {
	w := x >> 6
	return w < uint64(len(d.flagged)) && d.flagged[w]&(1<<(x&63)) != 0
}

// refreshEpoch re-caches E(t) after C_t(t) changed.
func (ts *threadState) refreshEpoch(t vc.Tid) { ts.epoch = ts.c.Epoch(t) }

// incThread implements inc_t with the overflow accounting: a thread
// whose scalar clock has pinned at vc.MaxClock keeps running (the
// increment saturates) but each further increment is counted, surfacing
// the precision loss through Stats instead of panicking the session.
// The common case mutates the component in place — a thread's own
// component always exists (thread() sizes the clock to include it and
// Trim cannot drop a nonzero tail) — so the sync paths that increment
// on every operation store one word instead of a slice header.
func (d *Detector) incThread(ts *threadState, t vc.Tid) {
	c := ts.c
	if int(t) < len(c) {
		if c[t] < vc.MaxClock {
			c[t]++
		}
		if c[t] >= vc.MaxClock {
			d.st.ClockSaturations++
		}
	} else {
		ts.c = c.Inc(t)
		if ts.c.Get(t) >= vc.MaxClock {
			d.st.ClockSaturations++
		}
	}
	ts.refreshEpoch(t)
}

// report records a warning, at most one per variable. w and r are the
// variable's pre-update history — the enricher needs them because the
// caller overwrites the history right after.
func (d *Detector) report(i int, x uint64, w, r vc.Epoch, ts *threadState, kind rr.RaceKind, tid int32, prev vc.Tid) {
	if d.flagBit(x) {
		return
	}
	d.flagged[x>>6] |= 1 << (x & 63)
	prevIdx := -1
	if d.detailed {
		if kind == rr.ReadWrite {
			prevIdx = d.lastReadIdx[x] - 1
		} else {
			prevIdx = d.lastWriteIdx[x] - 1
		}
	}
	rep := rr.Report{
		Var: x, Kind: kind, Tid: tid, PrevTid: int32(prev), Index: i, PrevIndex: prevIdx,
	}
	d.races = append(d.races, rep)
	if d.prov != nil {
		d.enrich(rep, w, r, ts)
	}
}

// HandleEvent implements rr.Tool. Accesses are handled entirely inside
// read/write, including the Events count, which the Prefilter path
// skips.
func (d *Detector) HandleEvent(i int, e trace.Event) {
	switch e.Kind {
	case trace.Read:
		d.read(i, e.Tid, e.Target, true)
		return
	case trace.Write:
		d.write(i, e.Tid, e.Target, true)
		return
	}
	d.st.Events++
	switch e.Kind {
	case trace.Acquire:
		d.st.CountKind(e.Kind)
		d.acquire(e.Tid, e.Target)
	case trace.Release:
		d.st.CountKind(e.Kind)
		d.release(e.Tid, e.Target)
	case trace.Fork:
		d.st.CountKind(e.Kind)
		d.fork(e.Tid, int32(e.Target))
	case trace.Join:
		d.st.CountKind(e.Kind)
		d.join(e.Tid, int32(e.Target))
	case trace.VolatileRead:
		d.st.CountKind(e.Kind)
		d.volatileRead(e.Tid, e.Target)
	case trace.VolatileWrite:
		d.st.CountKind(e.Kind)
		d.volatileWrite(e.Tid, e.Target)
	case trace.BarrierRelease:
		d.st.CountKind(e.Kind)
		d.barrier(e.Tids)
	case trace.ChanSend:
		d.st.CountKind(e.Kind)
		d.chanSend(e.Tid, e.Target, e.Cap)
	case trace.ChanRecv:
		d.st.CountKind(e.Kind)
		d.chanRecv(e.Tid, e.Target, e.Cap)
	case trace.ChanClose:
		d.st.CountKind(e.Kind)
		d.chanClose(e.Tid, e.Target, e.Cap)
	case trace.TxBegin, trace.TxEnd:
		d.st.CountKind(e.Kind) // counted as markers, not syncs
	}
	// TxBegin/TxEnd/Notify carry no happens-before information.
	if d.prov != nil {
		d.provRecordSync(i, e)
	}
}

// HandleFilter implements rr.Prefilter: it processes the event and
// reports whether a downstream analysis still needs to see it. FastTrack
// filters out accesses it has proven race-free — the "millions of
// irrelevant, race-free memory accesses" of Section 5.2 — passing only
// accesses to variables on which a race has been detected. As the paper's
// footnote 6 notes, an access filtered now may later turn out to be
// involved in a race, so composition trades a small amount of coverage
// for a large speedup of the downstream analysis.
func (d *Detector) HandleFilter(i int, e trace.Event) bool {
	switch e.Kind {
	case trace.Read:
		d.read(i, e.Tid, e.Target, false)
		return d.flagBit(e.Target)
	case trace.Write:
		d.write(i, e.Tid, e.Target, false)
		return d.flagBit(e.Target)
	default:
		d.HandleEvent(i, e)
		return true
	}
}

// read implements the four read rules of Figure 2 / the read handler of
// Figure 5. countEvent distinguishes the Tool path (which counts the
// event) from the Prefilter path (which historically does not). The
// body is the zero-allocation fast path — counters, then a single r[]
// load against the thread's cached epoch — with the remaining rules
// open-coded after it, so the non-fast-path reads pay no extra call.
func (d *Detector) read(i int, tid int32, x uint64, countEvent bool) {
	d.st.Reads++
	if countEvent {
		d.st.Events++
	}
	if x >= uint64(len(d.r)) {
		d.growVars(x)
	}
	if int(tid) >= len(d.threads) {
		d.thread(tid)
	}
	// [FT READ SAME EPOCH] — 63.4% of reads in the paper's benchmarks.
	ts := &d.threads[tid]
	r := d.r[x]
	if r == ts.epoch {
		d.st.ReadSameEpoch++
		return
	}
	t := vc.Tid(tid)
	rs := &d.shared
	// Extended rule (optional): same-epoch read of read-shared data.
	if d.extendedSameEpoch && isShared(r) && rs.get(sharedIdx(r), t) == ts.c.Get(t) {
		d.st.ReadSameEpoch++
		return
	}
	// Write-read race check: W_x ⊑ C_t.
	w := d.w[x]
	if !w.LEq(ts.c) {
		d.report(i, x, w, r, ts, rr.WriteRead, tid, w.Tid())
	}
	if d.detailed {
		d.noteRead(i, x, tid, ts)
	}
	switch {
	case isShared(r):
		// [FT READ SHARED] — update one component of R_x in place: one
		// word store into the slab, no allocation, no write barrier
		// (open-coded from rvcStore.set so it stays call-free; the grow
		// branch is only taken when threads appeared after promotion).
		idx := sharedIdx(r)
		if g := rs.regions[idx]; int32(t) < g.width {
			rs.clocks[g.off+int32(t)] = ts.c.Get(t)
		} else {
			rs.set(idx, t, ts.c.Get(t))
		}
		d.st.ReadShared++
	case r.LEq(ts.c):
		// [FT READ EXCLUSIVE] — reads still totally ordered.
		d.r[x] = ts.epoch
		d.st.ReadExclusive++
	default:
		// [FT READ SHARE] — concurrent reads; inflate to a vector clock.
		// (The slow path of Figure 5: 0.1% of reads.) VCAlloc counts the
		// logical allocation even when the store recycles a demoted
		// variable's region — the counter tracks the algorithm's
		// allocation behavior, not the allocator's.
		idx := rs.promote(len(d.threads), r.Tid(), r.Clock(), t, ts.c.Get(t))
		d.st.VCAlloc++
		d.r[x] = sharedTag(idx)
		d.st.ReadShare++
	}
}

// write implements the three write rules of Figure 2 / the write handler
// of Figure 5. See read for the fast-path shape.
func (d *Detector) write(i int, tid int32, x uint64, countEvent bool) {
	d.st.Writes++
	if countEvent {
		d.st.Events++
	}
	if x >= uint64(len(d.r)) {
		d.growVars(x)
	}
	if int(tid) >= len(d.threads) {
		d.thread(tid)
	}
	// [FT WRITE SAME EPOCH] — 71.0% of writes.
	ts := &d.threads[tid]
	if d.w[x] == ts.epoch {
		d.st.WriteSameEpoch++
		return
	}
	w, r := d.w[x], d.r[x]
	// Write-write race check: W_x ⊑ C_t.
	if !w.LEq(ts.c) {
		d.report(i, x, w, r, ts, rr.WriteWrite, tid, w.Tid())
	}
	if !isShared(r) {
		// [FT WRITE EXCLUSIVE] — read-write race check against the read
		// epoch: R_x ⊑ C_t.
		if !r.LEq(ts.c) {
			d.report(i, x, w, r, ts, rr.ReadWrite, tid, r.Tid())
		}
		d.st.WriteExclusive++
	} else {
		// [FT WRITE SHARED] — the one slow write path (0.1% of writes):
		// R_x ⊑ C_t is a full vector-clock comparison. The write then
		// happens after all reads, so the read history is demoted back
		// to the minimal epoch ⊥e, re-enabling the fast paths; the
		// vector's backing array goes back to the store for the next
		// promotion.
		d.st.VCOp++
		idx := sharedIdx(r)
		if prev := d.shared.vcAt(idx).FirstExceeding(ts.c); prev >= 0 {
			d.report(i, x, w, r, ts, rr.ReadWrite, tid, prev)
		}
		d.shared.release(idx)
		d.r[x] = vc.Bottom
		d.st.WriteShared++
	}
	if d.detailed {
		d.noteWrite(i, x, tid, ts)
	}
	d.w[x] = ts.epoch
}

// noteRead records the detailed-mode read history and, when the flight
// recorder is on, the provenance last-access record.
func (d *Detector) noteRead(i int, x uint64, tid int32, ts *threadState) {
	d.lastReadIdx[x] = i + 1
	if d.prov != nil {
		d.provVar(x).r.record(tid, i, d.provGenOf(tid), ts.epoch)
	}
}

// noteWrite is noteRead's write-side twin.
func (d *Detector) noteWrite(i int, x uint64, tid int32, ts *threadState) {
	d.lastWriteIdx[x] = i + 1
	if d.prov != nil {
		d.provVar(x).w.record(tid, i, d.provGenOf(tid), ts.epoch)
	}
}

// acquire implements [FT ACQUIRE]: C_t := C_t ⊔ L_m.
func (d *Detector) acquire(tid int32, m uint64) {
	ts := d.thread(tid)
	if lm, ok := d.locks.get(m); ok {
		ts.c = ts.c.Join(lm)
		d.st.VCOp++
	}
}

// release implements [FT RELEASE]: L_m := C_t; C_t := inc_t(C_t). One
// table probe resolves the lock; its clock is allocated on first
// release and copied into in place afterwards, so steady-state releases
// do not allocate.
func (d *Detector) release(tid int32, m uint64) {
	ts := d.thread(tid)
	p := d.locks.ref(m)
	if *p == nil {
		d.st.VCAlloc++
	}
	*p = (*p).CopyInto(ts.c)
	d.st.VCOp++
	d.incThread(ts, vc.Tid(tid))
}

// fork implements [FT FORK]: C_u := C_u ⊔ C_t; C_t := inc_t(C_t).
func (d *Detector) fork(tid, u int32) {
	// Materialize both threads before taking pointers: thread() may grow
	// the slice and invalidate earlier pointers.
	d.thread(u)
	ts := d.thread(tid)
	us := d.thread(u)
	us.c = us.c.Join(ts.c)
	us.refreshEpoch(vc.Tid(u))
	d.st.VCOp++
	d.incThread(ts, vc.Tid(tid))
}

// join implements [FT JOIN]: C_t := C_t ⊔ C_u; C_u := inc_u(C_u).
func (d *Detector) join(tid, u int32) {
	d.thread(u)
	ts := d.thread(tid)
	us := d.thread(u)
	ts.c = ts.c.Join(us.c)
	ts.refreshEpoch(vc.Tid(tid))
	d.st.VCOp++
	d.incThread(us, vc.Tid(u))
}

// volatileRead implements [FT READ VOLATILE]: C_t := C_t ⊔ L_vx.
func (d *Detector) volatileRead(tid int32, v uint64) {
	ts := d.thread(tid)
	if lv, ok := d.vols.get(v); ok {
		ts.c = ts.c.Join(lv)
		d.st.VCOp++
	}
}

// volatileWrite implements [FT WRITE VOLATILE]:
// L_vx := C_t ⊔ L_vx; C_t := inc_t(C_t).
func (d *Detector) volatileWrite(tid int32, v uint64) {
	ts := d.thread(tid)
	p := d.vols.ref(v)
	if *p == nil {
		d.st.VCAlloc++
	}
	*p = (*p).Join(ts.c)
	d.st.VCOp++
	d.incThread(ts, vc.Tid(tid))
}

// barrier implements [FT BARRIER RELEASE]: every released thread's clock
// becomes inc_t(⊔_{u∈T} C_u), so each thread's first post-barrier step
// happens after all pre-barrier steps of all participants. The join is
// computed in place in the first participant's clock and copied into the
// others' before that one is incremented, so a steady-state barrier
// allocates nothing. VCAlloc still counts the join's clock: the counter
// tracks the algorithm's allocations, not the allocator's.
func (d *Detector) barrier(tids []int32) {
	if len(tids) == 0 {
		return
	}
	d.st.VCAlloc++
	first := tids[0]
	join := d.thread(first).c
	for _, u := range tids {
		join = join.Join(d.thread(u).c)
		d.st.VCOp++
	}
	d.threads[first].c = join
	for _, u := range tids {
		if u != first {
			us := &d.threads[u]
			us.c = us.c.CopyInto(join)
			d.incThread(us, vc.Tid(u))
		}
		d.st.VCOp++
	}
	d.incThread(&d.threads[first], vc.Tid(first))
}

// Races implements rr.Tool.
func (d *Detector) Races() []rr.Report { return d.races }

// footprint computes the live shadow-memory footprint in bytes, for
// Stats.ShadowBytes. Every retained byte is charged to the structure that pins it: the
// dense epoch arrays (16 bytes per variable across w and r), the flag
// bitset, the detailed-mode index tables, read-VC stores (free slots
// included — their arrays are still held), provenance state, and
// thread/lock/volatile/channel clocks.
func (d *Detector) footprint() int64 {
	var bytes int64
	bytes += int64(cap(d.w)+cap(d.r)) * 8
	bytes += int64(cap(d.flagged)) * 8
	bytes += int64(cap(d.lastWriteIdx)+cap(d.lastReadIdx)) * 8
	bytes += d.shared.bytes()
	if d.prov != nil {
		bytes += provVarRecBytes * int64(len(d.prov.vars))
		for _, r := range d.prov.rings {
			if r == nil {
				continue
			}
			bytes += provRingSize*40 + 16 // sync ring + gen + length
			for i := range r.snaps {
				bytes += int64(r.snaps[i].Bytes())
			}
		}
	}
	for i := range d.threads {
		bytes += int64(d.threads[i].c.Bytes()) + 32 // VC header + cached epoch
	}
	bytes += d.locks.bytes()
	bytes += d.vols.bytes()
	bytes += d.chanBytes()
	return bytes
}

// provVarRecBytes is the size of a provVarRec (two provAccess records
// of four scalars each).
const provVarRecBytes = 64

// Stats implements rr.Tool; ShadowBytes is computed from live state.
func (d *Detector) Stats() rr.Stats {
	st := d.st
	st.ShadowBytes = d.footprint()
	return st
}

// ClockOf exposes thread t's current vector clock for white-box tests of
// the worked examples in the paper (Sections 2.2, 3 and Figure 4).
func (d *Detector) ClockOf(t int32) vc.VC { return d.thread(t).c.Copy() }

// ReadStateOf exposes variable x's read history for white-box tests: the
// epoch and false, or the read vector clock and true when read-shared.
func (d *Detector) ReadStateOf(x uint64) (vc.Epoch, vc.VC, bool) {
	if x >= uint64(len(d.r)) {
		d.growVars(x)
	}
	r := d.r[x]
	if isShared(r) {
		return 0, d.shared.vcAt(sharedIdx(r)).Copy(), true
	}
	return r, nil, false
}

// WriteEpochOf exposes variable x's write epoch W_x for white-box tests.
func (d *Detector) WriteEpochOf(x uint64) vc.Epoch {
	if x >= uint64(len(d.r)) {
		d.growVars(x)
	}
	return d.w[x]
}
