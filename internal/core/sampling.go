package core

// This file implements the detector's sampling tier — the reduced
// fidelity behind racedetect's and racedetectd's sampled(p) mode, after
// the sampled race detectors of PAPERS.md ("Dynamic Race Detection With O(1) Samples", LiteRace,
// Pacer): analyze a deterministic p-fraction of the variable space at
// full FastTrack fidelity and spend O(1) on every other access.
//
// Mechanism. Each variable id is hashed once (the MurmurHash3
// finalizer) and compared against a threshold
// thr = p·2³²: the variable is in the sampled set iff hash(x) < thr.
// Accesses to unsampled variables take the skip path at the very top of
// read/write — before the memory budget, before the variable table —
// so they never materialize shadow state (an unsampled variable costs
// no shadow memory) and never touch a vector clock.
// The skip path still performs the cheap timestamping the fidelity
// report needs: the access is counted into Events/Reads/Writes and
// SampledOut, from which Stats.DetectionProbability derives. The
// accessing thread's clocks are untouched — they are maintained
// exclusively by synchronization events, which are never sampled, so
// the happens-before frontier stays exact at every rate.
//
// Why the rate may even change mid-stream without a false positive (the
// rr.Sampled contract; racedetect and racedetectd set it once, before
// the first event):
//
//   - The decision is hash(x) < thr — a pure function of the id and the
//     current threshold. Raising p only adds variables to the sampled
//     set (monotone), and no decision ever consults shadow state.
//   - The skip path mutates nothing but counters, so a variable that
//     drops out of the sampled set keeps its shadow state frozen. If it
//     is later re-admitted, its state is merely stale: epochs recorded
//     at or before the moment it froze. Every FastTrack race check
//     (epoch-not-ordered-before-C_t) on stale state that fires corresponds to a genuinely
//     unordered pair of accesses that both actually occurred — the
//     paper's Theorem 1 precision argument does not depend on the
//     history being complete, only on every recorded epoch being real.
//     Hence no rate schedule can introduce a false positive, which the
//     property tests check against the happens-before oracle. At a
//     fixed rate the reports are moreover a subset of the full run's
//     (no shadow word is ever stale); a rate that falls and rises
//     again can surface a true race the full run's overwritten epochs
//     no longer show.
//   - At p = 1.0 the threshold is 2³², no 32-bit hash reaches it, the
//     skip path never fires, and the run is byte-identical to one that
//     never enabled sampling (also asserted).

// sampleFull is the threshold meaning "every variable sampled": no
// 32-bit hash value reaches 1<<32, so the skip path is unreachable and
// full fidelity is exactly the pre-sampling behavior.
const sampleFull = uint64(1) << 32

// sampleHash mixes a variable id to a uniform 32-bit value: the high
// word of the MurmurHash3 finalizer (mix64, shared with the sync
// tables).
func sampleHash(x uint64) uint64 { return mix64(x) >> 32 }

// SetSamplingRate implements rr.Sampled: the fraction of the variable
// space analyzed at full fidelity. p >= 1 restores full fidelity; p <= 0
// sheds every access. Like every detector method it must not run
// concurrently with event delivery.
func (d *Detector) SetSamplingRate(p float64) {
	switch {
	case p >= 1:
		d.sampleThr = sampleFull
	case p <= 0:
		d.sampleThr = 0
	default:
		d.sampleThr = uint64(p * float64(sampleFull))
	}
}

// SamplingRate implements rr.Sampled.
func (d *Detector) SamplingRate() float64 {
	return float64(d.sampleThr) / float64(sampleFull)
}

// sampledOut reports whether an access to variable x must take the skip
// path under the current rate. Hot-path shape: one compare at full
// fidelity (the common case), hash + compare otherwise.
func (d *Detector) sampledOut(x uint64) bool {
	thr := d.sampleThr
	return thr != sampleFull && sampleHash(x) >= thr
}

// skipAccess is the O(1) path for an access outside the sampled set:
// count it and stop before any shadow state exists or is read. isRead
// selects the Reads/Writes counter; countEvent mirrors the read/write
// handlers' Tool-vs-Prefilter distinction.
func (d *Detector) skipAccess(isRead, countEvent bool) {
	if isRead {
		d.st.Reads++
	} else {
		d.st.Writes++
	}
	if countEvent {
		d.st.Events++
	}
	d.st.SampledOut++
}
