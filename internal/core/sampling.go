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
// Why a sampled run reports only true races, and only races a full run
// reports too (the rate is fixed when the detector is built, from
// Hints.SampleRate, and never changes while events flow):
//
//   - The decision is hash(x) < thr, a pure function of the id and the
//     fixed threshold; no decision ever consults shadow state.
//   - Per-variable analysis is independent: skipping variable y changes
//     neither the thread clocks nor x's shadow state, so a sampled-in
//     variable's verdict is exactly the full run's. The reports are
//     therefore the full run's restricted to the sampled set, which the
//     property tests check.
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

// SetSamplingRate sets the fraction of the variable space analyzed at
// full fidelity: p >= 1 analyzes every variable, p <= 0 sheds every
// access. It is called once, before the first event (NewTool does so
// from Hints.SampleRate); the soundness argument above assumes the rate
// never changes afterwards.
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

// sampledOut reports whether an access to variable x must take the skip
// path under the rate. Hot-path shape: one compare at full
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
