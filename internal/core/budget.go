package core

import (
	"fasttrack/internal/rr"
	"fasttrack/internal/vc"
)

// This file implements the detector's shadow-memory budget: an optional
// byte ceiling under which FastTrack degrades precision instead of
// growing without bound on adversarial workloads. The degradation
// ladder has two rungs, both accounted in Stats:
//
//  1. Squeeze: every read-shared vector clock is demoted back to an
//     epoch — the most advanced reader survives, the rest of the read
//     history is forgotten (the accordion-clock idea of Sections 4/6
//     applied under pressure rather than at a write). Races against the
//     forgotten readers may be missed; nothing unsound is reported,
//     because the kept component already satisfied R_x(t) <= C_t(t)
//     (the Appendix A invariants are preserved).
//  2. Coarse fallback: if squeezing is not enough, locations not yet
//     shadowed are folded rr.FieldsPerObject-to-one into per-object
//     shadow locations, as under Coarse granularity. This bounds new
//     growth at the cost of possible false sharing on new locations;
//     already-shadowed locations keep their precise state.
//
// The footprint is re-checked every budgetCheckInterval accesses, so
// between checks the footprint can overshoot by the shadow cost of that
// many fresh locations (tens of kilobytes), never unboundedly.

// budgetCheckInterval is the number of accesses between footprint
// checks.
const budgetCheckInterval = 1024

// SetMemoryBudget caps the detector's shadow footprint at the given
// number of bytes (0 disables the budget). The cap is enforced by
// degrading precision, never by aborting; see Stats.MemSqueezes and
// Stats.MemCoarse for how often each rung fired.
func (d *Detector) SetMemoryBudget(bytes int64) {
	d.budget = bytes
}

// budgetAccess remaps an accessed variable under the budget's coarse
// fallback and periodically re-checks the footprint. Called from the
// read/write handlers only when a budget is set.
func (d *Detector) budgetAccess(x uint64) uint64 {
	if (d.st.Reads+d.st.Writes)%budgetCheckInterval == 0 {
		d.enforceBudget()
	}
	if mapped := d.budgetVar(x); mapped != x {
		d.st.MemCoarse++
		return mapped
	}
	return x
}

// budgetVar applies the coarse-fallback remap to a variable id without
// counting anything.
func (d *Detector) budgetVar(x uint64) uint64 {
	if d.coarseFrom == 0 || x < d.coarseFrom {
		return x
	}
	return d.coarseFrom + (x-d.coarseFrom)/rr.FieldsPerObject
}

// enforceBudget walks the degradation ladder until the footprint is
// back under the budget or both rungs are exhausted.
func (d *Detector) enforceBudget() {
	if d.footprint() <= d.budget {
		return
	}
	// Rung 1: squeeze read vector clocks back to epochs and shed slack.
	// The store slots are discarded, not released, and the slab repacked:
	// the point is to give the memory back to the allocator, not keep it
	// pooled.
	for x := range d.r {
		rx := d.r[x]
		if !isShared(rx) {
			continue
		}
		idx := sharedIdx(rx)
		d.r[x] = squeezeEpoch(d.shared.vcAt(idx))
		d.shared.discard(idx)
		d.st.MemSqueezes++
	}
	d.shared.compactSlab()
	for i := range d.threads {
		if d.threads[i].c != nil {
			d.threads[i].c = d.threads[i].c.Trim()
		}
	}
	d.pool.Drain()
	if d.footprint() <= d.budget {
		return
	}
	// Rung 2: fold locations not yet shadowed into coarse shadow
	// locations. Locations below coarseFrom keep their precise state.
	if d.coarseFrom == 0 {
		d.coarseFrom = uint64(len(d.r))
		if d.coarseFrom == 0 {
			d.coarseFrom = 1
		}
	}
}

// squeezeEpoch demotes a read vector clock to the epoch of its most
// advanced component (⊥e if the clock is empty).
func squeezeEpoch(rvc vc.VC) vc.Epoch {
	var (
		bt vc.Tid
		bc vc.Clock
	)
	for t, c := range rvc {
		if c > bc {
			bc, bt = c, vc.Tid(t)
		}
	}
	if bc == 0 {
		return vc.Bottom
	}
	return vc.MakeEpoch(bt, bc)
}
