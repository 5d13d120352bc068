package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fasttrack/internal/chaos"
	"fasttrack/internal/rr"
	"fasttrack/internal/sim"
	"fasttrack/trace"
)

// replaySampled feeds tr through a fresh detector at the given sampling
// rate, checking well-formedness at the end.
func replaySampled(t *testing.T, tr trace.Trace, rate float64) *Detector {
	t.Helper()
	d := New(4, 8)
	d.SetSamplingRate(rate)
	for i, e := range tr {
		d.HandleEvent(i, e)
	}
	if err := d.CheckWellFormed(); err != nil {
		t.Fatalf("rate %v: %v", rate, err)
	}
	return d
}

func raceKeys(reports []rr.Report) map[rr.Report]bool {
	set := make(map[rr.Report]bool, len(reports))
	for _, r := range reports {
		r.PrevIndex = 0 // not tracked here; normalize
		set[r] = true
	}
	return set
}

// TestSampledRacesExactSubsetProperty: a sampled run's races are exactly
// the full run's races restricted to the sampled-in variables — never a
// false positive, never a miss inside the analyzed slice. This is the
// strong form of the soundness contract (per-variable analysis is
// independent, so skipping variable y cannot change variable x's
// verdict), property-tested over random feasible traces.
func TestSampledRacesExactSubsetProperty(t *testing.T) {
	cfg := sim.DefaultRandomConfig()
	cfg.Events = 400
	cfg.Vars = 24
	rates := []float64{0.75, 0.5, 0.25, 0.1}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := sim.RandomTrace(rng, cfg)
		full := replaySampled(t, tr, 1)
		fullSet := raceKeys(full.Races())
		for _, rate := range rates {
			d := replaySampled(t, tr, rate)
			got := raceKeys(d.Races())
			want := map[rr.Report]bool{}
			for r := range fullSet {
				if !d.sampledOut(r.Var) {
					want[r] = true
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed %d rate %v: races %v, want %v (full %v)",
					seed, rate, got, want, fullSet)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestSampledFullRateByteIdentical: sampled(1.0) is the identity — the
// same races and the same statistics as a detector that never heard of
// sampling, so enabling the tier costs nothing at full fidelity.
func TestSampledFullRateByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := sim.DefaultRandomConfig()
	cfg.Events = 500
	tr := sim.RandomTrace(rng, cfg)
	plain := New(4, 8)
	tuned := New(4, 8)
	tuned.SetSamplingRate(1.0)
	for i, e := range tr {
		plain.HandleEvent(i, e)
		tuned.HandleEvent(i, e)
	}
	if !reflect.DeepEqual(plain.Races(), tuned.Races()) {
		t.Error("sampled(1.0) races differ from full")
	}
	if !reflect.DeepEqual(plain.Stats(), tuned.Stats()) {
		t.Errorf("sampled(1.0) stats differ from full:\n%+v\n%+v",
			plain.Stats(), tuned.Stats())
	}
	if got := tuned.Stats().SampledOut; got != 0 {
		t.Errorf("sampled(1.0) skipped %d accesses", got)
	}
}

// TestDetectionProbabilityTracksRate: the reported detection probability
// is the analyzed fraction of offered accesses and lands near the
// configured rate on a uniform variable population.
func TestDetectionProbabilityTracksRate(t *testing.T) {
	for _, rate := range []float64{1, 0.5, 0.1, 0} {
		d := New(2, 0)
		d.SetSamplingRate(rate)
		i := 0
		for x := uint64(0); x < 2000; x++ {
			d.HandleEvent(i, trace.Wr(0, x))
			i++
		}
		st := d.Stats()
		got := st.DetectionProbability()
		if rate == 1 && (got != 1 || st.SampledOut != 0) {
			t.Errorf("rate 1: probability %v sampledOut %d", got, st.SampledOut)
		}
		if rate == 0 && got != 0 {
			t.Errorf("rate 0: probability %v", got)
		}
		if diff := got - rate; diff < -0.05 || diff > 0.05 {
			t.Errorf("rate %v: detection probability %v drifted", rate, got)
		}
	}
}

// TestSampledSubsetUnderChaos: the subset guarantee holds even when the
// stream is hostile — mutated traces pushed through the resilience
// pipeline under PolicyRepair feed both detectors the same repaired
// stream, and the sampled run still reports a subset.
func TestSampledSubsetUnderChaos(t *testing.T) {
	cfg := sim.DefaultRandomConfig()
	cfg.Events = 300
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := sim.RandomTrace(rng, cfg)
		for _, mode := range chaos.Modes() {
			full := New(4, 8)
			res := chaos.Run(full, tr, mode, seed, rr.PolicyRepair)
			if err := res.Check(); err != nil {
				t.Fatalf("seed %d mode %v: %v", seed, mode, err)
			}
			fullSet := raceKeys(full.Races())
			sampled := New(4, 8)
			sampled.SetSamplingRate(0.25)
			if err := chaos.Run(sampled, tr, mode, seed, rr.PolicyRepair).Check(); err != nil {
				t.Fatalf("seed %d mode %v sampled: %v", seed, mode, err)
			}
			for r := range raceKeys(sampled.Races()) {
				if !fullSet[r] {
					t.Fatalf("seed %d mode %v: sampled race %+v not in full set", seed, mode, r)
				}
			}
			if err := sampled.CheckWellFormed(); err != nil {
				t.Fatalf("seed %d mode %v: %v", seed, mode, err)
			}
		}
	}
}
