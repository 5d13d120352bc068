package conformance

import (
	"math/rand"
	"testing"

	"fasttrack/internal/core"
	"fasttrack/internal/detectors/basicvc"
	"fasttrack/internal/detectors/djit"
	"fasttrack/internal/detectors/epochwr"
	"fasttrack/internal/detectors/eraser"
	"fasttrack/internal/detectors/goldilocks"
	"fasttrack/internal/detectors/multirace"
	"fasttrack/internal/hb"
	"fasttrack/internal/rr"
	"fasttrack/internal/sim"
	"fasttrack/trace"
)

// traceCases returns deterministic random feasible traces covering many
// interleaving shapes.
func traceCases(t *testing.T, n int, cfg sim.RandomConfig) []trace.Trace {
	t.Helper()
	traces := make([]trace.Trace, n)
	for i := range traces {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		tr := sim.RandomTrace(rng, cfg)
		if err := tr.Validate(); err != nil {
			t.Fatalf("generator produced infeasible trace (seed %d): %v", 1000+i, err)
		}
		traces[i] = tr
	}
	return traces
}

// TestTheorem1PreciseDetectorsMatchOracle is the variable-level statement
// of the paper's Theorem 1 (soundness + completeness), property-tested on
// random feasible traces: FastTrack flags a variable if and only if the
// trace contains concurrent conflicting accesses to it. DJIT+ and BasicVC
// must agree exactly ("the three checkers all yield identical precision",
// Section 5.1).
func TestTheorem1PreciseDetectorsMatchOracle(t *testing.T) {
	cfg := sim.DefaultRandomConfig()
	for i, tr := range traceCases(t, 120, cfg) {
		oracle := hb.New(tr).RacyVars()
		ft := RacyVars(core.New(4, 8), tr)
		if !SameVars(ft, oracle) {
			t.Fatalf("case %d: FastTrack %v != oracle %v\ntrace:\n%s", i, ft, oracle, tr)
		}
		dj := RacyVars(djit.New(4, 8), tr)
		if !SameVars(dj, oracle) {
			t.Fatalf("case %d: DJIT+ %v != oracle %v\ntrace:\n%s", i, dj, oracle, tr)
		}
		bv := RacyVars(basicvc.New(4, 8), tr)
		if !SameVars(bv, oracle) {
			t.Fatalf("case %d: BasicVC %v != oracle %v\ntrace:\n%s", i, bv, oracle, tr)
		}
		we := RacyVars(epochwr.New(4, 8), tr)
		if !SameVars(we, oracle) {
			t.Fatalf("case %d: WriteEpochsOnly %v != oracle %v\ntrace:\n%s", i, we, oracle, tr)
		}
	}
}

// TestTheorem1NoVolatilesNoBarriers re-runs the Theorem 1 property on
// the paper's core operation set (Figure 1) only.
func TestTheorem1NoVolatilesNoBarriers(t *testing.T) {
	cfg := sim.DefaultRandomConfig()
	cfg.PVol = 0
	cfg.PBarrier = 0
	cfg.Events = 200
	for i, tr := range traceCases(t, 120, cfg) {
		oracle := hb.New(tr).RacyVars()
		ft := RacyVars(core.New(4, 8), tr)
		if !SameVars(ft, oracle) {
			t.Fatalf("case %d: FastTrack %v != oracle %v\ntrace:\n%s", i, ft, oracle, tr)
		}
	}
}

// TestTheorem1ManyThreads stresses thread-table growth and larger vector
// clocks.
func TestTheorem1ManyThreads(t *testing.T) {
	cfg := sim.DefaultRandomConfig()
	cfg.Threads = 12
	cfg.PFork = 0.10
	cfg.PJoin = 0.05
	cfg.Events = 250
	for i, tr := range traceCases(t, 60, cfg) {
		oracle := hb.New(tr).RacyVars()
		ft := RacyVars(core.New(2, 2), tr) // deliberately tiny hints
		if !SameVars(ft, oracle) {
			t.Fatalf("case %d: FastTrack %v != oracle %v\ntrace:\n%s", i, ft, oracle, tr)
		}
		dj := RacyVars(djit.New(2, 2), tr)
		if !SameVars(dj, oracle) {
			t.Fatalf("case %d: DJIT+ %v != oracle %v\ntrace:\n%s", i, dj, oracle, tr)
		}
	}
}

// TestImpreciseToolsNeverFalselyAccuse checks the documented one-sided
// guarantees: Goldilocks and MultiRace may miss races (their unsound
// thread-local fast paths) but must never flag a race-free variable.
func TestImpreciseToolsNeverFalselyAccuse(t *testing.T) {
	cfg := sim.DefaultRandomConfig()
	for i, tr := range traceCases(t, 120, cfg) {
		oracle := hb.New(tr).RacyVars()
		gl := RacyVars(goldilocks.New(4, 8), tr)
		if !Subset(gl, oracle) {
			t.Fatalf("case %d: Goldilocks false positive: %v ⊄ %v\ntrace:\n%s", i, gl, oracle, tr)
		}
		mr := RacyVars(multirace.New(4, 8), tr)
		if !Subset(mr, oracle) {
			t.Fatalf("case %d: MultiRace false positive: %v ⊄ %v\ntrace:\n%s", i, mr, oracle, tr)
		}
	}
}

// TestEraserFalseAlarmOnForkJoin pins down Eraser's characteristic
// imprecision: a perfectly synchronized fork-join handoff produces a
// spurious LockSet warning, while the precise tools stay silent.
func TestEraserFalseAlarmOnForkJoin(t *testing.T) {
	tr := trace.Trace{
		trace.Wr(0, 1),
		trace.ForkOf(0, 1),
		trace.Rd(1, 1),
		trace.Wr(1, 1),
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := len(hb.New(tr).Races()); n != 0 {
		t.Fatalf("oracle found %d races in race-free trace", n)
	}
	er := RacyVars(eraser.New(2, 2), tr)
	if !er[1] {
		t.Error("Eraser should false-alarm on fork-join handoff")
	}
	ft := RacyVars(core.New(2, 2), tr)
	if len(ft) != 0 {
		t.Errorf("FastTrack false positive: %v", ft)
	}
}

// TestEraserMissesInitializationRace pins down Eraser's unsoundness for
// thread-local initialization (why it missed two hedc races): a genuine
// race hidden by the exclusive->shared transition with a lock held.
func TestEraserMissesInitializationRace(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 1), // concurrent with thread 1's write: a real race
		trace.Acq(1, 0),
		trace.Wr(1, 1), // first "shared" access; lock held => lockset {0}
		trace.Rel(1, 0),
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if !hb.New(tr).RacyVars()[1] {
		t.Fatal("oracle must find the race")
	}
	if er := RacyVars(eraser.New(2, 2), tr); er[1] {
		t.Error("Eraser unexpectedly caught the initialization race")
	}
	if ft := RacyVars(core.New(2, 2), tr); !ft[1] {
		t.Error("FastTrack must catch the initialization race")
	}
}

// TestEraserAcceptsLockDiscipline: consistently lock-protected data never
// warns under Eraser.
func TestEraserAcceptsLockDiscipline(t *testing.T) {
	var tr trace.Trace
	tr = append(tr, trace.ForkOf(0, 1), trace.ForkOf(0, 2))
	for round := 0; round < 5; round++ {
		for tid := int32(0); tid < 3; tid++ {
			tr = append(tr,
				trace.Acq(tid, 7),
				trace.Rd(tid, 3),
				trace.Wr(tid, 3),
				trace.Rel(tid, 7),
			)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if er := RacyVars(eraser.New(4, 4), tr); len(er) != 0 {
		t.Errorf("Eraser warned on lock-disciplined data: %v", er)
	}
}

// TestEraserBarrierExtension: barrier-phased data does not warn (the
// extension of [29] cited in Section 5.1), but removing the barrier does.
func TestEraserBarrierExtension(t *testing.T) {
	phased := trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 1),
		trace.Rd(0, 2),
		trace.Barrier(0, 0, 1),
		trace.Wr(1, 1), // new phase: ownership restarts
		trace.Rd(1, 2),
	}
	if err := phased.Validate(); err != nil {
		t.Fatal(err)
	}
	if er := RacyVars(eraser.New(2, 4), phased); len(er) != 0 {
		t.Errorf("Eraser warned on barrier-phased data: %v", er)
	}

	unphased := trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 1),
		trace.Wr(1, 1),
	}
	if er := RacyVars(eraser.New(2, 4), unphased); !er[1] {
		t.Error("Eraser must warn without the barrier")
	}
}

// TestGoldilocksCatchesRecurringRace: the unsound ownership handoff
// skips the first conflicting pair, but a recurring race is caught.
func TestGoldilocksCatchesRecurringRace(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOf(0, 1),
		trace.ForkOf(0, 2),
		trace.Wr(0, 1),
		trace.Wr(1, 1), // handoff: missed
		trace.Wr(2, 1), // lockset mode: caught
	}
	gl := RacyVars(goldilocks.New(4, 2), tr)
	if !gl[1] {
		t.Error("Goldilocks must catch the recurring race")
	}
}

// TestGoldilocksMissesOneShotHandoffRace documents the miss that cost
// the paper's Goldilocks the hedc races.
func TestGoldilocksMissesOneShotHandoffRace(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOf(0, 1),
		trace.Wr(0, 1),
		trace.Wr(1, 1), // one-shot handoff race: missed by design
	}
	if !hb.New(tr).RacyVars()[1] {
		t.Fatal("oracle must find the race")
	}
	if gl := RacyVars(goldilocks.New(4, 2), tr); gl[1] {
		t.Error("Goldilocks unexpectedly caught the one-shot handoff race")
	}
}

// TestGoldilocksLockTransfer: the lockset-transfer rules accept properly
// locked handoffs.
func TestGoldilocksLockTransfer(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOf(0, 1),
		trace.ForkOf(0, 2),
		// Establish lockset mode on x1 via an initial locked handoff.
		trace.Acq(0, 5),
		trace.Wr(0, 1),
		trace.Rel(0, 5),
		trace.Acq(1, 5),
		trace.Wr(1, 1), // handoff (unchecked), lockset mode from here
		trace.Rel(1, 5),
		trace.Acq(2, 5),
		trace.Wr(2, 1), // transfer via lock 5: accepted
		trace.Rel(2, 5),
	}
	if gl := RacyVars(goldilocks.New(4, 2), tr); len(gl) != 0 {
		t.Errorf("Goldilocks false positive on locked handoffs: %v", gl)
	}
}

// TestAllToolsAgreeOnRaceFreeLockProgram: the canonical lock-protected
// counter is accepted by every tool.
func TestAllToolsAgreeOnRaceFreeLockProgram(t *testing.T) {
	var tr trace.Trace
	tr = append(tr, trace.ForkOf(0, 1))
	for i := 0; i < 20; i++ {
		for tid := int32(0); tid < 2; tid++ {
			tr = append(tr,
				trace.Acq(tid, 0),
				trace.Rd(tid, 0),
				trace.Wr(tid, 0),
				trace.Rel(tid, 0),
			)
		}
	}
	tools := []rr.Tool{
		core.New(2, 2), djit.New(2, 2), basicvc.New(2, 2),
		eraser.New(2, 2), multirace.New(2, 2), goldilocks.New(2, 2),
	}
	for _, tool := range tools {
		if rv := RacyVars(tool, tr); len(rv) != 0 {
			t.Errorf("%s warned on race-free lock program: %v", tool.Name(), rv)
		}
	}
}

// TestCompactionPreservesPrecision: the accordion-style Compact pass is
// a pure space optimization — injecting it after every join must leave
// the warning set identical to an uncompacted run and to the oracle.
func TestCompactionPreservesPrecision(t *testing.T) {
	cfg := sim.DefaultRandomConfig()
	cfg.Threads = 8
	cfg.PFork = 0.08
	cfg.PJoin = 0.06
	cfg.Events = 200
	for i, tr := range traceCases(t, 80, cfg) {
		oracle := hb.New(tr).RacyVars()
		d := core.New(4, 8)
		var dead []int32
		for j, e := range tr {
			d.HandleEvent(j, e)
			if e.Kind == trace.Join {
				dead = append(dead, int32(e.Target))
				d.Compact(dead)
			}
		}
		got := map[uint64]bool{}
		for _, r := range d.Races() {
			got[r.Var] = true
		}
		if !SameVars(got, oracle) {
			t.Fatalf("case %d: compacted FastTrack %v != oracle %v\ntrace:\n%s",
				i, got, oracle, tr)
		}
		if err := d.CheckWellFormed(); err != nil {
			t.Fatalf("case %d: ill-formed after compaction: %v", i, err)
		}
	}
}

// TestAllPreciseToolsCatchPlainRace: every precise tool flags the
// textbook unsynchronized counter.
func TestAllPreciseToolsCatchPlainRace(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOf(0, 1),
		trace.Rd(0, 0),
		trace.Wr(0, 0),
		trace.Rd(1, 0),
		trace.Wr(1, 0),
	}
	tools := []rr.Tool{core.New(2, 2), djit.New(2, 2), basicvc.New(2, 2), eraser.New(2, 2)}
	for _, tool := range tools {
		if rv := RacyVars(tool, tr); !rv[0] {
			t.Errorf("%s missed the plain race", tool.Name())
		}
	}
}

// TestJoinOfIdleThreadMatchesOracle: joining a thread that executed
// nothing orders the joiner after the joined thread's fork. The precise
// detectors and the oracle agree that the trace has no race.
func TestJoinOfIdleThreadMatchesOracle(t *testing.T) {
	tr := trace.Trace{
		trace.ForkOf(0, 2),
		trace.Wr(2, 9),
		trace.Wr(0, 1),
		trace.ForkOf(0, 1),
		trace.JoinOf(2, 1),
		trace.Rd(2, 1),
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	oracle := hb.New(tr).RacyVars()
	for _, tool := range []rr.Tool{core.New(2, 2), djit.New(2, 2), basicvc.New(2, 2)} {
		if got := RacyVars(tool, tr); !SameVars(got, oracle) {
			t.Errorf("%s %v != oracle %v", tool.Name(), got, oracle)
		}
	}
	if len(oracle) != 0 {
		t.Errorf("oracle reports %v on a race-free trace", oracle)
	}
}
