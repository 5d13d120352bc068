package fasttrack

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"fasttrack/internal/chaos"
	"fasttrack/internal/sim"
	"fasttrack/trace"
)

// batchSizes is the equivalence sweep: a degenerate batch, a size that
// cuts access runs and sync events at awkward offsets, the service's typical
// frame size, and a batch larger than most test traces (one IngestBatch
// call for the whole stream).
var batchSizes = []int{1, 7, 64, 4096}

// replayBatch feeds tr through a fresh FastTrack monitor in IngestBatch
// chunks of size batch and returns warnings, stats, and health. Every
// chunk must be accepted in full — the monitor is never closed here.
func replayBatch(t *testing.T, tr trace.Trace, batch int, opts ...MonitorOption) ([]Report, Stats, Health) {
	t.Helper()
	m := NewMonitor(opts...)
	for i := 0; i < len(tr); i += batch {
		chunk := tr[i:min(i+batch, len(tr))]
		n, err := m.IngestBatch(chunk)
		if err != nil || n != len(chunk) {
			t.Fatalf("IngestBatch(%d events) = %d, %v on an open monitor", len(chunk), n, err)
		}
	}
	return m.Races(), m.Stats(), m.Health()
}

// replayEvents is the per-event baseline with the same return shape.
func replayEvents(tr trace.Trace, opts ...MonitorOption) ([]Report, Stats, Health) {
	m := NewMonitor(opts...)
	for _, e := range tr {
		m.Ingest(e)
	}
	return m.Races(), m.Stats(), m.Health()
}

// assertBatchEquivalent checks IngestBatch against per-event Ingest on
// one trace at every batch size. Delivery order is identical, so the
// reports must match exactly, index for index.
func assertBatchEquivalent(t *testing.T, label string, tr trace.Trace) {
	t.Helper()
	wantRaces, wantStats, wantHealth := replayEvents(tr)
	wantStats.ShadowBytes = 0
	for _, batch := range batchSizes {
		got, gotStats, gotHealth := replayBatch(t, tr, batch)
		name := fmt.Sprintf("%s/batch=%d", label, batch)
		if !reflect.DeepEqual(got, wantRaces) {
			t.Errorf("%s: races = %v, want %v", name, got, wantRaces)
		}
		gotStats.ShadowBytes = 0
		if gotStats != wantStats {
			t.Errorf("%s: stats diverge\n  batch:     %+v\n  per-event: %+v", name, gotStats, wantStats)
		}
		if !reflect.DeepEqual(gotHealth, wantHealth) {
			t.Errorf("%s: health diverge\n  batch:     %+v\n  per-event: %+v", name, gotHealth, wantHealth)
		}
	}
}

// TestIngestBatchEquivalenceSim: paper-shaped benchmark workloads and
// random feasible traces report identical results through IngestBatch
// and per-event Ingest at every batch size.
func TestIngestBatchEquivalenceSim(t *testing.T) {
	for _, b := range sim.Benchmarks()[:4] {
		assertBatchEquivalent(t, b.Name, b.Trace(0.05))
	}
	cfg := sim.DefaultRandomConfig()
	cfg.Events = 600
	cfg.Vars = 12
	for seed := int64(1); seed <= 4; seed++ {
		tr := sim.RandomTrace(rand.New(rand.NewSource(seed)), cfg)
		assertBatchEquivalent(t, fmt.Sprintf("random/seed=%d", seed), tr)
	}
}

// TestIngestBatchEquivalenceChaos: equivalence must also hold on
// corrupted streams, where quarantine and unheld-release interception
// fire mid-batch.
func TestIngestBatchEquivalenceChaos(t *testing.T) {
	base := sim.RandomTrace(rand.New(rand.NewSource(7)), sim.DefaultRandomConfig())
	for _, mode := range chaos.Modes() {
		raw := chaos.Mutate(base, mode, rand.New(rand.NewSource(3)))
		var tr trace.Trace
		sc := trace.NewScanner(bytes.NewReader(raw))
		for sc.Scan() {
			tr = append(tr, sc.Event())
		}
		if len(tr) == 0 {
			continue
		}
		assertBatchEquivalent(t, "chaos/"+mode.String(), tr)
	}
}

// TestIngestBatchStraddlesSync: batches whose boundaries fall inside
// lock regions — and batches that contain several sync events — must
// order every access against the sync events exactly as the per-event
// path does. The trace is built so the race set is sensitive to that
// ordering: the lock protects some accesses and not others.
func TestIngestBatchStraddlesSync(t *testing.T) {
	var tr trace.Trace
	tr = append(tr, trace.ForkOf(0, 1), trace.ForkOf(0, 2))
	for k := 0; k < 40; k++ {
		x := uint64(10 + k%5)
		tr = append(tr,
			trace.Acq(1, 1), trace.Wr(1, x), trace.Rel(1, 1),
			trace.Wr(1, 100+uint64(k%3)), // unprotected
			trace.Acq(2, 1), trace.Rd(2, x), trace.Rel(2, 1),
			trace.Rd(2, 100+uint64(k%3)), // races with thread 1's write
		)
	}
	tr = append(tr, trace.JoinOf(0, 1), trace.JoinOf(0, 2))

	if races, _, _ := replayEvents(tr); len(races) == 0 {
		t.Fatal("trace was built to race on the unprotected variables")
	}
	assertBatchEquivalent(t, "straddle", tr)
}

// TestIngestBatchValidationRepair: the batch path runs the stream
// validator per event, so a repairing monitor behaves
// identically batched and unbatched on a corrupted stream.
func TestIngestBatchValidationRepair(t *testing.T) {
	base := sim.RandomTrace(rand.New(rand.NewSource(11)), sim.DefaultRandomConfig())
	raw := chaos.Mutate(base, chaos.Modes()[0], rand.New(rand.NewSource(5)))
	var tr trace.Trace
	sc := trace.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		tr = append(tr, sc.Event())
	}
	if len(tr) == 0 {
		t.Skip("mutation produced an undecodable trace")
	}
	wantRaces, wantStats, wantHealth := replayEvents(tr, WithValidation(PolicyRepair))
	wantStats.ShadowBytes = 0
	for _, batch := range batchSizes {
		got, gotStats, gotHealth := replayBatch(t, tr, batch, WithValidation(PolicyRepair))
		if !reflect.DeepEqual(got, wantRaces) {
			t.Errorf("batch=%d: races = %v, want %v", batch, got, wantRaces)
		}
		gotStats.ShadowBytes = 0
		if gotStats != wantStats {
			t.Errorf("batch=%d: stats diverge\n  batch:     %+v\n  per-event: %+v", batch, gotStats, wantStats)
		}
		if !reflect.DeepEqual(gotHealth, wantHealth) {
			t.Errorf("batch=%d: health diverge\n  batch:     %+v\n  per-event: %+v", batch, gotHealth, wantHealth)
		}
	}
}

// TestIngestBatchRaceHandler: the per-batch callback drain fires
// exactly once per reported warning.
func TestIngestBatchRaceHandler(t *testing.T) {
	var tr trace.Trace
	tr = append(tr, trace.ForkOf(0, 1), trace.ForkOf(0, 2))
	for k := 0; k < 20; k++ {
		tr = append(tr, trace.Wr(1, uint64(40+k)), trace.Wr(2, uint64(40+k)))
	}
	var fired atomic.Int64
	m := NewMonitor(WithRaceHandler(func(Report) { fired.Add(1) }))
	for i := 0; i < len(tr); i += 7 {
		if _, err := m.IngestBatch(tr[i:min(i+7, len(tr))]); err != nil {
			t.Fatal(err)
		}
	}
	races := m.Races()
	if len(races) == 0 {
		t.Fatal("no races on unsynchronized same-variable writes")
	}
	if got := fired.Load(); got != int64(len(races)) {
		t.Errorf("handler fired %d times, %d races reported", got, len(races))
	}
}

// TestIngestBatchEmptyAndClosed: the degenerate cases of the batch
// contract — an empty batch is a no-op even on a closed monitor, and a
// whole batch offered after Close is rejected and counted.
func TestIngestBatchEmptyAndClosed(t *testing.T) {
	m := NewMonitor()
	if n, err := m.IngestBatch(nil); n != 0 || err != nil {
		t.Errorf("IngestBatch(nil) = %d, %v", n, err)
	}
	m.Fork(0, 1)
	m.Close()
	batch := trace.Trace{trace.Wr(1, 5), trace.Rd(1, 5), trace.Acq(1, 9), trace.Rel(1, 9)}
	n, err := m.IngestBatch(batch)
	if n != 0 || !errors.Is(err, ErrMonitorClosed) {
		t.Errorf("IngestBatch after Close = %d, %v", n, err)
	}
	if got := m.Rejected(); got != int64(len(batch)) {
		t.Errorf("Rejected() = %d, want %d", got, len(batch))
	}
	if n, err := m.IngestBatch(nil); n != 0 || err != nil {
		t.Errorf("IngestBatch(nil) after Close = %d, %v", n, err)
	}
}

// TestIngestBatchConcurrentClose: concurrent batching producers against
// a mid-stream Close. The all-or-nothing batch contract must hold
// exactly: every producer's accepted counts plus the monitor's rejected
// counter account for every event offered, with no double counting. Run
// with -race this also stresses the batch path's locking discipline.
func TestIngestBatchConcurrentClose(t *testing.T) {
	const producers = 4
	m := NewMonitor()
	for f := 1; f <= producers; f++ {
		m.Fork(0, int32(f))
	}

	var (
		wg       sync.WaitGroup
		offered  atomic.Int64
		accepted atomic.Int64
	)
	start := make(chan struct{})
	for f := 1; f <= producers; f++ {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			// Disjoint variables per producer, and a sync pair inside
			// each batch.
			base := uint64(tid) << 20
			batch := make(trace.Trace, 0, 22)
			for k := uint64(0); k < 10; k++ {
				batch = append(batch, trace.Wr(tid, base+k), trace.Rd(tid, base+k))
			}
			batch = append(batch, trace.Acq(tid, base+99), trace.Rel(tid, base+99))
			<-start
			for {
				n, err := m.IngestBatch(batch)
				offered.Add(int64(len(batch)))
				accepted.Add(int64(n))
				if err != nil {
					if !errors.Is(err, ErrMonitorClosed) {
						t.Errorf("producer %d: %v", tid, err)
					}
					if n != 0 {
						t.Errorf("producer %d: error with %d events accepted, want 0", tid, n)
					}
					return
				}
				if n != len(batch) {
					t.Errorf("producer %d: nil error with short count %d", tid, n)
					return
				}
			}
		}(int32(f))
	}
	close(start)
	m.Close() // races with in-flight batches by design
	wg.Wait()

	if got, want := accepted.Load()+m.Rejected(), offered.Load(); got != want {
		t.Errorf("accepted %d + rejected %d = %d, want offered %d",
			accepted.Load(), m.Rejected(), got, want)
	}
}
