package client

import (
	"testing"

	"fasttrack/trace"
)

// TestWriteBatchAllocs: encoding a full batch through Write and sealing
// it into a frame allocates once, for the buffer of the next frame; the
// sealed frame itself is handed to the sender without a copy.
func TestWriteBatchAllocs(t *testing.T) {
	s := &Session{cfg: defaultConfig(), sendq: make(chan outFrame, 1), dead: make(chan struct{})}
	batch := s.cfg.batchEvents
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < batch; i++ {
			if err := s.Write(trace.Wr(int32(i%4), uint64(i))); err != nil {
				t.Fatal(err)
			}
		}
		if f := <-s.sendq; f.t != FrameEvents || len(f.payload) == 0 {
			t.Fatalf("sealed frame %d with %d payload bytes", f.t, len(f.payload))
		}
	})
	if allocs > 1 {
		t.Errorf("a %d-event batch allocates %v times, want at most 1", batch, allocs)
	}
}

// BenchmarkSessionWrite measures Session.Write, one op per event, over
// a synthetic access/lock trace in the default 1024-event frames, with
// a goroutine draining the frame queue as the sender would, so the cost
// is the per-event encoding, locking and frame sealing alone.
func BenchmarkSessionWrite(b *testing.B) {
	tr := make(trace.Trace, 1<<16)
	for i := range tr {
		tid, x := int32(i%8), uint64(i*7919%(1<<16))
		switch {
		case i%16 == 15:
			tr[i] = trace.Rel(tid, uint64(tid))
		case i%16 == 0:
			tr[i] = trace.Acq(tid, uint64(tid))
		case i%4 == 0:
			tr[i] = trace.Wr(tid, x)
		default:
			tr[i] = trace.Rd(tid, x)
		}
	}
	s := &Session{cfg: defaultConfig(), sendq: make(chan outFrame, queueFrames), dead: make(chan struct{})}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range s.sendq {
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Write(tr[i%len(tr)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	close(s.sendq)
	<-drained
}
