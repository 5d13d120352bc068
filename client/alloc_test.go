package client

import (
	"testing"

	"fasttrack/trace"
)

// TestWriteBatchAllocs: encoding a full batch through Write and sealing
// it into a frame allocates once, for the payload handed to the sender;
// the encoder and its buffer are reused across batches.
func TestWriteBatchAllocs(t *testing.T) {
	s := &Session{cfg: defaultConfig(), sendq: make(chan outFrame, 1), dead: make(chan struct{})}
	s.enc = trace.NewWriter(&s.buf, trace.Binary)
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
