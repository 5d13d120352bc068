package svc

import (
	"bytes"
	"testing"
	"time"

	"fasttrack/client"
	"fasttrack/trace"
)

// TestIngestChunkAllocs: once the session's decoder and scratch buffer
// exist, decoding and ingesting a 1024-event frame allocates nothing.
// The frame is race-free (one thread), so no report is allocated either.
func TestIngestChunkAllocs(t *testing.T) {
	mon, _, err := client.NewMonitor(client.Handshake{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf, trace.Binary)
	for i := 0; i < 1024; i++ {
		e := trace.Rd(0, uint64(i%256))
		switch {
		case i%16 == 0:
			e = trace.Acq(0, 1)
		case i%16 == 15:
			e = trace.Rel(0, 1)
		case i%3 == 0:
			e = trace.Wr(0, uint64(i%256))
		}
		if err := w.Write(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	sess := &session{mon: mon}
	allocs := testing.AllocsPerRun(20, func() {
		if n, _, _, err := sess.ingestChunk(buf.Bytes()); n != 1024 || err != nil {
			t.Fatalf("ingested %d events: %v", n, err)
		}
	})
	if allocs != 0 {
		t.Errorf("ingestChunk allocates %v times per frame, want 0", allocs)
	}
}

// TestFinishedSessionFreesDecoder: a finalized session keeps its results
// but not its frame decoder or event scratch, so the finished sessions
// the server retains pin no decode buffers.
func TestFinishedSessionFreesDecoder(t *testing.T) {
	srv, addr := startServer(t, Config{})
	cs, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(1)
	if err := streamAll(cs, tr); err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	sess := srv.lookup(cs.ID())
	if sess == nil {
		t.Fatalf("session %s not retained", cs.ID())
	}
	select {
	case <-sess.doneCh:
	case <-time.After(10 * time.Second):
		t.Fatal("session not finalized")
	}
	if sess.sc != nil || sess.scratch != nil || sess.payload.Size() != 0 {
		t.Errorf("finalized session holds its decoder (%v), scratch (cap %d) or payload (%d bytes)",
			sess.sc != nil, cap(sess.scratch), sess.payload.Size())
	}
	if res := sess.results(0); int(res.Events) != len(tr) || res.Stats.Events != int64(len(tr)) {
		t.Errorf("retained results hold %d events (stats %d), want %d", res.Events, res.Stats.Events, len(tr))
	}
}
