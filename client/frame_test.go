package client

import (
	"bytes"
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"

	"fasttrack/trace"
)

// fakeDaemon serves one session over conn: it accepts the hello, keeps
// every events payload it receives, acknowledges flushes and the close,
// and sends the payloads on frames when the session ends.
func fakeDaemon(t *testing.T, conn net.Conn, frames chan<- [][]byte) {
	defer conn.Close()
	fr := trace.NewFrameReader(conn, trace.DefaultMaxFramePayload)
	fw := trace.NewFrameWriter(conn)
	reply := func(ft trace.FrameType, v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		return fw.WriteFrame(ft, b)
	}
	var payloads [][]byte
	defer func() { frames <- payloads }()
	for {
		ft, payload, err := fr.ReadFrame()
		if err != nil {
			return
		}
		var q Seq
		switch ft {
		case FrameHello:
			err = reply(FrameHelloOK, HelloOK{SessionID: "s1"})
		case FrameEvents:
			payloads = append(payloads, payload)
		case FrameFlush:
			if err = json.Unmarshal(payload, &q); err == nil {
				err = reply(FrameFlushOK, FlushOK{Seq: q.Seq})
			}
		case FrameClose:
			if err = json.Unmarshal(payload, &q); err == nil {
				err = reply(FrameCloseOK, Results{Seq: q.Seq})
			}
		default:
			t.Errorf("fake daemon: unexpected frame type %d", ft)
			return
		}
		if err != nil {
			t.Errorf("fake daemon: %v", err)
			return
		}
	}
}

// TestSessionFramesMatchWriter: every events frame a Session seals is
// byte-equal to a trace.Writer's encoding of the same events, so old and
// new clients and daemons interoperate. Frames are sealed both by the
// batch size and by Flush, and the events cover every kind, a
// multi-thread barrier, channel operations and the largest wire tid. An
// event the codec cannot carry fails Write with the Writer's positional
// error and leaves the pending frame as it was, and Stats counts events
// written but not yet framed.
func TestSessionFramesMatchWriter(t *testing.T) {
	const batch = 4
	client, server := net.Pipe()
	frames := make(chan [][]byte, 1)
	go fakeDaemon(t, server, frames)
	s, err := Dial("pipe",
		WithDialFunc(func(string, time.Duration) (net.Conn, error) { return client, nil }),
		WithBatchSize(batch),
		WithReadTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}

	const maxTid = 1<<31 - 1
	evs := []trace.Event{
		trace.Rd(0, 1), trace.Wr(1, 1<<40), trace.VRd(2, 3), trace.VWr(maxTid, 3),
		trace.Acq(0, 7), trace.Rel(0, 7), trace.ForkOf(0, maxTid), trace.JoinOf(0, maxTid),
		trace.Barrier(9, 0, 1, 2, maxTid), {Kind: trace.Wait, Tid: 3, Target: 7}, {Kind: trace.Notify, Tid: 3, Target: 7},
		trace.ChSend(0, 5, 2), trace.ChRecv(1, 5, 2), trace.ChClose(0, 5, trace.MaxChanCap),
		{Kind: trace.TxBegin, Tid: 4}, {Kind: trace.TxEnd, Tid: 4},
		trace.Wr(maxTid, 1<<63),
	}
	bad := []trace.Event{{Kind: trace.Fork, Target: maxTid + 1}, trace.Rd(-1, 1), trace.Barrier(1, 0, -2), trace.ChSend(0, 1, -1)}

	// Write evs in pieces sealed by Flush, trying the bad events
	// wherever the pending frame holds events.
	var want [][]byte
	var pending []trace.Event
	seal := func() {
		var buf bytes.Buffer
		w := trace.NewWriter(&buf, trace.Binary)
		for _, e := range pending {
			if err := w.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		want = append(want, buf.Bytes())
		pending = nil
	}
	written := 0
	for i, piece := range [][]trace.Event{evs[:6], evs[6:7], evs[7:17]} {
		for _, e := range piece {
			if err := s.Write(e); err != nil {
				t.Fatalf("Write(%v): %v", e, err)
			}
			written++
			if pending = append(pending, e); len(pending) == batch {
				seal()
			}
			if len(pending) == 0 {
				continue
			}
			for _, b := range bad {
				wantErr := trace.NewWriter(&bytes.Buffer{}, trace.Binary)
				for _, p := range pending {
					if err := wantErr.Write(p); err != nil {
						t.Fatal(err)
					}
				}
				we := wantErr.Write(b)
				s.bmu.Lock()
				before := append([]byte(nil), s.frame...)
				s.bmu.Unlock()
				err := s.Write(b)
				if err == nil || we == nil || err.Error() != we.Error() {
					t.Fatalf("Write(%v) = %v, want the Writer's error %v", b, err, we)
				}
				s.bmu.Lock()
				after := append([]byte(nil), s.frame...)
				s.bmu.Unlock()
				if !bytes.Equal(before, after) {
					t.Fatalf("failed Write(%v) changed the pending frame:\n%x\n%x", b, before, after)
				}
			}
		}
		if st := s.Stats(); st.EventsWritten != int64(written) || st.EventsSent != int64(written-len(pending)) {
			t.Fatalf("piece %d: Stats written %d sent %d, want %d and %d",
				i, st.EventsWritten, st.EventsSent, written, written-len(pending))
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
		if len(pending) > 0 {
			seal()
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got := <-frames
	if len(got) != len(want) {
		t.Fatalf("daemon got %d events frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("frame %d:\n got %x\nwant %x", i, got[i], want[i])
		}
	}
}

// TestSessionConcurrentWriters: writers on several goroutines, with
// Stats read alongside, share one session; every event reaches the
// daemon exactly once in well-formed frames and Stats counts each.
func TestSessionConcurrentWriters(t *testing.T) {
	const writers, perWriter = 4, 3000
	client, server := net.Pipe()
	frames := make(chan [][]byte, 1)
	go fakeDaemon(t, server, frames)
	s, err := Dial("pipe",
		WithDialFunc(func(string, time.Duration) (net.Conn, error) { return client, nil }),
		WithBatchSize(100),
		WithReadTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := s.Write(trace.Wr(tid, uint64(i))); err != nil {
					t.Error(err)
					return
				}
				if i%500 == 0 {
					if st := s.Stats(); st.EventsSent > st.EventsWritten {
						t.Errorf("Stats: %d events sent, only %d written", st.EventsSent, st.EventsWritten)
					}
				}
			}
		}(int32(g))
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.EventsWritten != writers*perWriter || st.EventsSent != writers*perWriter {
		t.Errorf("Stats written %d sent %d, want %d each", st.EventsWritten, st.EventsSent, writers*perWriter)
	}
	next := make([]uint64, writers)
	for _, payload := range <-frames {
		sc := trace.NewScanner(bytes.NewReader(payload))
		for sc.Scan() {
			e := sc.Event()
			if e.Kind != trace.Write || e.Tid < 0 || e.Tid >= writers || e.Target != next[e.Tid] {
				t.Fatalf("unexpected event %v", e)
			}
			next[e.Tid]++
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	for tid, n := range next {
		if n != perWriter {
			t.Errorf("writer %d: daemon got %d events, want %d", tid, n, perWriter)
		}
	}
}
