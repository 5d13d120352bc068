package syncmodel

import (
	"reflect"
	"testing"

	"fasttrack"
)

func monitor(p fasttrack.Policy) *fasttrack.Monitor {
	return fasttrack.NewMonitor(fasttrack.WithHints(fasttrack.Hints{Threads: 4, Vars: 8}), fasttrack.WithValidation(p))
}

// underEveryPolicy runs scenario on a fresh Monitor under each
// validation policy. The package's tagged ids name locks and volatiles,
// which the identifier caps leave alone, and every scenario is
// feasible, so each policy must report the same want races on a
// healthy pipeline. It returns the races.
func underEveryPolicy(t *testing.T, want int, label string, scenario func(m *fasttrack.Monitor)) []fasttrack.Report {
	t.Helper()
	var first []fasttrack.Report
	for i, p := range []fasttrack.Policy{fasttrack.PolicyOff, fasttrack.PolicyStrict, fasttrack.PolicyRepair, fasttrack.PolicyDrop} {
		m := monitor(p)
		scenario(m)
		races := m.Races()
		if h := m.Health(); !h.Healthy {
			t.Errorf("%s under %v: pipeline %+v", label, p, h)
		}
		switch {
		case i == 0:
			first = races
			if len(races) != want {
				t.Errorf("%s: %d races, want %d: %v", label, len(races), want, races)
			}
		case !reflect.DeepEqual(races, first):
			t.Errorf("%s under %v: races %v, under off %v", label, p, races, first)
		}
	}
	return first
}

func TestRWMutexWriterThenReaders(t *testing.T) {
	underEveryPolicy(t, 0, "write then reads", func(m *fasttrack.Monitor) {
		rw := NewRWMutex(m, 1)
		m.Fork(0, 1)
		m.Fork(0, 2)
		rw.Lock(0)
		m.Write(0, 5)
		rw.Unlock(0)
		for _, tid := range []int32{1, 2} {
			rw.RLock(tid)
			m.Read(tid, 5)
			rw.RUnlock(tid)
		}
	})
}

func TestRWMutexReadersThenWriter(t *testing.T) {
	underEveryPolicy(t, 0, "reads then write", func(m *fasttrack.Monitor) {
		rw := NewRWMutex(m, 1)
		m.Fork(0, 1)
		m.Fork(0, 2)
		rw.Lock(0)
		m.Write(0, 5)
		rw.Unlock(0)
		rw.RLock(1)
		m.Read(1, 5)
		rw.RUnlock(1)
		rw.RLock(2)
		m.Read(2, 5)
		rw.RUnlock(2)
		// The writer must be ordered after BOTH readers.
		rw.Lock(0)
		m.Write(0, 5)
		rw.Unlock(0)
	})
}

func TestRWMutexCatchesReaderWriting(t *testing.T) {
	// A thread writing under only a read lock races with another reader's
	// read: read critical sections are unordered.
	underEveryPolicy(t, 1, "write under read lock", func(m *fasttrack.Monitor) {
		rw := NewRWMutex(m, 1)
		m.Fork(0, 1)
		rw.RLock(0)
		m.Write(0, 5) // bug: write under read lock
		rw.RUnlock(0)
		rw.RLock(1)
		m.Read(1, 5)
		rw.RUnlock(1)
	})
}

func TestRWMutexCatchesUnprotectedAccess(t *testing.T) {
	underEveryPolicy(t, 1, "unprotected read", func(m *fasttrack.Monitor) {
		rw := NewRWMutex(m, 1)
		m.Fork(0, 1)
		rw.Lock(0)
		m.Write(0, 5)
		rw.Unlock(0)
		m.Read(1, 5) // no lock at all
	})
}

func TestTwoRWMutexesAreIndependent(t *testing.T) {
	underEveryPolicy(t, 1, "cross-mutex accesses", func(m *fasttrack.Monitor) {
		a := NewRWMutex(m, 1)
		b := NewRWMutex(m, 2)
		m.Fork(0, 1)
		a.Lock(0)
		m.Write(0, 5)
		a.Unlock(0)
		b.Lock(1) // different lock: no ordering
		m.Write(1, 5)
		b.Unlock(1)
	})
}

func TestSemaphoreHandoff(t *testing.T) {
	underEveryPolicy(t, 0, "semaphore handoff", func(m *fasttrack.Monitor) {
		sem := NewSemaphore(m, 3)
		m.Fork(0, 1)
		m.Write(0, 5)
		sem.Release(0)
		sem.Acquire(1)
		m.Read(1, 5)
	})
}

func TestSemaphoreWithoutHandoffRaces(t *testing.T) {
	underEveryPolicy(t, 1, "acquire before release", func(m *fasttrack.Monitor) {
		sem := NewSemaphore(m, 3)
		m.Fork(0, 1)
		m.Write(0, 5)
		sem.Acquire(1) // acquire BEFORE the release: no edge
		sem.Release(0)
		m.Read(1, 5)
	})
}

func TestLatchWaitGroupPattern(t *testing.T) {
	underEveryPolicy(t, 0, "waitgroup pattern", func(m *fasttrack.Monitor) {
		latch := NewLatch(m, 9)
		m.Fork(0, 1)
		m.Fork(0, 2)
		// Workers produce, count down.
		m.Write(1, 1)
		latch.CountDown(1)
		m.Write(2, 2)
		latch.CountDown(2)
		// Main awaits, then reads everything.
		latch.Await(0)
		m.Read(0, 1)
		m.Read(0, 2)
	})
}

func TestLatchMissingCountDownRaces(t *testing.T) {
	underEveryPolicy(t, 1, "missing countdown", func(m *fasttrack.Monitor) {
		latch := NewLatch(m, 9)
		m.Fork(0, 1)
		m.Write(1, 1) // worker never counts down
		latch.Await(0)
		m.Read(0, 1)
	})
}

func TestOncePublication(t *testing.T) {
	underEveryPolicy(t, 0, "once publication", func(m *fasttrack.Monitor) {
		once := NewOnce(m, 4)
		m.Fork(0, 1)
		m.Write(0, 5) // initialize
		once.Ran(0)
		once.Observed(1)
		m.Read(1, 5)
	})
}

func TestChannelSendRecv(t *testing.T) {
	underEveryPolicy(t, 0, "buffered channel handoff", func(m *fasttrack.Monitor) {
		ch := NewChannel(m, 6, 4)
		m.Fork(0, 1)
		m.Write(0, 5)
		ch.Send(0)
		ch.Recv(1)
		m.Read(1, 5)
	})
}

func TestUnbufferedChannelBackEdge(t *testing.T) {
	// For unbuffered channels a receive happens before the send
	// completes, so the sender may read what the receiver wrote before
	// receiving. (The send event is recorded pre-operation, so a send
	// whose receive has not been recorded yet is a send still blocked in
	// the rendezvous; a later send is ordered after that receive.)
	underEveryPolicy(t, 0, "unbuffered back edge", func(m *fasttrack.Monitor) {
		ch := NewChannel(m, 6, 0)
		m.Fork(0, 1)
		m.Write(1, 5) // receiver's earlier write
		ch.Recv(1)
		ch.Send(0) // send completion ordered after the receive
		m.Read(0, 5)
	})

	// With a buffered channel the same schedule has no back edge: the
	// send completes without waiting for any receive.
	underEveryPolicy(t, 1, "buffered has no back edge", func(m2 *fasttrack.Monitor) {
		ch2 := NewChannel(m2, 6, 4)
		m2.Fork(0, 1)
		m2.Write(1, 5)
		ch2.Recv(1)
		ch2.Send(0)
		m2.Read(0, 5)
	})
}

func TestChannelWithoutRecvRaces(t *testing.T) {
	underEveryPolicy(t, 1, "read without receive", func(m *fasttrack.Monitor) {
		ch := NewChannel(m, 6, 4)
		m.Fork(0, 1)
		m.Write(0, 5)
		ch.Send(0)
		m.Read(1, 5) // forgot to receive first
	})
}

// TestBufferedChannelSlackRace is the regression test for the
// capacity-aware model: with capacity 2, two sends complete without any
// receive, so the receiver's earlier write is NOT ordered before the
// sender's later access. The old capacity-unaware encoding ordered
// every send after every prior receive and silently masked this race.
func TestBufferedChannelSlackRace(t *testing.T) {
	underEveryPolicy(t, 1, "buffered slack race", func(m *fasttrack.Monitor) {
		ch := NewChannel(m, 6, 2)
		m.Fork(0, 1)
		ch.Send(0)
		m.Write(1, 5) // receiver-side write, before its receive
		ch.Recv(1)
		ch.Send(0) // send 2 ≤ capacity: completes without the receive
		m.Read(0, 5)
	})

	// Same schedule on an unbuffered channel: send 2 waited for recv 1,
	// so the write is ordered and no race is reported.
	underEveryPolicy(t, 0, "unbuffered same schedule", func(m2 *fasttrack.Monitor) {
		ch2 := NewChannel(m2, 6, 0)
		m2.Fork(0, 1)
		ch2.Send(0)
		m2.Write(1, 5)
		ch2.Recv(1)
		ch2.Send(0)
		m2.Read(0, 5)
	})
}

// TestChannelCloseEdges: close happens before a receive observing the
// closed channel, and a receive of a value sent before the close is not
// ordered after the close.
func TestChannelCloseEdges(t *testing.T) {
	underEveryPolicy(t, 0, "close publication", func(m *fasttrack.Monitor) {
		ch := NewChannel(m, 6, 4)
		m.Fork(0, 1)
		ch.Send(0)
		m.Write(0, 5)
		ch.Close(0)
		ch.Recv(1) // drains the buffered value: not ordered after the close
		ch.Recv(1) // observes closed: ordered after the close
		m.Read(1, 5)
	})

	underEveryPolicy(t, 1, "pre-close receive is not ordered", func(m2 *fasttrack.Monitor) {
		ch2 := NewChannel(m2, 6, 4)
		m2.Fork(0, 1)
		ch2.Send(0)
		m2.Write(0, 5)
		ch2.Close(0)
		ch2.Recv(1) // value sent before the write; no edge from the close
		m2.Read(1, 5)
	})
}

func TestCyclicBarrierPhases(t *testing.T) {
	underEveryPolicy(t, 0, "cyclic barrier phases", func(m *fasttrack.Monitor) {
		bar := NewCyclicBarrier(m, 2, 2)
		m.Fork(0, 1)
		// Phase 1: each thread writes its own cell.
		m.Write(0, 10)
		m.Write(1, 11)
		bar.Await(0)
		bar.Await(1) // generation completes: release emitted
		// Phase 2: read each other's cells — ordered by the barrier.
		m.Read(0, 11)
		m.Read(1, 10)
		// Reuse: another generation.
		m.Write(0, 12)
		m.Write(1, 13)
		bar.Await(1)
		bar.Await(0)
		m.Read(0, 13)
		m.Read(1, 12)
	})
}

func TestCyclicBarrierMissingAwaitRaces(t *testing.T) {
	underEveryPolicy(t, 1, "missing await", func(m *fasttrack.Monitor) {
		bar := NewCyclicBarrier(m, 2, 2)
		m.Fork(0, 1)
		m.Write(1, 10)
		bar.Await(0)
		// Thread 1 never awaited: its write is unordered with thread 0's
		// post-barrier read.
		m.Read(0, 10)
	})
}

func TestCyclicBarrierPanicsOnBadParties(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for parties < 1")
		}
	}()
	NewCyclicBarrier(monitor(fasttrack.PolicyOff), 1, 0)
}

func TestPrimitivesShareMonitorWithoutCollisions(t *testing.T) {
	// Different primitive kinds with the same numeric id must not alias.
	races := underEveryPolicy(t, 1, "shared ids", func(m *fasttrack.Monitor) {
		rw := NewRWMutex(m, 7)
		sem := NewSemaphore(m, 7)
		latch := NewLatch(m, 7)
		m.Fork(0, 1)
		rw.Lock(0)
		m.Write(0, 5)
		rw.Unlock(0)
		sem.Release(0) // must not publish the rw unlock again...
		latch.CountDown(0)
		// Thread 1 syncs only through the semaphore; variable 6 was
		// written under rw by thread 0 AFTER the semaphore release, so
		// reading it must race.
		m.Write(0, 6)
		sem.Acquire(1)
		m.Read(1, 5) // ordered: write happened before sem.Release
		m.Read(1, 6) // races: write after the release
	})
	if len(races) != 1 || races[0].Var != 6 {
		t.Errorf("races = %v, want exactly one on x6", races)
	}
}
