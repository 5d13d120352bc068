// Package rt is the runtime shim linked into programs instrumented by
// fasttrack/instrument: the rewriter injects calls to this package at
// every shared-memory access and synchronization operation, and the
// shim turns them into the detector's event stream.
//
// The shim owns four jobs:
//
//   - goroutine identity: goroutines are mapped to dense thread ids.
//     The instrumented go statement records the fork edge (Fork in the
//     parent, Begin in the child). A goroutine that appears without
//     one — the testing framework's, for example — is adopted with a
//     synthetic fork from the main thread. That fork orders it after
//     nothing else, so adoption can invent races: two sequential
//     TestXxx functions that touch one package variable are reported
//     as racing (see the instrument package's limitations). Looking
//     the calling goroutine up parses
//     runtime.Stack and costs microseconds, so the rewriter does it at
//     most once per function invocation: every instrumented function
//     declares a G handle, whose first record resolves the goroutine
//     and whose later records reuse it;
//   - batching: each goroutine buffers its memory accesses locally as
//     raw addresses and coalesces adjacent duplicates, flushing before
//     every synchronization event it emits. A buffered access may
//     drift relative to OTHER goroutines' accesses — a legal
//     reordering, accesses only synchronize through sync events — but
//     never across its own sync events. The access path takes no lock;
//   - densification: addresses, locks, channels and WaitGroups become
//     dense per-namespace ids under the one mutex that serializes the
//     stream, at the moment their event enters it, so ids are assigned
//     in stream order. Each namespace is an idTable, an open-addressing
//     hash table keyed by address;
//   - delivery: under the same mutex each event is encoded with
//     trace.AppendBinary straight into one stream buffer, which is
//     written to FASTTRACK_TRACE, a file or a pipe, whenever it holds
//     writeBytes and at Shutdown. racedetect run hands the program a
//     pipe and analyzes the stream as it arrives; the shim itself links
//     no detector, so the only repository package it imports is
//     fasttrack/trace.
package rt

import (
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"fasttrack/trace"
)

const (
	// flushThreshold bounds a goroutine's local access buffer.
	flushThreshold = 256
	// writeBytes is how much encoded stream the shim buffers before
	// writing it to the sink.
	writeBytes = 64 << 10
)

// access is one buffered memory access, still keyed by its raw address.
type access struct {
	addr uintptr
	kind trace.Kind
}

// gstate is one goroutine's shim state. It is only touched by its own
// goroutine (except at Shutdown, which runs after user goroutines are
// expected to have finished; stragglers lose buffered accesses, not
// correctness).
type gstate struct {
	tid int32
	buf []access
}

func newGstate(tid int32) *gstate {
	return &gstate{tid: tid, buf: make([]access, 0, flushThreshold)}
}

var (
	initOnce sync.Once
	goids    sync.Map // goroutine id -> *gstate

	// resolves counts goroutine lookups, the shim's slow path.
	resolves atomic.Int64

	mu      sync.Mutex // serializes the stream; guards everything below
	sink    io.WriteCloser
	out     []byte // the encoded stream not yet written to the sink
	encoded int    // events encoded so far
	nextTid int32
	varIDs  idTable
	lockIDs idTable
	volIDs  idTable
	chanIDs idTable
)

// goid returns the current goroutine's runtime id, parsed from the
// first stack line ("goroutine N [...]"). There is no public API for
// this; the parse is the standard fallback. runtime.Stack formats the
// whole stack, so a call costs several microseconds and about one more
// per frame between goid and the goroutine's entry — which is why G
// handles call it once per function invocation rather than once per
// record, from as few shim frames as possible.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// initShim sets up the sink from the environment on first use.
func initShim() {
	initOnce.Do(func() {
		s, err := newSink()
		if err != nil {
			fatal(err)
		}
		start(s)
	})
}

// start (re)initializes the shim onto sink s, with the calling
// goroutine as the main thread (tid 0).
func start(s io.WriteCloser) {
	mu.Lock()
	defer mu.Unlock()
	sink = s
	out = trace.AppendBinaryHeader(make([]byte, 0, 2*writeBytes))
	encoded = 0
	nextTid = 1
	varIDs = newIDTable()
	lockIDs = newIDTable()
	volIDs = newIDTable()
	chanIDs = newIDTable()
	goids.Range(func(k, _ any) bool {
		goids.Delete(k)
		return true
	})
	goids.Store(goid(), newGstate(0))
}

// Boot initializes the shim and returns the finalizer the instrumented
// main defers: it flushes every goroutine's buffer and closes the
// sink. Boot is also called by the generated TestMain.
func Boot() func() {
	initShim()
	return Shutdown
}

// Shutdown flushes all buffered events and finalizes the sink. Safe to
// call once; events arriving afterwards are dropped.
func Shutdown() {
	initShim()
	mu.Lock()
	goids.Range(func(_, v any) bool {
		flushLocked(v.(*gstate))
		return true
	})
	writeLocked(0)
	s := sink
	sink = nil
	mu.Unlock()
	if s != nil {
		if err := s.Close(); err != nil {
			fatal(err)
		}
	}
}

// fatal reports a failure to open or write the stream and ends the
// program: a stream with a gap would be analyzed as a different
// execution.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fasttrack/rt:", err)
	os.Exit(2)
}

// self returns the calling goroutine's state.
func self() *gstate { return lookup(goid()) }

// lookup returns the state of the calling goroutine, whose id is id,
// adopting unknown goroutines with a synthetic fork edge from the main
// thread (see the package comment). Only the calling goroutine
// registers its own id, so a miss cannot race with another
// registration.
func lookup(id int64) *gstate {
	initShim()
	resolves.Add(1)
	if v, ok := goids.Load(id); ok {
		return v.(*gstate)
	}
	mu.Lock()
	g := newGstate(nextTid)
	nextTid++
	emit(trace.ForkOf(0, g.tid))
	goids.Store(id, g)
	unlock()
	return g
}

// lock takes the stream mutex and moves g's buffered accesses into the
// stream first: every sync event starts with it, which keeps a
// goroutine's accesses ahead of its own next sync event.
func (g *gstate) lock() {
	mu.Lock()
	flushLocked(g)
}

// unlock writes the stream buffer to the sink once it holds writeBytes
// and releases the stream mutex.
func unlock() {
	writeLocked(writeBytes)
	mu.Unlock()
}

// writeLocked writes the stream buffer to the sink if it holds at least
// atLeast bytes. After Shutdown the stream is dropped. Caller holds mu.
func writeLocked(atLeast int) {
	if len(out) < atLeast || len(out) == 0 {
		return
	}
	if sink != nil {
		if _, err := sink.Write(out); err != nil {
			fatal(fmt.Errorf("trace write: %w", err))
		}
	}
	out = out[:0]
}

// emit appends e to the stream buffer. Caller holds mu.
func emit(e trace.Event) {
	var err error
	if out, err = trace.AppendBinary(out, encoded, e); err != nil {
		fatal(err)
	}
	encoded++
}

// flushLocked appends g's buffered accesses to the stream, giving each
// address its dense variable id. Caller holds mu.
func flushLocked(g *gstate) {
	b := out // emit, inlined to store out once per flush
	for _, a := range g.buf {
		var err error
		if b, err = trace.AppendBinary(b, encoded, trace.Event{Kind: a.kind, Tid: g.tid, Target: varIDs.id(a.addr)}); err != nil {
			fatal(err)
		}
		encoded++
	}
	out = b
	g.buf = g.buf[:0]
}

// volID maps a pointer to a volatile id, with room for two volatiles
// per object (the RWMutex reader/writer pair, the WaitGroup latch).
// Caller holds mu.
func volID(p uintptr, side uint64) uint64 {
	return volIDs.id(p)<<1 | side
}

// record buffers one access, coalescing an immediate duplicate (same
// kind, same address: tight loops over one location).
func (g *gstate) record(p uintptr, k trace.Kind) {
	a := access{p, k}
	if n := len(g.buf); n > 0 && g.buf[n-1] == a {
		return
	}
	g.buf = append(g.buf, a)
	if len(g.buf) >= flushThreshold {
		g.lock()
		unlock()
	}
}

// ptrOf extracts the pointer identity of p (a pointer, channel, map,
// or other reference value).
func ptrOf(p any) uintptr { return reflect.ValueOf(p).Pointer() }

// G is a goroutine handle: the instrumented code of one function
// invocation records through it. A function invocation runs on exactly
// one goroutine, so the first record resolves the goroutine and
// every later one reuses it. The zero value is ready to use; a G must
// not be shared between invocations.
type G struct{ g *gstate }

func (h *G) get() *gstate {
	if h.g == nil {
		h.g = lookup(goid()) // not self(): one frame fewer under goid
	}
	return h.g
}

// R records a read of the location *p.
func (h *G) R(p any) { h.get().record(ptrOf(p), trace.Read) }

// W records a write of the location *p.
func (h *G) W(p any) { h.get().record(ptrOf(p), trace.Write) }

// Fork allocates a thread id for a goroutine about to start and records
// the fork edge. The rewriter evaluates Fork in the parent, before the
// go statement, and passes the result to Begin inside the child.
func (h *G) Fork() int32 {
	g := h.get()
	g.lock()
	child := nextTid
	nextTid++
	emit(trace.ForkOf(g.tid, child))
	unlock()
	return child
}

// Acquire records that the caller acquired the mutex at p. The rewriter
// places it after the real Lock returns.
func (h *G) Acquire(p any) {
	g, a := h.get(), ptrOf(p)
	g.lock()
	emit(trace.Acq(g.tid, lockIDs.id(a)))
	unlock()
}

// Release records that the caller is releasing the mutex at p. The
// rewriter places it before the real Unlock.
func (h *G) Release(p any) {
	g, a := h.get(), ptrOf(p)
	g.lock()
	emit(trace.Rel(g.tid, lockIDs.id(a)))
	unlock()
}

// RAcquire records a read-lock acquisition of the RWMutex at p: the
// reader is ordered after the last write-unlock (modeled as a volatile
// read of the writer-release volatile). Placed after the real RLock.
func (h *G) RAcquire(p any) {
	g, a := h.get(), ptrOf(p)
	g.lock()
	emit(trace.VRd(g.tid, volID(a, 0)))
	unlock()
}

// RRelease records a read-unlock of the RWMutex at p: later write-locks
// are ordered after it (a volatile write of the reader-release
// volatile). Placed before the real RUnlock.
func (h *G) RRelease(p any) {
	g, a := h.get(), ptrOf(p)
	g.lock()
	emit(trace.VWr(g.tid, volID(a, 1)))
	unlock()
}

// AcquireRW records a write-lock acquisition of the RWMutex at p: mutual
// exclusion plus ordering after every reader's unlock. Placed after the
// real Lock.
func (h *G) AcquireRW(p any) {
	g, a := h.get(), ptrOf(p)
	g.lock()
	emit(trace.Acq(g.tid, lockIDs.id(a)))
	emit(trace.VRd(g.tid, volID(a, 0)))
	emit(trace.VRd(g.tid, volID(a, 1)))
	unlock()
}

// ReleaseRW records a write-unlock of the RWMutex at p. Placed before
// the real Unlock.
func (h *G) ReleaseRW(p any) {
	g, a := h.get(), ptrOf(p)
	g.lock()
	emit(trace.VWr(g.tid, volID(a, 0)))
	emit(trace.Rel(g.tid, lockIDs.id(a)))
	unlock()
}

// WGDone records a WaitGroup count-down at p: a volatile write every
// later Wait is ordered after (the paper's latch model — exact for the
// final Wait). Placed before the real Done.
func (h *G) WGDone(p any) {
	g, a := h.get(), ptrOf(p)
	g.lock()
	emit(trace.VWr(g.tid, volID(a, 0)))
	unlock()
}

// WGWait records that a Wait on the WaitGroup at p returned. Placed
// after the real Wait.
func (h *G) WGWait(p any) {
	g, a := h.get(), ptrOf(p)
	g.lock()
	emit(trace.VRd(g.tid, volID(a, 0)))
	unlock()
}

// OnceDo records a sync.Once.Do completion as an acquire/release pair
// on a dedicated lock: every Do is ordered after every earlier Do,
// which covers the initializer-publication edge (and over-orders
// observers among themselves — conservative, never a false alarm).
// Placed after the real Do returns.
func (h *G) OnceDo(p any) {
	g, a := h.get(), ptrOf(p)
	g.lock()
	l := lockIDs.id(a)
	emit(trace.Acq(g.tid, l))
	emit(trace.Rel(g.tid, l))
	unlock()
}

// chanEvent records one channel operation of kind k on ch; every
// channel event carries the channel's capacity.
func (h *G) chanEvent(ch any, k trace.Kind) {
	g, v := h.get(), reflect.ValueOf(ch)
	p, capacity := v.Pointer(), int32(v.Cap())
	g.lock()
	emit(trace.Event{Kind: k, Tid: g.tid, Target: chanIDs.id(p), Cap: capacity})
	unlock()
}

// ChanSend records a send on ch. The rewriter places it before the real
// send, so the k-th send event precedes the k-th receive event in the
// serialized stream (a blocked send has already recorded its event).
func (h *G) ChanSend(ch any) { h.chanEvent(ch, trace.ChanSend) }

// ChanRecv records a receive from ch. Placed after the real receive
// completes. Select-statement sends are also recorded post-operation
// (the rewriter cannot interpose before a select commits), which can
// order a chrecv before its chsend in the stream; the detector's
// accumulator fallback keeps that sound.
func (h *G) ChanRecv(ch any) { h.chanEvent(ch, trace.ChanRecv) }

// ChanClose records a close of ch. Placed before the real close.
func (h *G) ChanClose(ch any) { h.chanEvent(ch, trace.ChanClose) }

// Begin registers the calling goroutine under the thread id its parent
// forked for it.
func Begin(tid int32) {
	initShim()
	goids.Store(goid(), newGstate(tid))
}

// End flushes the goroutine's remaining buffered accesses and retires
// its registration, so that goids does not grow with every goroutine
// the program ever started. (The runtime never reuses a goroutine id:
// each comes from a monotonic counter; only the g structs are reused.)
func End() {
	initShim()
	if v, ok := goids.LoadAndDelete(goid()); ok {
		v.(*gstate).lock()
		unlock()
	}
}

// The one-shot forms below resolve the calling goroutine on every call
// (in their own frame, see goid); instrumented code records through a
// G instead.

// R records a read of the location *p.
func R(p any) { (&G{self()}).R(p) }

// W records a write of the location *p.
func W(p any) { (&G{self()}).W(p) }

// Fork records a fork edge from the caller; see G.Fork.
func Fork() int32 { return (&G{self()}).Fork() }

// Acquire records that the caller acquired the mutex at p.
func Acquire(p any) { (&G{self()}).Acquire(p) }

// Release records that the caller is releasing the mutex at p.
func Release(p any) { (&G{self()}).Release(p) }
