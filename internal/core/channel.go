package core

import "fasttrack/internal/vc"

// This file implements the channel happens-before rules of the Go memory
// model (DESIGN.md §14), the first-class replacement for the volatile
// encoding syncmodel.Channel used before the chsend/chrecv/chclose trace
// kinds existed:
//
//	[CH SEND k]   C_t := C_t ⊔ Recv_{k-C}   (k > C)   — the k-th receive
//	              Send_k := C_t; C_t := inc_t(C_t)      happens before the
//	                                                    (k+C)-th send
//	[CH RECV k]   C_t := C_t ⊔ Send_k                 — the k-th send
//	              (⊔ Close if k > sends at close)       happens before the
//	              Recv_k := C_t; C_t := inc_t(C_t)      k-th receive
//	[CH CLOSE]    Close := C_t; C_t := inc_t(C_t)     — close happens
//	                                                    before any receive
//	                                                    observing closed
//
// Send_k/Recv_k are per-operation clock snapshots kept in seq-tagged
// rings sized to the channel capacity. A capacity-0 channel keeps the
// conservative accumulation semantics of the old unbuffered encoding
// (every send joins all prior receives and vice versa), which for a
// rendezvous channel coincides with the exact rules up to edges already
// implied by the strict send/recv alternation.
//
// Feasible event streams (the shim records sends pre-operation and
// receives post-operation, so chsend k always precedes chrecv k) keep
// every ring slot live until its unique consumer; streams that overflow
// a ring — hostile traces, or many senders pre-recording concurrently —
// degrade gracefully: the evicted clock folds into a per-direction
// accumulator that the consumer joins instead, which can only
// over-order (missed races), never invent a race.

// chanRingMax bounds the per-channel ring slots: a hostile trace naming
// capacity MaxChanCap must not force a million clock slots per channel.
const chanRingMax = 1024

// chanSlot is one ring entry: the clock snapshot of operation number
// seq (1-based). seq == 0 marks a free or consumed slot; the clock's
// backing array stays for reuse.
type chanSlot struct {
	seq uint64
	clk vc.VC
}

// chanState is the detector's per-channel synchronization state.
type chanState struct {
	capacity int32
	sends    uint64 // chsend events seen
	recvs    uint64 // chrecv events seen

	closed       bool
	sendsAtClose uint64
	closeClk     vc.VC

	// Capacity 0: conservative accumulators (the old unbuffered
	// semantics). Capacity > 0: exact per-operation rings, with the
	// accumulators as eviction fallback.
	sendAcc  vc.VC
	recvAcc  vc.VC
	sendRing []chanSlot
	recvRing []chanSlot
}

// chanRingSize picks the ring size for a channel: enough slots that a
// feasible stream never evicts (outstanding sends can run ahead of
// receives by the capacity plus a few concurrently pre-recording
// senders), bounded by chanRingMax.
func chanRingSize(capacity int32) int {
	n := int(capacity) + 8
	if n > chanRingMax {
		n = chanRingMax
	}
	return n
}

// chanOf returns channel ch's state, materializing it on first use. The
// capacity is fixed by the first event naming the channel; later events
// carry the same value in any well-formed stream (the shim derives both
// from the same make(chan) site) and are ignored if they disagree.
func (d *Detector) chanOf(ch uint64, capacity int32) *chanState {
	if d.chans == nil {
		d.chans = make(map[uint64]*chanState)
	}
	cs := d.chans[ch]
	if cs == nil {
		if capacity < 0 {
			capacity = 0
		}
		cs = &chanState{capacity: capacity}
		if capacity > 0 {
			n := chanRingSize(capacity)
			cs.sendRing = make([]chanSlot, n)
			cs.recvRing = make([]chanSlot, n)
		}
		d.chans[ch] = cs
	}
	return cs
}

// ringPut snapshots clock c as operation seq into the ring, folding any
// still-unconsumed previous occupant into the fallback accumulator.
func (d *Detector) ringPut(ring []chanSlot, seq uint64, c vc.VC, acc *vc.VC) {
	slot := &ring[seq%uint64(len(ring))]
	if slot.seq != 0 {
		d.accJoin(acc, slot.clk)
	}
	if slot.clk == nil {
		slot.clk = d.pool.Get(len(c))
		d.st.VCAlloc++
	}
	slot.clk = slot.clk.CopyInto(c)
	slot.seq = seq
	d.st.VCOp++
}

// ringTake returns operation seq's snapshot and marks the slot
// consumed, or nil when the entry was evicted (or never recorded).
func ringTake(ring []chanSlot, seq uint64) vc.VC {
	slot := &ring[seq%uint64(len(ring))]
	if slot.seq != seq {
		return nil
	}
	slot.seq = 0
	return slot.clk
}

// accJoin folds c into the accumulator, materializing it from the pool
// on first use.
func (d *Detector) accJoin(acc *vc.VC, c vc.VC) {
	if *acc == nil {
		*acc = d.pool.Get(len(c))
		d.st.VCAlloc++
	}
	*acc = (*acc).Join(c)
	d.st.VCOp++
}

// chanSend implements [CH SEND k] for send number k = sends+1.
func (d *Detector) chanSend(tid int32, ch uint64, capacity int32) {
	ts := d.thread(tid)
	cs := d.chanOf(ch, capacity)
	cs.sends++
	if cs.capacity == 0 {
		// Conservative rendezvous: the receive side's releases order this
		// send after every prior receive.
		if cs.recvAcc != nil {
			ts.c = ts.c.Join(cs.recvAcc)
			d.st.VCOp++
		}
		d.accJoin(&cs.sendAcc, ts.c)
	} else {
		if k := cs.sends; k > uint64(cs.capacity) {
			// The (k-C)-th receive happens before this send completes.
			if rc := ringTake(cs.recvRing, k-uint64(cs.capacity)); rc != nil {
				ts.c = ts.c.Join(rc)
				d.st.VCOp++
			} else if cs.recvAcc != nil {
				ts.c = ts.c.Join(cs.recvAcc)
				d.st.VCOp++
			}
		}
		d.ringPut(cs.sendRing, cs.sends, ts.c, &cs.sendAcc)
	}
	d.incThread(ts, vc.Tid(tid))
}

// chanRecv implements [CH RECV k] for receive number k = recvs+1.
func (d *Detector) chanRecv(tid int32, ch uint64, capacity int32) {
	ts := d.thread(tid)
	cs := d.chanOf(ch, capacity)
	cs.recvs++
	if cs.capacity == 0 {
		if cs.sendAcc != nil {
			ts.c = ts.c.Join(cs.sendAcc)
			d.st.VCOp++
		}
		if cs.closed && cs.closeClk != nil && cs.recvs > cs.sendsAtClose {
			ts.c = ts.c.Join(cs.closeClk)
			d.st.VCOp++
		}
		d.accJoin(&cs.recvAcc, ts.c)
	} else {
		// The k-th send happens before the k-th receive.
		if sc := ringTake(cs.sendRing, cs.recvs); sc != nil {
			ts.c = ts.c.Join(sc)
			d.st.VCOp++
		} else if cs.sendAcc != nil {
			ts.c = ts.c.Join(cs.sendAcc)
			d.st.VCOp++
		}
		// A receive past the values sent before close observes the closed
		// state, so the close happens before it.
		if cs.closed && cs.closeClk != nil && cs.recvs > cs.sendsAtClose {
			ts.c = ts.c.Join(cs.closeClk)
			d.st.VCOp++
		}
		d.ringPut(cs.recvRing, cs.recvs, ts.c, &cs.recvAcc)
	}
	d.incThread(ts, vc.Tid(tid))
}

// chanClose implements [CH CLOSE].
func (d *Detector) chanClose(tid int32, ch uint64, capacity int32) {
	ts := d.thread(tid)
	cs := d.chanOf(ch, capacity)
	if !cs.closed {
		cs.closed = true
		cs.sendsAtClose = cs.sends
	}
	if cs.closeClk == nil {
		cs.closeClk = d.pool.Get(len(ts.c))
		d.st.VCAlloc++
	}
	cs.closeClk = cs.closeClk.Join(ts.c)
	d.st.VCOp++
	if cs.capacity == 0 {
		// The conservative recv path joins only sendAcc; fold the close
		// clock in so a rendezvous receive after close observes it.
		d.accJoin(&cs.sendAcc, ts.c)
	}
	d.incThread(ts, vc.Tid(tid))
}

// chanBytes is the channel table's contribution to the shadow footprint.
func (d *Detector) chanBytes() int64 {
	var b int64
	for _, cs := range d.chans {
		b += 96 // struct + map entry overhead
		for i := range cs.sendRing {
			b += 16 + int64(cs.sendRing[i].clk.Bytes())
		}
		for i := range cs.recvRing {
			b += 16 + int64(cs.recvRing[i].clk.Bytes())
		}
		b += int64(cs.sendAcc.Bytes() + cs.recvAcc.Bytes() + cs.closeClk.Bytes())
	}
	return b
}

// ChanStateOf exposes channel ch's send/recv counters and closed flag
// for white-box tests.
func (d *Detector) ChanStateOf(ch uint64) (sends, recvs uint64, closed bool) {
	cs := d.chans[ch]
	if cs == nil {
		return 0, 0, false
	}
	return cs.sends, cs.recvs, cs.closed
}
