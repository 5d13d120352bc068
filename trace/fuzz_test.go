package trace

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/iotest"
)

// FuzzReadText: arbitrary text input must never panic, and anything that
// parses must round-trip through the writer byte-identically after one
// normalization pass.
func FuzzReadText(f *testing.F) {
	f.Add("rd 0 x1\nwr 1 x2\n")
	f.Add("# comment\nacq 0 m1\nrel 0 m1\n")
	f.Add("barrier b0 0 1 2\nfork 0 1\njoin 0 1\n")
	f.Add("txbegin 0\nvrd 1 v2\nvwr 1 v2\ntxend 0\n")
	f.Add("wait 0 m1\nnotify 0 m1\n")
	f.Add("chsend 0 c1 0\nchrecv 1 c1 0\nchclose 0 c1 0\n")
	f.Add("chsend 0 c2 3\nchrecv 1 c2 3\n")
	f.Add("rd")
	f.Add("rd 0 x99999999999999999999")
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := ReadText(bytes.NewReader([]byte(in)))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteText(&out, tr); err != nil {
			t.Fatalf("WriteText on parsed trace: %v", err)
		}
		tr2, err := ReadText(&out)
		if err != nil {
			t.Fatalf("re-parse of written trace: %v", err)
		}
		if len(tr) != len(tr2) || (len(tr) > 0 && !reflect.DeepEqual(tr, tr2)) {
			t.Fatalf("round trip changed trace:\n%v\n%v", tr, tr2)
		}
	})
}

// FuzzReadBinary: arbitrary bytes must never panic or over-allocate; any
// trace that decodes must re-encode and decode identically.
func FuzzReadBinary(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteBinary(&seed, Trace{Rd(0, 1), Barrier(0, 0, 1), ForkOf(0, 1)})
	f.Add(seed.Bytes())
	var chseed bytes.Buffer
	_ = WriteBinary(&chseed, Trace{ChSend(0, 1, 2), ChRecv(1, 1, 2), ChClose(0, 1, 2)})
	f.Add(chseed.Bytes())
	f.Add([]byte("FTRK1\n"))
	f.Add([]byte("FTRK1\n\x00\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, tr); err != nil {
			t.Fatalf("WriteBinary on decoded trace: %v", err)
		}
		tr2, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-decode: %v", err)
		}
		if len(tr) != len(tr2) || (len(tr) > 0 && !reflect.DeepEqual(tr, tr2)) {
			t.Fatalf("round trip changed trace")
		}
	})
}

// FuzzScannerMatchesBatch: the streaming scanner and the batch readers
// must accept the same inputs and produce the same events.
func FuzzScannerMatchesBatch(f *testing.F) {
	f.Add("rd 0 x1\nwr 1 x2\nbarrier b0 0 1\n")
	f.Add("bogus\n")
	f.Fuzz(func(t *testing.T, in string) {
		batch, batchErr := ReadText(bytes.NewReader([]byte(in)))
		sc := NewScanner(bytes.NewReader([]byte(in)))
		var streamed Trace
		for sc.Scan() {
			streamed = append(streamed, sc.Event())
		}
		if (batchErr == nil) != (sc.Err() == nil) {
			t.Fatalf("acceptance differs: batch=%v scanner=%v", batchErr, sc.Err())
		}
		if batchErr == nil && len(batch) != len(streamed) {
			t.Fatalf("event counts differ: %d vs %d", len(batch), len(streamed))
		}
	})
}

// scanned is everything a Scanner reports over one input: each event
// with the Index and Offset after it, then the final Index, Offset and
// error.
type scanned struct {
	events  Trace
	indexes []int
	offsets []int64
	index   int
	offset  int64
	err     string
}

func scanRecord(sc *Scanner) scanned {
	var r scanned
	for sc.Scan() {
		r.events = append(r.events, sc.Event())
		r.indexes = append(r.indexes, sc.Index())
		r.offsets = append(r.offsets, sc.Offset())
	}
	r.index, r.offset = sc.Index(), sc.Offset()
	if err := sc.Err(); err != nil {
		r.err = err.Error()
	}
	return r
}

// FuzzScannerFastMatchesSlow: the in-place decode of events that lie
// whole in the read buffer must agree with the byte-by-byte decode on
// every input, error and position included. Each input is decoded as the
// body of a binary trace twice: from a bytes.Reader, so whole events sit
// in the buffer, and through iotest.OneByteReader, so the buffer never
// holds a whole event and only the byte-by-byte path runs. A Scanner
// Reset after reading another input must match a fresh one, and a Writer
// Reset after writing must produce the bytes a fresh Writer does.
func FuzzScannerFastMatchesSlow(f *testing.F) {
	for _, tr := range []Trace{
		{Rd(0, 1), Wr(1, 1<<40), Acq(2, 3), Rel(2, 3), ForkOf(0, 1<<31-1), JoinOf(0, 5)},
		{Barrier(7, 0, 1, 2), VRd(3, 4), VWr(3, 4), {Kind: TxBegin, Tid: 1}, {Kind: TxEnd, Tid: 1}},
		{ChSend(0, 1, 2), ChRecv(1, 1, 2), ChClose(0, 1, MaxChanCap), {Kind: Wait, Target: 1}, {Kind: Notify, Target: 1}},
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()[len(binaryMagic):])
	}
	f.Add([]byte{byte(Read), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, 1})
	f.Add([]byte{byte(Fork), 0, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{byte(ChanSend), 0, 1, 0xff, 0xff, 0xff, 0x0f})
	f.Add([]byte{byte(numKinds), 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		data := append([]byte(binaryMagic), in...)
		fast := scanRecord(NewScanner(bytes.NewReader(data)))
		slow := scanRecord(NewScanner(iotest.OneByteReader(bytes.NewReader(data))))
		if !reflect.DeepEqual(fast, slow) {
			t.Fatalf("in-place and byte-by-byte decodes differ:\n%+v\n%+v", fast, slow)
		}

		sc := NewScanner(bytes.NewReader(in))
		sc.Scan()
		sc.Reset(bytes.NewReader(data))
		if reset := scanRecord(sc); !reflect.DeepEqual(reset, fast) {
			t.Fatalf("Reset scanner differs from a fresh one:\n%+v\n%+v", reset, fast)
		}

		for _, format := range []Format{Text, Binary} {
			var want, got, old bytes.Buffer
			fresh := NewWriter(&want, format)
			w := NewWriter(&old, format)
			w.Write(Rd(0, 1))
			w.Reset(&got)
			for _, e := range fast.events {
				if err := fresh.Write(e); err != nil {
					t.Fatal(err)
				}
				if err := w.Write(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := fresh.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) || old.Len() != 0 {
				t.Fatalf("format %d: Reset writer wrote %q (and %q before Reset), fresh writer %q",
					format, got.Bytes(), old.Bytes(), want.Bytes())
			}
		}
	})
}

// fuzzEvents reads an event sequence from arbitrary bytes: per event a
// kind byte, a thread id, a target, a channel capacity and, for a
// barrier, up to three participants. Every field takes any value of its
// type, so out-of-range tids, targets and capacities occur.
func fuzzEvents(in []byte) []Event {
	next := func(n int) uint64 {
		var x uint64
		for i := 0; i < n && len(in) > 0; i++ {
			x = x<<8 | uint64(in[0])
			in = in[1:]
		}
		return x
	}
	var evs []Event
	for len(in) > 0 {
		e := Event{Kind: Kind(next(1) % uint64(numKinds)), Tid: int32(next(4)), Target: next(8), Cap: int32(next(4))}
		if e.Kind == BarrierRelease {
			for n := next(1) % 4; n > 0; n-- {
				e.Tids = append(e.Tids, int32(next(4)))
			}
		}
		evs = append(evs, e)
	}
	return evs
}

// FuzzAppendMatchesWriter: for any event sequence, AppendBinaryHeader
// and AppendBinary build the bytes a binary Writer writes, and reject
// the same events with the same error, appending nothing for them.
func FuzzAppendMatchesWriter(f *testing.F) {
	f.Add([]byte{byte(Read), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0})
	f.Add([]byte{byte(Fork), 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, byte(ChanSend), 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 2})
	f.Add([]byte{byte(BarrierRelease), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 2})
	f.Add([]byte{byte(Write), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0})
	f.Add([]byte{byte(Join), 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		var written bytes.Buffer
		w := NewWriter(&written, Binary)
		appended := AppendBinaryHeader(nil)
		n := 0
		for _, e := range fuzzEvents(in) {
			werr := w.Write(e)
			next, aerr := AppendBinary(appended, n, e)
			if (werr == nil) != (aerr == nil) || werr != nil && werr.Error() != aerr.Error() {
				t.Fatalf("event %v: Writer error %v, AppendBinary error %v", e, werr, aerr)
			}
			if aerr != nil && len(next) != len(appended) {
				t.Fatalf("event %v: AppendBinary appended %d bytes and failed", e, len(next)-len(appended))
			}
			if aerr == nil {
				n++
			}
			appended = next
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(written.Bytes(), appended) {
			t.Fatalf("Writer wrote\n%x\nAppendBinary built\n%x", written.Bytes(), appended)
		}
	})
}

// chunkReader hands out at most n bytes per Read, so events straddle
// the ends of the scanner's buffer fills.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// FuzzScanBatchMatchesScan: draining an input with ScanBatch in calls
// of max events gives what a loop of Scan calls gives: after every call
// the same events, Index, Offset, Event and Err text. The input is read
// both as the body of a binary trace and as it is (so text and inputs
// without the magic run too), through reads of chunk bytes, so batches
// stop at events cut by a buffer fill as well as at barriers and errors.
func FuzzScanBatchMatchesScan(f *testing.F) {
	var full []byte
	for _, tr := range []Trace{
		{Rd(0, 1), Wr(1, 1<<40), Acq(2, 3), Rel(2, 3), ForkOf(0, 1<<31-1), JoinOf(0, 5)},
		{Rd(0, 1), Barrier(7, 0, 1, 2), VRd(3, 4), Barrier(1<<33, 5), VWr(3, 4), {Kind: TxBegin, Tid: 1}},
		{ChSend(0, 1, 2), ChRecv(1, 1, 2), ChClose(0, 1, MaxChanCap), {Kind: Wait, Target: 1}, {Kind: Notify, Target: 1}},
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			f.Fatal(err)
		}
		body := buf.Bytes()[len(binaryMagic):]
		full = append(full, body...)
		f.Add(body, uint8(3), uint8(64))
		f.Add(body[:len(body)-1], uint8(2), uint8(5)) // cut inside the last event
	}
	f.Add(full, uint8(0), uint8(7))
	f.Add(full, uint8(255), uint8(1))
	f.Add([]byte{byte(Read), 0, 1, byte(Read), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02, 1}, uint8(4), uint8(3))
	f.Add([]byte{byte(Write), 0, 2, byte(numKinds), 0, 0}, uint8(8), uint8(2))
	f.Add([]byte("rd 0 x1\nwr 1 x2\nbarrier b0 0 1\nbogus\n"), uint8(2), uint8(9))
	f.Fuzz(func(t *testing.T, in []byte, max, chunk uint8) {
		for _, data := range [][]byte{append([]byte(binaryMagic), in...), in} {
			n := int(chunk) + 1
			batch := NewScanner(chunkReader{bytes.NewReader(data), n})
			each := NewScanner(chunkReader{bytes.NewReader(data), n})
			mark := Event{Kind: TxEnd, Tid: 99}
			if got := batch.ScanBatch([]Event{mark}, 0); len(got) != 1 || batch.Index() != 0 || batch.Offset() != 0 {
				t.Fatalf("ScanBatch(dst, 0) returned %d events and moved to index %d, offset %d", len(got)-1, batch.Index(), batch.Offset())
			}
			for call := 0; ; call++ {
				got := batch.ScanBatch([]Event{mark}, int(max))
				if !reflect.DeepEqual(got[0], mark) {
					t.Fatalf("call %d overwrote dst[0]: %v", call, got[0])
				}
				var want []Event
				for len(want) < int(max) && each.Scan() {
					want = append(want, each.Event())
				}
				if len(got)-1 != len(want) || len(want) > 0 && !reflect.DeepEqual(got[1:], want) {
					t.Fatalf("call %d: ScanBatch gave %v, Scan gave %v", call, got[1:], want)
				}
				if batch.Index() != each.Index() || batch.Offset() != each.Offset() {
					t.Fatalf("call %d: ScanBatch at index %d offset %d, Scan at index %d offset %d",
						call, batch.Index(), batch.Offset(), each.Index(), each.Offset())
				}
				if !reflect.DeepEqual(batch.Event(), each.Event()) {
					t.Fatalf("call %d: Event %v after ScanBatch, %v after Scan", call, batch.Event(), each.Event())
				}
				if fmt.Sprint(batch.Err()) != fmt.Sprint(each.Err()) {
					t.Fatalf("call %d: Err %v after ScanBatch, %v after Scan", call, batch.Err(), each.Err())
				}
				if len(want) < int(max) || max == 0 {
					break
				}
			}
		}
	})
}
