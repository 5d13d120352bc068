package trace

import (
	"bytes"
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
