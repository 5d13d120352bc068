package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestBinaryTruncationPositions cuts a binary encoding at every byte
// offset and checks the scanner's behavior: a cut at an event boundary
// is a clean end of input, and a mid-event cut reports the position of
// the incomplete event.
func TestBinaryTruncationPositions(t *testing.T) {
	tr := Trace{
		ForkOf(0, 1),
		Acq(1, 300), // multi-byte varint target
		Wr(1, 70000),
		Rel(1, 300),
		Barrier(9, 0, 1),
		JoinOf(0, 1),
	}
	encode := func(tr Trace) []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			t.Fatalf("WriteBinary: %v", err)
		}
		return buf.Bytes()
	}
	full := encode(tr)

	// boundary[k] is the offset just after the k'th complete event.
	boundary := map[int]int{}
	for k := 0; k <= len(tr); k++ {
		boundary[len(encode(tr[:k]))] = k
	}

	for cut := 0; cut <= len(full); cut++ {
		sc := NewScanner(bytes.NewReader(full[:cut]))
		n := 0
		for sc.Scan() {
			n++
		}
		err := sc.Err()
		if complete, ok := boundary[cut]; ok {
			if err != nil {
				t.Errorf("cut %d (boundary after event %d): unexpected error %v", cut, complete, err)
			}
			if n != complete {
				t.Errorf("cut %d: scanned %d events, want %d", cut, n, complete)
			}
			continue
		}
		if cut < len(binaryMagic) {
			// A cut inside the magic is not recognizably binary; the
			// scanner falls back to text mode and its errors (if any)
			// carry line positions instead. Only no-panic is asserted.
			continue
		}
		if err == nil {
			t.Errorf("cut %d (mid-event): no error after %d events", cut, n)
			continue
		}
		if want := fmt.Sprintf("event %d:", n); !strings.Contains(err.Error(), want) {
			t.Errorf("cut %d: error %q does not carry position %q", cut, err, want)
		}
	}
}

// TestWriteRejectsOutOfRangeTids is the regression test for the tid
// encoding asymmetry: tids that cannot round-trip through the binary
// varint encoding, and barriers with no participants (which the text
// grammar cannot spell), must be rejected at write time with the event's
// position, by both the batch writer and the streaming writer.
func TestWriteRejectsOutOfRangeTids(t *testing.T) {
	bad := []Trace{
		{Wr(0, 1), Wr(-3, 2)}, // negative tid
		{Wr(0, 1), Event{Kind: Fork, Tid: 0, Target: 1<<31 + 5}}, // forked tid > 2^31-1
		{Wr(0, 1), Event{Kind: Join, Tid: 0, Target: 1 << 40}},   // joined tid overflows int32
		{Wr(0, 1), Barrier(7, 0, -2)},                            // negative barrier participant
		{Wr(0, 1), Barrier(7)},                                   // barrier with no participants
		{Event{Kind: Read, Tid: -1, Target: 0}},                  // negative tid, first event
	}
	for i, tr := range bad {
		for _, format := range []Format{Text, Binary} {
			var buf bytes.Buffer
			var err error
			if format == Binary {
				err = WriteBinary(&buf, tr)
			} else {
				err = WriteText(&buf, tr)
			}
			if err == nil {
				t.Errorf("case %d (%v): batch write accepted out-of-range tid", i, format)
				continue
			}
			want := fmt.Sprintf("event %d:", len(tr)-1)
			if !strings.Contains(err.Error(), want) {
				t.Errorf("case %d (%v): error %q does not carry position %q", i, format, err, want)
			}

			buf.Reset()
			w := NewWriter(&buf, format)
			var werr error
			for _, e := range tr {
				if werr = w.Write(e); werr != nil {
					break
				}
			}
			if werr == nil {
				werr = w.Flush()
			}
			if werr == nil {
				t.Errorf("case %d (%v): streaming Writer accepted out-of-range tid", i, format)
			} else if !strings.Contains(werr.Error(), want) {
				t.Errorf("case %d (%v): streaming error %q does not carry position %q", i, format, werr, want)
			}
		}
	}
}

// TestReadRejectsOutOfRangeTids checks the read side: a forged binary
// stream carrying a tid beyond int32 is rejected with its position, not
// silently truncated into a different thread id, and so is a barrier
// with no participants.
func TestReadRejectsOutOfRangeTids(t *testing.T) {
	forge := func(kind byte, fields ...uint64) []byte {
		var buf bytes.Buffer
		buf.WriteString(string(binaryMagic))
		buf.WriteByte(kind)
		var tmp [10]byte
		for _, f := range fields {
			n := putUvarint(tmp[:], f)
			buf.Write(tmp[:n])
		}
		return buf.Bytes()
	}
	cases := [][]byte{
		forge(byte(Read), 1<<31, 5),          // tid just past the cap
		forge(byte(Fork), 0, 1<<31),          // forked tid past the cap
		forge(byte(Join), 0, 1<<40),          // joined tid far past the cap
		forge(byte(BarrierRelease), 0, 3, 0), // barrier with no participants
	}
	for i, raw := range cases {
		if _, err := ReadBinary(bytes.NewReader(raw)); err == nil {
			t.Errorf("case %d: ReadBinary accepted an out-of-range tid", i)
		}
		sc := NewScanner(bytes.NewReader(raw))
		for sc.Scan() {
		}
		err := sc.Err()
		if err == nil {
			t.Errorf("case %d: Scanner accepted an out-of-range tid", i)
		} else if !strings.Contains(err.Error(), "event 0:") {
			t.Errorf("case %d: error %q does not carry position", i, err)
		}
	}
}

func putUvarint(buf []byte, x uint64) int {
	i := 0
	for x >= 0x80 {
		buf[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	buf[i] = byte(x)
	return i + 1
}
