package trace

import (
	"fmt"
	"io"
)

// This file defines the two on-disk encodings for traces and the
// whole-trace helpers over them. Both formats have one implementation,
// in stream.go: Scanner is the only decoder, and Writer the only encoder,
// whose binary format is AppendBinary (the instrumented program's shim
// appends events with it directly).
//
// The text format is line-oriented and human-editable: one event per line,
// "<kind> <tid> <target>" with sigils on targets (x=variable, m=lock,
// v=volatile, b=barrier), e.g.
//
//	fork 0 1
//	wr 1 x3
//	rel 1 m0
//	barrier b0 0 1
//
// Blank lines and lines starting with '#' are ignored. A line may be at
// most maxLine bytes long.
//
// The binary format is a compact varint stream for large generated traces:
// the magic "FTRK1\n", then per event: kind byte, tid uvarint, target
// uvarint, and for BarrierRelease a count uvarint followed by the
// participant tids.

const binaryMagic = "FTRK1\n"

// maxWireTid is the largest thread id either codec accepts. Tids are
// int32 in memory; the binary format stores them as uvarints, so without
// this bound a tid >= 2^31 would silently truncate on decode and a
// negative tid would encode as a 10-byte varint that decodes to garbage.
// Both directions reject out-of-range tids with a positional error.
const maxWireTid = uint64(1<<31 - 1)

// checkWireTids rejects events that cannot round-trip through both
// formats: negative tids, fork/join targets or barrier participants
// outside the int32 range, barriers with no participants (the text
// grammar needs at least one), and chan capacities outside
// [0, MaxChanCap]. The index i positions the error in the stream.
func checkWireTids(i int, e Event) error {
	if e.Kind != BarrierRelease && e.Tid < 0 {
		return fmt.Errorf("trace: event %d: negative thread id %d", i, e.Tid)
	}
	switch e.Kind {
	case Fork, Join:
		if e.Target > maxWireTid {
			return fmt.Errorf("trace: event %d: thread id %d out of range [0, %d]", i, e.Target, maxWireTid)
		}
	case BarrierRelease:
		if len(e.Tids) == 0 {
			return fmt.Errorf("trace: event %d: barrier with no participants", i)
		}
		for _, t := range e.Tids {
			if t < 0 {
				return fmt.Errorf("trace: event %d: negative thread id %d", i, t)
			}
		}
	case ChanSend, ChanRecv, ChanClose:
		if e.Cap < 0 || e.Cap > MaxChanCap {
			return fmt.Errorf("trace: event %d: channel capacity %d out of range [0, %d]", i, e.Cap, MaxChanCap)
		}
	}
	return nil
}

// WriteText encodes the trace in the text format.
func WriteText(w io.Writer, tr Trace) error { return writeAll(w, tr, Text) }

// WriteBinary encodes the trace in the binary format.
func WriteBinary(w io.Writer, tr Trace) error { return writeAll(w, tr, Binary) }

// ReadText decodes a text-format trace. Binary input is rejected.
func ReadText(r io.Reader) (Trace, error) { return readAll(r, Text) }

// ReadBinary decodes a binary-format trace. Input that does not start
// with the binary magic, empty input included, is rejected.
func ReadBinary(r io.Reader) (Trace, error) { return readAll(r, Binary) }

func writeAll(w io.Writer, tr Trace, f Format) error {
	tw := NewWriter(w, f)
	for _, e := range tr {
		if err := tw.Write(e); err != nil {
			return err
		}
	}
	return tw.Flush()
}

func readAll(r io.Reader, f Format) (Trace, error) {
	sc := NewScanner(r)
	if err := sc.start(); err != nil {
		return nil, err
	}
	switch {
	case sc.format == f:
	case f == Binary:
		return nil, fmt.Errorf("trace: missing binary magic %q", binaryMagic)
	default:
		return nil, fmt.Errorf("trace: binary input to the text decoder")
	}
	var tr Trace
	for sc.Scan() {
		tr = append(tr, sc.Event())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return tr, nil
}
