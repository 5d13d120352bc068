package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// maxLine bounds one text line, terminator included, so input without
// newlines fails instead of growing a buffer without limit.
const maxLine = 16 << 20

// Scanner reads a trace incrementally from a reader, auto-detecting the
// text or binary format, so arbitrarily long traces can be analyzed
// without being memory-resident. It is the only decoder of both formats;
// ReadText and ReadBinary are loops over it. A binary event that lies
// whole in the read buffer is decoded in place from the buffer; one that
// does not (the last bytes of a buffer fill, a barrier) or that fails a
// check is read byte by byte, so every error comes from that one path.
// The zero value is not usable; call NewScanner, and Reset to reuse a
// Scanner and its buffer on another input.
type Scanner struct {
	src     *countingReader
	br      *bufio.Reader
	format  Format
	started bool
	lineno  int
	index   int
	err     error
	cur     Event
}

// countingReader counts bytes handed to the buffering layer so the
// scanner can report byte offsets: consumed = read - still buffered.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// NewScanner returns a scanner over r.
func NewScanner(r io.Reader) *Scanner {
	cr := &countingReader{r: r}
	return &Scanner{src: cr, br: bufio.NewReaderSize(cr, 1<<16)}
}

// Reset makes the scanner read r from its start, as NewScanner(r) would,
// while keeping its read buffer: the format is detected afresh, and
// Index, Offset and Err start over. Input still buffered from the
// previous reader is discarded.
func (s *Scanner) Reset(r io.Reader) {
	s.src.r, s.src.n = r, 0
	s.br.Reset(s.src)
	*s = Scanner{src: s.src, br: s.br}
}

// Offset returns the number of input bytes consumed so far: after a
// successful Scan it is the offset just past the returned event, and
// after a failed Scan it positions the error in the byte stream. Binary
// decode errors carry it as their "at byte" position.
func (s *Scanner) Offset() int64 { return s.src.n - int64(s.br.Buffered()) }

// start detects the format from the first bytes of input, once.
func (s *Scanner) start() error {
	if s.started {
		return s.err
	}
	s.started = true
	isBin, err := sniff(s.br)
	if err == nil && isBin {
		s.format = Binary
		_, err = s.br.Discard(len(binaryMagic))
	}
	s.err = err
	return err
}

// sniff reports whether the reader starts with the binary magic, without
// consuming input.
func sniff(r *bufio.Reader) (binaryFormat bool, err error) {
	head, err := r.Peek(len(binaryMagic))
	if err != nil && err != io.EOF {
		return false, err
	}
	return string(head) == binaryMagic, nil
}

// Scan advances to the next event; it returns false at end of input or
// on error (check Err).
func (s *Scanner) Scan() bool {
	if s.err != nil || s.start() != nil {
		return false
	}
	if s.format == Binary && s.br.Buffered() >= maxEventLen && s.scanBuffered() {
		s.index++
		return true
	}
	var (
		e   Event
		err error
	)
	if s.format == Binary {
		e, err = s.scanBinary()
	} else {
		e, err = s.scanText()
	}
	if err != nil {
		if !errors.Is(err, io.EOF) {
			s.err = err
		}
		return false
	}
	s.cur = e
	s.index++
	return true
}

// Event returns the event read by the last successful Scan.
func (s *Scanner) Event() Event { return s.cur }

// Index returns the number of events scanned so far (the last event's
// position is Index()-1).
func (s *Scanner) Index() int { return s.index }

// Err returns the first error encountered (nil at clean end of input).
func (s *Scanner) Err() error { return s.err }

func (s *Scanner) scanText() (Event, error) {
	for {
		line, err := s.readLine()
		if len(line) == 0 && err != nil {
			return Event{}, err
		}
		s.lineno++
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 || trimmed[0] == '#' {
			if err != nil {
				return Event{}, err
			}
			continue
		}
		e, perr := parseLine(string(trimmed))
		if perr != nil {
			return Event{}, fmt.Errorf("trace: line %d: %w", s.lineno, perr)
		}
		return e, nil
	}
}

// readLine returns the next line, terminator included, failing once it
// grows past maxLine. A short line is a view into the read buffer, valid
// until the next read.
func (s *Scanner) readLine() ([]byte, error) {
	line, err := s.br.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	var long []byte
	for {
		long = append(long, line...)
		if len(long) > maxLine {
			return nil, fmt.Errorf("trace: line %d: longer than %d bytes", s.lineno+1, maxLine)
		}
		if err != bufio.ErrBufferFull {
			return long, err
		}
		line, err = s.br.ReadSlice('\n')
	}
}

// parseLine decodes one trimmed, non-comment text line.
func parseLine(line string) (Event, error) {
	fields := strings.Fields(line)
	kind, ok := KindFromString(fields[0])
	if !ok {
		return Event{}, fmt.Errorf("unknown operation %q", clip(fields[0]))
	}
	var e Event
	e.Kind = kind

	parseTarget := func(s, sigil string) (uint64, error) {
		if !strings.HasPrefix(s, sigil) {
			return 0, fmt.Errorf("target %q must start with %q", clip(s), sigil)
		}
		return strconv.ParseUint(s[len(sigil):], 10, 64)
	}
	parseTid := func(s string) (int32, error) {
		n, err := strconv.ParseInt(s, 10, 32)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("bad thread id %q", clip(s))
		}
		return int32(n), nil
	}

	switch kind {
	case Read, Write, VolatileRead, VolatileWrite, Acquire, Release, Wait, Notify:
		if len(fields) != 3 {
			return Event{}, fmt.Errorf("%s needs 2 operands", kind)
		}
		tid, err := parseTid(fields[1])
		if err != nil {
			return Event{}, err
		}
		sigil := "x"
		switch kind {
		case VolatileRead, VolatileWrite:
			sigil = "v"
		case Acquire, Release, Wait, Notify:
			sigil = "m"
		}
		target, err := parseTarget(fields[2], sigil)
		if err != nil {
			return Event{}, err
		}
		e.Tid, e.Target = tid, target
	case Fork, Join:
		if len(fields) != 3 {
			return Event{}, fmt.Errorf("%s needs 2 operands", kind)
		}
		tid, err := parseTid(fields[1])
		if err != nil {
			return Event{}, err
		}
		u, err := parseTid(fields[2])
		if err != nil {
			return Event{}, err
		}
		e.Tid, e.Target = tid, uint64(u)
	case TxBegin, TxEnd:
		if len(fields) != 2 {
			return Event{}, fmt.Errorf("%s needs 1 operand", kind)
		}
		tid, err := parseTid(fields[1])
		if err != nil {
			return Event{}, err
		}
		e.Tid = tid
	case ChanSend, ChanRecv, ChanClose:
		if len(fields) != 4 {
			return Event{}, fmt.Errorf("%s needs 3 operands", kind)
		}
		tid, err := parseTid(fields[1])
		if err != nil {
			return Event{}, err
		}
		target, err := parseTarget(fields[2], "c")
		if err != nil {
			return Event{}, err
		}
		capv, err := strconv.ParseInt(fields[3], 10, 32)
		if err != nil || capv < 0 || int32(capv) > MaxChanCap {
			return Event{}, fmt.Errorf("bad channel capacity %q", clip(fields[3]))
		}
		e.Tid, e.Target, e.Cap = tid, target, int32(capv)
	case BarrierRelease:
		if len(fields) < 3 {
			return Event{}, fmt.Errorf("barrier needs an id and at least one thread")
		}
		target, err := parseTarget(fields[1], "b")
		if err != nil {
			return Event{}, err
		}
		e.Target = target
		for _, f := range fields[2:] {
			t, err := parseTid(f)
			if err != nil {
				return Event{}, err
			}
			e.Tids = append(e.Tids, t)
		}
	default:
		return Event{}, fmt.Errorf("unhandled operation %q", clip(fields[0]))
	}
	return e, nil
}

// clip shortens a token quoted in a parse error, so a malformed line of
// any length yields a short message.
func clip(s string) string {
	const max = 32
	if len(s) <= max {
		return s
	}
	return s[:max] + "..."
}

// maxEventLen bounds the encoding of a non-barrier binary event: a kind
// byte and at most three varints (thread, target, channel capacity).
const maxEventLen = 1 + 3*binary.MaxVarintLen64

func (s *Scanner) scanBinary() (Event, error) {
	start := s.Offset()
	kb, err := s.br.ReadByte()
	if err != nil {
		return Event{}, err // clean EOF at an event boundary
	}
	// From here on the event has started: a mid-event EOF is a truncation
	// and is reported with the position of the incomplete event.
	pos := func(err error) error {
		return fmt.Errorf("trace: event %d: %w (at byte %d)", s.index, noEOF(err), start)
	}
	if Kind(kb) >= numKinds {
		return Event{}, fmt.Errorf("trace: event %d: bad kind %d (at byte %d)", s.index, kb, start)
	}
	tid, err := binary.ReadUvarint(s.br)
	if err != nil {
		return Event{}, pos(err)
	}
	if tid > maxWireTid {
		return Event{}, fmt.Errorf("trace: event %d: thread id %d out of range [0, %d]", s.index, tid, maxWireTid)
	}
	target, err := binary.ReadUvarint(s.br)
	if err != nil {
		return Event{}, pos(err)
	}
	e := Event{Kind: Kind(kb), Tid: int32(tid), Target: target}
	if (e.Kind == Fork || e.Kind == Join) && target > maxWireTid {
		return Event{}, fmt.Errorf("trace: event %d: thread id %d out of range [0, %d]", s.index, target, maxWireTid)
	}
	if e.Kind == BarrierRelease {
		n, err := binary.ReadUvarint(s.br)
		if err != nil {
			return Event{}, pos(err)
		}
		if n == 0 {
			return Event{}, fmt.Errorf("trace: event %d: barrier with no participants", s.index)
		}
		if n > 1<<20 {
			return Event{}, fmt.Errorf("trace: event %d: absurd barrier size %d", s.index, n)
		}
		e.Tids = make([]int32, n)
		for i := range e.Tids {
			t, err := binary.ReadUvarint(s.br)
			if err != nil {
				return Event{}, pos(err)
			}
			if t > maxWireTid {
				return Event{}, fmt.Errorf("trace: event %d: thread id %d out of range [0, %d]", s.index, t, maxWireTid)
			}
			e.Tids[i] = int32(t)
		}
	}
	if e.Kind == ChanSend || e.Kind == ChanRecv || e.Kind == ChanClose {
		c, err := binary.ReadUvarint(s.br)
		if err != nil {
			return Event{}, pos(err)
		}
		if c > uint64(MaxChanCap) {
			return Event{}, fmt.Errorf("trace: event %d: channel capacity %d out of range [0, %d]", s.index, c, MaxChanCap)
		}
		e.Cap = int32(c)
	}
	return e, nil
}

// scanBuffered decodes one non-barrier event in place from the read
// buffer, which holds at least maxEventLen bytes, into s.cur, with the
// checks of scanBinary. It consumes nothing and reports false on a
// barrier or on any input scanBinary rejects, so that scanBinary decodes
// the event again and reports the error.
func (s *Scanner) scanBuffered() bool {
	b, _ := s.br.Peek(maxEventLen)
	k := Kind(b[0])
	if k >= numKinds || k == BarrierRelease {
		return false
	}
	tid, n := binary.Uvarint(b[1:])
	if n <= 0 || tid > maxWireTid {
		return false
	}
	used := 1 + n
	target, n := binary.Uvarint(b[used:])
	if n <= 0 || (k == Fork || k == Join) && target > maxWireTid {
		return false
	}
	used += n
	var c uint64
	if k == ChanSend || k == ChanRecv || k == ChanClose {
		c, n = binary.Uvarint(b[used:])
		if n <= 0 || c > uint64(MaxChanCap) {
			return false
		}
		used += n
	}
	s.br.Discard(used)
	s.cur = Event{Kind: k, Tid: int32(tid), Target: target, Cap: int32(c)}
	return true
}

// noEOF converts a mid-event EOF into an unexpected-EOF error so
// truncation is reported rather than treated as a clean end.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Format selects a trace encoding for the streaming writer.
type Format uint8

const (
	// Text is the human-editable line format.
	Text Format = iota
	// Binary is the compact varint format.
	Binary
)

// Writer encodes events incrementally; it is the only encoder of both
// formats, and WriteText and WriteBinary are loops over it. Flush must
// be called to drain the buffer.
type Writer struct {
	bw     *bufio.Writer
	format Format
	wrote  bool
	count  int
	buf    [binary.MaxVarintLen64]byte
}

// NewWriter returns a streaming trace writer in the given format.
func NewWriter(w io.Writer, format Format) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16), format: format}
}

// Reset makes the writer start a new trace on dst in the same format, as
// NewWriter(dst, format) would, while keeping its buffer. Output not yet
// flushed to the previous destination is discarded.
func (w *Writer) Reset(dst io.Writer) {
	w.bw.Reset(dst)
	w.wrote, w.count = false, 0
}

// Write appends one event. Events with thread ids that cannot round-trip
// through the codec are rejected with a positional error.
func (w *Writer) Write(e Event) error {
	if err := checkWireTids(w.count, e); err != nil {
		return err
	}
	w.count++
	if !w.wrote {
		w.wrote = true
		if w.format == Binary {
			if _, err := w.bw.WriteString(binaryMagic); err != nil {
				return err
			}
		}
	}
	if w.format == Text {
		if _, err := w.bw.WriteString(e.String()); err != nil {
			return err
		}
		return w.bw.WriteByte('\n')
	}
	if err := w.bw.WriteByte(byte(e.Kind)); err != nil {
		return err
	}
	if err := w.uvarint(uint64(e.Tid)); err != nil {
		return err
	}
	if err := w.uvarint(e.Target); err != nil {
		return err
	}
	if e.Kind == BarrierRelease {
		if err := w.uvarint(uint64(len(e.Tids))); err != nil {
			return err
		}
		for _, t := range e.Tids {
			if err := w.uvarint(uint64(t)); err != nil {
				return err
			}
		}
	}
	if e.Kind == ChanSend || e.Kind == ChanRecv || e.Kind == ChanClose {
		if err := w.uvarint(uint64(e.Cap)); err != nil {
			return err
		}
	}
	return nil
}

func (w *Writer) uvarint(x uint64) error {
	n := binary.PutUvarint(w.buf[:], x)
	_, err := w.bw.Write(w.buf[:n])
	return err
}

// Flush drains buffered output. An empty binary trace still gets its
// magic so the output is a valid trace file.
func (w *Writer) Flush() error {
	if !w.wrote && w.format == Binary {
		w.wrote = true
		if _, err := w.bw.WriteString(binaryMagic); err != nil {
			return err
		}
	}
	return w.bw.Flush()
}
