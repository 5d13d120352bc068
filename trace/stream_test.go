package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func scanAll(t *testing.T, r *Scanner) Trace {
	t.Helper()
	var tr Trace
	for r.Scan() {
		tr = append(tr, r.Event())
	}
	if err := r.Err(); err != nil {
		t.Fatalf("scan error: %v", err)
	}
	return tr
}

func TestScannerTextRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, NewScanner(&buf))
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("got %v, want %v", got, tr)
	}
}

func TestScannerBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	sc := NewScanner(&buf)
	got := scanAll(t, sc)
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("got %v, want %v", got, tr)
	}
	if sc.Index() != len(tr) {
		t.Errorf("Index = %d, want %d", sc.Index(), len(tr))
	}
}

func TestScannerSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\nrd 0 x1\n  # inline\nwr 1 x2"
	got := scanAll(t, NewScanner(strings.NewReader(in)))
	want := Trace{Rd(0, 1), Wr(1, 2)}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestScannerReportsErrors(t *testing.T) {
	sc := NewScanner(strings.NewReader("rd 0 x1\nbogus line\n"))
	if !sc.Scan() {
		t.Fatal("first event should scan")
	}
	if sc.Scan() {
		t.Fatal("bogus line should fail")
	}
	if sc.Err() == nil {
		t.Fatal("Err must report the parse failure")
	}
	if sc.Scan() {
		t.Fatal("scanner must stay failed")
	}
}

func TestScannerTruncatedBinary(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, Trace{Barrier(0, 0, 1)}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	sc := NewScanner(bytes.NewReader(b[:len(b)-1]))
	if sc.Scan() {
		t.Fatal("truncated event scanned")
	}
	if sc.Err() == nil {
		t.Fatal("truncation must surface as an error")
	}
}

func TestScannerEmptyInput(t *testing.T) {
	sc := NewScanner(strings.NewReader(""))
	if sc.Scan() {
		t.Fatal("empty input scanned")
	}
	if sc.Err() != nil {
		t.Fatalf("clean EOF reported as error: %v", sc.Err())
	}
}

func TestStreamingWriterMatchesBatchWriters(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := randomTrace(rng, 300)
	for _, f := range []Format{Text, Binary} {
		var streamed, batch bytes.Buffer
		w := NewWriter(&streamed, f)
		for _, e := range tr {
			if err := w.Write(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		var err error
		if f == Text {
			err = WriteText(&batch, tr)
		} else {
			err = WriteBinary(&batch, tr)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed.Bytes(), batch.Bytes()) {
			t.Errorf("format %d: streamed output differs from batch output", f)
		}
	}
}

func TestEmptyBinaryWriterStillValid(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Binary)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("empty binary trace unreadable: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("got %v", got)
	}
}

func TestValidatorIncrementalMatchesBatch(t *testing.T) {
	cases := []Trace{
		{ForkOf(0, 1), Wr(1, 1), JoinOf(0, 1)},
		{Acq(0, 1), Acq(0, 1)},
		{Rel(0, 1)},
		{ForkOf(0, 1), JoinOf(0, 1)},
	}
	for i, tr := range cases {
		batch := tr.Validate()
		v := NewValidator()
		var inc error
		for _, e := range tr {
			if inc = v.Event(e); inc != nil {
				break
			}
		}
		if (batch == nil) != (inc == nil) {
			t.Errorf("case %d: batch=%v incremental=%v", i, batch, inc)
		}
		if batch != nil && inc != nil && batch.Error() != inc.Error() {
			t.Errorf("case %d: messages differ: %q vs %q", i, batch, inc)
		}
	}
}

func TestValidatorIndexInErrors(t *testing.T) {
	v := NewValidator()
	if err := v.Event(Rd(0, 1)); err != nil {
		t.Fatal(err)
	}
	err := v.Event(Rel(0, 9))
	verr, ok := err.(*ValidationError)
	if !ok || verr.Index != 1 {
		t.Errorf("err = %v", err)
	}
}

func TestScannerOffsetBinary(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	total := int64(buf.Len())
	sc := NewScanner(bytes.NewReader(buf.Bytes()))
	if got := sc.Offset(); got != 0 {
		t.Errorf("Offset before first Scan = %d, want 0", got)
	}
	prev := int64(0)
	for sc.Scan() {
		off := sc.Offset()
		if off <= prev {
			t.Fatalf("Offset not strictly increasing: %d after %d (event %d)", off, prev, sc.Index()-1)
		}
		if off > total {
			t.Fatalf("Offset %d beyond input size %d", off, total)
		}
		prev = off
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if prev != total {
		t.Errorf("final Offset = %d, want %d (whole input consumed)", prev, total)
	}
}

func TestScannerOffsetText(t *testing.T) {
	in := "# comment\nwr 0 x1\n\nrd 1 x1\n"
	sc := NewScanner(strings.NewReader(in))
	var offs []int64
	for sc.Scan() {
		offs = append(offs, sc.Offset())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(offs) != 2 {
		t.Fatalf("scanned %d events, want 2", len(offs))
	}
	if offs[0] <= 0 || offs[1] <= offs[0] || offs[1] > int64(len(in)) {
		t.Errorf("offsets %v not increasing within input of %d bytes", offs, len(in))
	}
}

func TestScannerOffsetOnTruncation(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	cut := raw[:len(raw)-1] // tear the last event
	sc := NewScanner(bytes.NewReader(cut))
	for sc.Scan() {
	}
	err := sc.Err()
	if err == nil {
		t.Fatal("truncated stream scanned cleanly")
	}
	if !strings.Contains(err.Error(), "at byte") {
		t.Errorf("truncation error %q does not report a byte position", err)
	}
	if off := sc.Offset(); off > int64(len(cut)) {
		t.Errorf("Offset %d beyond truncated input size %d", off, len(cut))
	}
}

// fill yields n bytes of a repeated pattern, then EOF, so tests can feed
// the scanner huge inputs without holding them in memory.
type fill struct {
	pattern string
	n, off  int
}

func (f *fill) Read(p []byte) (int, error) {
	if f.n == 0 {
		return 0, io.EOF
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	for i := range p {
		p[i] = f.pattern[f.off]
		f.off = (f.off + 1) % len(f.pattern)
	}
	f.n -= len(p)
	return len(p), nil
}

// TestScannerLineLimit: the text decoder bounds a line at maxLine, and a
// parse error quotes only a short prefix of the offending token, so a
// stream without newlines fails fast with a short message.
func TestScannerLineLimit(t *testing.T) {
	check := func(name string, err error, wants ...string) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if len(err.Error()) >= 256 {
			t.Errorf("%s: error is %d bytes long, want < 256", name, len(err.Error()))
		}
		for _, w := range wants {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %.200q does not mention %q", name, err, w)
			}
		}
	}
	huge := func() io.Reader { return &fill{pattern: "a", n: 32 << 20} }
	sc := NewScanner(huge())
	for sc.Scan() {
	}
	check("Scanner, 32 MiB line", sc.Err(), "line 1", fmt.Sprint(maxLine))
	_, err := ReadText(huge())
	check("ReadText, 32 MiB line", err, "line 1", fmt.Sprint(maxLine))

	_, err = ReadText(io.MultiReader(&fill{pattern: "b", n: 1 << 20}, strings.NewReader(" 0 x1\n")))
	check("1 MiB operation", err, "line 1", "unknown operation")

	const n = 1 << 19 // " 0" per participant: a line of about 1 MiB
	tr, err := ReadText(io.MultiReader(strings.NewReader("rd 0 x1\nbarrier b0"),
		&fill{pattern: " 0", n: 2 * n}, strings.NewReader("\nwr 0 x1\n")))
	if err != nil {
		t.Fatalf("1 MiB barrier line: %v", err)
	}
	if len(tr) != 3 || len(tr[1].Tids) != n || !reflect.DeepEqual(tr[2], Wr(0, 1)) {
		t.Errorf("1 MiB barrier line decoded to %d events, want 3 with %d participants", len(tr), n)
	}
}

// BenchmarkScanFrame decodes a 1024-event binary trace the way the
// daemon decodes a wire frame: one Scanner, Reset per frame. The frame
// is accesses with a lock operation every 16 events.
func BenchmarkScanFrame(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := make(Trace, 1024)
	for i := range tr {
		tid, x := int32(rng.Intn(8)), uint64(rng.Intn(1<<16))
		switch {
		case i%16 == 15:
			tr[i] = Acq(tid, x)
		case rng.Intn(4) == 0:
			tr[i] = Wr(tid, x)
		default:
			tr[i] = Rd(tid, x)
		}
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		b.Fatal(err)
	}
	var rd bytes.Reader
	sc := NewScanner(&rd)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd.Reset(buf.Bytes())
		sc.Reset(&rd)
		for sc.Scan() {
		}
		if sc.Err() != nil || sc.Index() != 1024 {
			b.Fatalf("scanned %d events: %v", sc.Index(), sc.Err())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*1024), "ns/event")
}
