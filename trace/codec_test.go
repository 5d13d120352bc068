package trace

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleTrace() Trace {
	return Trace{
		ForkOf(0, 1),
		Event{Kind: TxBegin, Tid: 1},
		Wr(1, 3),
		Rd(1, 3),
		Acq(1, 0),
		Rel(1, 0),
		VWr(1, 2),
		VRd(0, 2),
		Event{Kind: Wait, Tid: 0, Target: 9},
		Event{Kind: Notify, Tid: 1, Target: 9},
		Barrier(4, 0, 1),
		ChSend(1, 5, 0),
		ChRecv(0, 5, 0),
		ChSend(1, 6, 3),
		ChClose(1, 6, 3),
		ChRecv(0, 6, 3),
		Event{Kind: TxEnd, Tid: 1},
		JoinOf(0, 1),
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, tr)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("round trip mismatch:\n got %v\nwant %v", got, tr)
	}
}

func TestReadTextCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\nrd 0 x1\n   \n# another\nwr 1 x2\n"
	tr, err := ReadText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := Trace{Rd(0, 1), Wr(1, 2)}
	if !reflect.DeepEqual(tr, want) {
		t.Errorf("got %v, want %v", tr, want)
	}
}

func TestReadTextErrors(t *testing.T) {
	cases := []string{
		"frobnicate 0 x1",            // unknown op
		"rd 0",                       // missing operand
		"rd 0 m1",                    // wrong sigil
		"rd zero x1",                 // bad tid
		"rd -1 x1",                   // negative tid
		"fork 0 x1",                  // fork target is a tid, not a var
		"barrier b0",                 // no participants
		"barrier x0 1",               // wrong sigil
		"txbegin 0 extra",            // too many operands
		"acq 0 m1 garbage",           // too many operands
		"chsend 0 c1",                // missing capacity
		"chrecv 0 x1 0",              // wrong sigil
		"chclose 0 c1 -1",            // negative capacity
		"chsend 0 c1 9999999",        // capacity above MaxChanCap
		binaryMagic + "\x00\x01\x03", // binary input
	}
	for _, in := range cases {
		if _, err := ReadText(strings.NewReader(in)); err == nil {
			t.Errorf("ReadText(%q) succeeded, want error", in)
		}
	}
}

func TestReadBinaryErrors(t *testing.T) {
	for _, in := range []string{"BOGUS\n", "", "rd 0 x1\n"} {
		if _, err := ReadBinary(strings.NewReader(in)); err == nil {
			t.Errorf("ReadBinary(%q) accepted input without the magic", in)
		}
	}
	if _, err := ReadBinary(strings.NewReader("FTRK1\n\xff")); err == nil {
		t.Error("bad kind accepted")
	}
	// Truncated event payload.
	var buf bytes.Buffer
	if err := WriteBinary(&buf, Trace{Rd(0, 1)}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(b[:len(b)-1])); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestSniff(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, Trace{Rd(0, 1)}); err != nil {
		t.Fatal(err)
	}
	isBin, err := sniff(bufio.NewReader(&buf))
	if err != nil || !isBin {
		t.Errorf("sniff(binary) = %v,%v", isBin, err)
	}
	isBin, err = sniff(bufio.NewReader(strings.NewReader("rd 0 x1\n")))
	if err != nil || isBin {
		t.Errorf("sniff(text) = %v,%v", isBin, err)
	}
	isBin, err = sniff(bufio.NewReader(strings.NewReader("")))
	if err != nil || isBin {
		t.Errorf("sniff(empty) = %v,%v", isBin, err)
	}
}

const goldenHex = "4654524b310a" + // magic
	"000103" + "0102ac02" + "020107" + "030107" + "040002" + "050002" +
	"060104" + "070204" + "080109" + "090209" + "0a000503" + "0001c801" +
	"0b0100" + "0c0100" + "0d010603" + "0e020603" + "0f010603"

const goldenText = `rd 1 x3
wr 2 x300
acq 1 m7
rel 1 m7
fork 0 2
join 0 2
vrd 1 v4
vwr 2 v4
wait 1 m9
notify 2 m9
barrier b5 0 1 200
txbegin 1
txend 1
chsend 1 c6 3
chrecv 2 c6 3
chclose 1 c6 3
`

// TestCodecGolden pins both encodings of a trace holding one event of
// every Kind, in Kind order, with multi-byte varints in the target, tid
// and barrier fields, and checks that every decoder reads each encoding
// back to the same events.
func TestCodecGolden(t *testing.T) {
	tr := Trace{
		Rd(1, 3),
		Wr(2, 300),
		Acq(1, 7),
		Rel(1, 7),
		ForkOf(0, 2),
		JoinOf(0, 2),
		VRd(1, 4),
		VWr(2, 4),
		{Kind: Wait, Tid: 1, Target: 9},
		{Kind: Notify, Tid: 2, Target: 9},
		Barrier(5, 0, 1, 200),
		{Kind: TxBegin, Tid: 1},
		{Kind: TxEnd, Tid: 1},
		ChSend(1, 6, 3),
		ChRecv(2, 6, 3),
		ChClose(1, 6, 3),
	}
	for i, e := range tr {
		if e.Kind != Kind(i) {
			t.Fatalf("golden event %d has kind %v, want %v", i, e.Kind, Kind(i))
		}
	}
	if len(tr) != int(numKinds) {
		t.Fatalf("golden trace covers %d kinds, want %d", len(tr), numKinds)
	}
	bin, err := hex.DecodeString(goldenHex)
	if err != nil {
		t.Fatal(err)
	}

	var bb, tb bytes.Buffer
	if err := WriteBinary(&bb, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bb.Bytes(), bin) {
		t.Errorf("WriteBinary = %x, want %x", bb.Bytes(), bin)
	}
	if err := WriteText(&tb, tr); err != nil {
		t.Fatal(err)
	}
	if tb.String() != goldenText {
		t.Errorf("WriteText =\n%s\nwant\n%s", tb.String(), goldenText)
	}

	for _, format := range []Format{Text, Binary} {
		in, read := []byte(goldenText), ReadText
		if format == Binary {
			in, read = bin, ReadBinary
		}
		got, err := read(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("format %d: %v", format, err)
		}
		if !reflect.DeepEqual(got, tr) {
			t.Errorf("format %d: Read decoded\n%v\nwant\n%v", format, got, tr)
		}
		if got := scanAll(t, NewScanner(bytes.NewReader(in))); !reflect.DeepEqual(got, tr) {
			t.Errorf("format %d: Scanner decoded\n%v\nwant\n%v", format, got, tr)
		}
	}
}

// randomTrace produces an arbitrary (not necessarily feasible) trace for
// codec round-trip property tests; codecs must not care about feasibility.
func randomTrace(rng *rand.Rand, n int) Trace {
	tr := make(Trace, n)
	for i := range tr {
		k := Kind(rng.Intn(int(numKinds)))
		e := Event{Kind: k, Tid: int32(rng.Intn(64)), Target: uint64(rng.Intn(1 << 16))}
		if k == TxBegin || k == TxEnd {
			e.Target = 0 // tx boundaries carry no target
		}
		if k == BarrierRelease {
			e.Tid = 0
			e.Tids = make([]int32, 1+rng.Intn(4))
			for j := range e.Tids {
				e.Tids[j] = int32(rng.Intn(64))
			}
		}
		if k == ChanSend || k == ChanRecv || k == ChanClose {
			e.Cap = int32(rng.Intn(8))
		}
		tr[i] = e
	}
	return tr
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomTrace(rng, int(size)%64+1)

		var tb, bb bytes.Buffer
		if err := WriteText(&tb, tr); err != nil {
			return false
		}
		fromText, err := ReadText(&tb)
		if err != nil {
			t.Logf("text decode: %v", err)
			return false
		}
		if err := WriteBinary(&bb, tr); err != nil {
			return false
		}
		fromBin, err := ReadBinary(&bb)
		if err != nil {
			t.Logf("binary decode: %v", err)
			return false
		}
		return reflect.DeepEqual(fromText, tr) && reflect.DeepEqual(fromBin, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBinaryIsSmallerThanText(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := randomTrace(rng, 4096)
	var tb, bb bytes.Buffer
	if err := WriteText(&tb, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bb, tr); err != nil {
		t.Fatal(err)
	}
	if bb.Len() >= tb.Len() {
		t.Errorf("binary (%d bytes) not smaller than text (%d bytes)", bb.Len(), tb.Len())
	}
}

// TestUnassignedKindRejected pins the forward-compatibility contract that
// let decoders built before the chan kinds reject them cleanly instead of
// misparsing: any kind byte >= numKinds fails decoding in both the batch
// reader and the scanner with a "bad kind" error.
func TestUnassignedKindRejected(t *testing.T) {
	in := append([]byte(binaryMagic), byte(numKinds), 0, 0)
	if _, err := ReadBinary(bytes.NewReader(in)); err == nil || !strings.Contains(err.Error(), "bad kind") {
		t.Errorf("ReadBinary(kind %d) = %v, want bad-kind error", numKinds, err)
	}
	sc := NewScanner(bytes.NewReader(in))
	for sc.Scan() {
	}
	if err := sc.Err(); err == nil || !strings.Contains(err.Error(), "bad kind") {
		t.Errorf("Scanner(kind %d) = %v, want bad-kind error", numKinds, err)
	}
	// And the text mnemonics for the chan kinds were never parseable by the
	// pre-chan grammar: KindFromString is the only gate, so misparsing was
	// impossible — an unknown mnemonic is a hard error.
	if _, err := ReadText(strings.NewReader("chbogus 0 c1 0\n")); err == nil {
		t.Error("unknown chan-like mnemonic accepted")
	}
}
