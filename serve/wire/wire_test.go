package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"
)

func TestMatrixF64RoundTrip(t *testing.T) {
	rows := [][]float64{
		{1.5, -2.25, 3e-9},
		{0, math.Inf(1), -0.0},
	}
	buf, err := AppendMatrixF64(nil, rows, 3)
	if err != nil {
		t.Fatalf("AppendMatrixF64: %v", err)
	}
	d := NewDecoder(bytes.NewReader(buf))
	typ, err := d.Next()
	if err != nil || typ != TypeMatrixF64 {
		t.Fatalf("Next = %v, %v; want matrix-f64", typ, err)
	}
	r, c, err := d.MatrixDims()
	if err != nil || r != 2 || c != 3 {
		t.Fatalf("MatrixDims = %d, %d, %v; want 2, 3", r, c, err)
	}
	got := make([]float64, 3)
	for i := 0; i < r; i++ {
		if err := d.Floats(got); err != nil {
			t.Fatalf("Floats row %d: %v", i, err)
		}
		for j, v := range got {
			if v != rows[i][j] && !(math.IsNaN(v) && math.IsNaN(rows[i][j])) {
				t.Fatalf("row %d col %d = %v, want %v", i, j, v, rows[i][j])
			}
		}
	}
}

// TestFloatsDirectMatchesLoop decodes one f64 frame through the direct
// read into dst and through the per-element loop big-endian hosts run,
// chunk by chunk, and compares the two bit for bit on the values a byte
// copy could get wrong: NaN payloads (quiet and signaling, both signs),
// ±0, subnormals and ±Inf. Both paths must also refuse a read past the
// frame end alike.
func TestFloatsDirectMatchesLoop(t *testing.T) {
	bits := []uint64{
		0x7ff8000000000001, 0xfff8000000000bad, 0x7ff0000000000001, 0xfff4000000000000,
		0x0000000000000000, 0x8000000000000000,
		0x0000000000000001, 0x800fffffffffffff, 0x000ffffffffffffe,
		0x7ff0000000000000, 0xfff0000000000000,
		math.Float64bits(1.5), math.Float64bits(-3e-300),
	}
	row := make([]float64, len(bits))
	for i, b := range bits {
		row[i] = math.Float64frombits(b)
	}
	frame, err := AppendMatrixF64(nil, [][]float64{row, row}, len(row))
	if err != nil {
		t.Fatal(err)
	}
	decode := func(native bool) ([]float64, error) {
		defer func(was bool) { nativeLE = was }(nativeLE)
		nativeLE = native
		d := NewDecoder(bytes.NewReader(frame))
		if _, err := d.Next(); err != nil {
			return nil, err
		}
		r, c, err := d.MatrixDims()
		if err != nil {
			return nil, err
		}
		out := make([]float64, r*c)
		for lo := 0; lo < len(out); lo += 5 {
			if err := d.Floats(out[lo:min(lo+5, len(out))]); err != nil {
				return nil, err
			}
		}
		// The frame is spent: one more element crosses its end.
		if err := d.Floats(make([]float64, 1)); err == nil {
			t.Fatalf("native=%v: Floats read past the frame end", native)
		}
		return out, nil
	}
	direct, err := decode(true)
	if err != nil {
		t.Fatal(err)
	}
	loop, err := decode(false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range loop {
		want := bits[i%len(bits)]
		if got := math.Float64bits(loop[i]); got != want {
			t.Fatalf("loop element %d: %#x, want %#x", i, got, want)
		}
		if got := math.Float64bits(direct[i]); got != want {
			t.Fatalf("direct element %d: %#x, want %#x", i, got, want)
		}
	}
}

func TestMatrixF32RoundTripWidens(t *testing.T) {
	rows := [][]float64{{1.25, -3.5}, {0.0078125, 1e10}}
	buf, err := AppendMatrixF32(nil, rows, 2)
	if err != nil {
		t.Fatalf("AppendMatrixF32: %v", err)
	}
	d := NewDecoder(bytes.NewReader(buf))
	if typ, err := d.Next(); err != nil || typ != TypeMatrixF32 {
		t.Fatalf("Next = %v, %v; want matrix-f32", typ, err)
	}
	r, c, err := d.MatrixDims()
	if err != nil || r != 2 || c != 2 {
		t.Fatalf("MatrixDims = %d, %d, %v", r, c, err)
	}
	got := make([]float64, 4)
	if err := d.Floats(got[:2]); err != nil {
		t.Fatal(err)
	}
	if err := d.Floats(got[2:]); err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{1.25, -3.5, 0.0078125, float64(float32(1e10))} {
		if got[i] != want {
			t.Fatalf("element %d = %v, want %v", i, got[i], want)
		}
	}
}

func TestClassesRoundTrip(t *testing.T) {
	classes := []int{0, 7, -1, 1 << 20}
	buf := AppendClasses(nil, classes)
	d := NewDecoder(bytes.NewReader(buf))
	if typ, err := d.Next(); err != nil || typ != TypeClasses {
		t.Fatalf("Next = %v, %v; want classes", typ, err)
	}
	n, err := d.ClassCount()
	if err != nil || n != 4 {
		t.Fatalf("ClassCount = %d, %v; want 4", n, err)
	}
	got := make([]int, n)
	if err := d.Classes(got); err != nil {
		t.Fatal(err)
	}
	for i := range classes {
		if got[i] != classes[i] {
			t.Fatalf("class %d = %d, want %d", i, got[i], classes[i])
		}
	}
}

// TestReadClasses pins the one classes-frame reader: it returns a frame's
// classes and refuses a frame of another type or one cut short.
func TestReadClasses(t *testing.T) {
	classes := []int{3, 0, -2}
	frame := AppendClasses(nil, classes)
	got, err := ReadClasses(bytes.NewReader(frame))
	if err != nil || len(got) != len(classes) || got[0] != 3 || got[1] != 0 || got[2] != -2 {
		t.Fatalf("ReadClasses = %v, %v; want %v", got, err, classes)
	}
	for _, c := range []struct {
		name  string
		frame []byte
	}{
		{"learn frame", AppendLearn(nil, []float64{1}, 0)},
		{"truncated payload", frame[:len(frame)-2]},
		{"truncated header", frame[:HeaderSize-1]},
		{"empty body", nil},
	} {
		if got, err := ReadClasses(bytes.NewReader(c.frame)); err == nil {
			t.Errorf("%s: ReadClasses = %v, want an error", c.name, got)
		}
	}
}

func TestLearnRoundTrip(t *testing.T) {
	x := []float64{0.5, -1.5, 2.25}
	buf := AppendLearn(nil, x, 3)
	d := NewDecoder(bytes.NewReader(buf))
	if typ, err := d.Next(); err != nil || typ != TypeLearn {
		t.Fatalf("Next = %v, %v; want learn", typ, err)
	}
	label, cols, err := d.LearnHeader()
	if err != nil || label != 3 || cols != 3 {
		t.Fatalf("LearnHeader = %d, %d, %v; want 3, 3", label, cols, err)
	}
	got := make([]float64, cols)
	if err := d.Floats(got); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if got[i] != x[i] {
			t.Fatalf("feature %d = %v, want %v", i, got[i], x[i])
		}
	}
}

func TestFeedAckRoundTrip(t *testing.T) {
	for _, ack := range []FeedAck{
		{},
		{Correct: true, WindowAccuracy: 0.875},
		{Drift: true, RetrainStarted: true, WindowAccuracy: 0.5},
	} {
		buf := AppendFeedAck(nil, ack)
		d := NewDecoder(bytes.NewReader(buf))
		if typ, err := d.Next(); err != nil || typ != TypeFeedAck {
			t.Fatalf("Next = %v, %v; want feed-ack", typ, err)
		}
		got, err := d.FeedAck()
		if err != nil || got != ack {
			t.Fatalf("FeedAck = %+v, %v; want %+v", got, err, ack)
		}
	}
}

func TestRaggedRowRejected(t *testing.T) {
	if _, err := AppendMatrixF64(nil, [][]float64{{1, 2}, {3}}, 2); err == nil {
		t.Fatal("ragged f64 row accepted")
	}
	if _, err := AppendMatrixF32(nil, [][]float64{{1, 2}, {3}}, 2); err == nil {
		t.Fatal("ragged f32 row accepted")
	}
}

func TestDecoderRejectsMalformedHeaders(t *testing.T) {
	good, err := AppendMatrixF64(nil, [][]float64{{1}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(off int, v byte) []byte {
		b := bytes.Clone(good)
		b[off] = v
		return b
	}
	cases := map[string][]byte{
		"bad magic":        corrupt(0, 'X'),
		"bad version":      corrupt(4, 9),
		"bad type":         corrupt(5, 99),
		"reserved nonzero": corrupt(6, 1),
		"truncated header": good[:HeaderSize-3],
	}
	for name, b := range cases {
		d := NewDecoder(bytes.NewReader(b))
		if _, err := d.Next(); err == nil {
			t.Errorf("%s: Next accepted malformed header", name)
		}
	}
}

func TestDecoderRejectsOversizePayload(t *testing.T) {
	var b []byte
	b = appendHeader(b, TypeMatrixF64, int(DefaultMaxPayload)+1)
	d := NewDecoder(bytes.NewReader(b))
	if _, err := d.Next(); err == nil {
		t.Fatal("oversize payload declaration accepted")
	}
}

func TestDecoderRejectsDimPayloadMismatch(t *testing.T) {
	// Declared payload is too short for the claimed dimensions.
	var b []byte
	b = appendHeader(b, TypeMatrixF64, 8+8) // room for 1 element
	b = binary.LittleEndian.AppendUint32(b, 2)
	b = binary.LittleEndian.AppendUint32(b, 2) // claims 2x2
	b = binary.LittleEndian.AppendUint64(b, 0)
	d := NewDecoder(bytes.NewReader(b))
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.MatrixDims(); err == nil {
		t.Fatal("dimension/payload mismatch accepted")
	}
}

// TestDecoderRejectsZeroWidthRows pins the one shape whose payload cannot
// bound its row count: 2³²−1 rows of no columns need no payload bytes, and
// a caller sizing scratch by the row count would ask for gigabytes. An
// empty matrix (no rows) stays valid.
func TestDecoderRejectsZeroWidthRows(t *testing.T) {
	for _, c := range []struct {
		rows uint32
		ok   bool
	}{{0xffffffff, false}, {1, false}, {0, true}} {
		b := appendHeader(nil, TypeMatrixF64, 8)
		b = binary.LittleEndian.AppendUint32(b, c.rows)
		b = binary.LittleEndian.AppendUint32(b, 0)
		d := NewDecoder(bytes.NewReader(b))
		if _, err := d.Next(); err != nil {
			t.Fatal(err)
		}
		if _, _, err := d.MatrixDims(); (err == nil) != c.ok {
			t.Errorf("%dx0 matrix: err %v, want ok=%v", c.rows, err, c.ok)
		}
	}
}

func TestDecoderNeverCrossesFrameEnd(t *testing.T) {
	buf, err := AppendMatrixF64(nil, [][]float64{{1, 2}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Trailing garbage after the frame must stay unread.
	stream := append(bytes.Clone(buf), 0xde, 0xad)
	r := bytes.NewReader(stream)
	d := NewDecoder(r)
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.MatrixDims(); err != nil {
		t.Fatal(err)
	}
	row := make([]float64, 2)
	if err := d.Floats(row); err != nil {
		t.Fatal(err)
	}
	// Asking for more elements than the frame holds must error without
	// touching the trailing bytes.
	if err := d.Floats(row[:1]); err == nil {
		t.Fatal("read past frame end accepted")
	}
	if r.Len() != 2 {
		t.Fatalf("decoder consumed trailing bytes: %d left, want 2", r.Len())
	}
}

func TestDecoderEOFOnCleanEnd(t *testing.T) {
	d := NewDecoder(strings.NewReader(""))
	if _, err := d.Next(); err != io.EOF {
		t.Fatalf("Next on empty stream = %v, want io.EOF", err)
	}
}

// FuzzWireFrame feeds arbitrary bytes through the full decode surface and
// requires two invariants: no panic, and no read past the frame length the
// header declared. Well-formed prefixes decode; everything else errors.
func FuzzWireFrame(f *testing.F) {
	seed1, _ := AppendMatrixF64(nil, [][]float64{{1, 2}, {3, 4}}, 2)
	seed2, _ := AppendMatrixF32(nil, [][]float64{{-1, 0.5}}, 2)
	f.Add(seed1)
	f.Add(seed2)
	f.Add(AppendClasses(nil, []int{1, 2, 3}))
	f.Add(AppendLearn(nil, []float64{9, 8, 7}, 4))
	f.Add(AppendFeedAck(nil, FeedAck{Correct: true, WindowAccuracy: 0.75}))
	f.Add([]byte("DHDF"))
	f.Add(bytes.Repeat([]byte{0xff}, HeaderSize+4))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		d := NewDecoder(r)
		d.MaxPayload = 1 << 16 // keep scratch small under the fuzzer
		typ, err := d.Next()
		if err != nil {
			return
		}
		consumedMax := HeaderSize + int(d.remaining)
		switch typ {
		case TypeMatrixF64, TypeMatrixF32:
			rows, cols, err := d.MatrixDims()
			if err != nil {
				break
			}
			if rows > 0 && cols > 0 {
				row := make([]float64, cols)
				for i := 0; i < rows; i++ {
					if err := d.Floats(row); err != nil {
						break
					}
				}
			}
		case TypeClasses:
			n, err := d.ClassCount()
			if err != nil || n == 0 {
				break
			}
			if err := d.Classes(make([]int, n)); err != nil {
				break
			}
		case TypeLearn:
			_, cols, err := d.LearnHeader()
			if err != nil || cols == 0 {
				break
			}
			if err := d.Floats(make([]float64, cols)); err != nil {
				break
			}
		case TypeFeedAck:
			if _, err := d.FeedAck(); err != nil {
				break
			}
		}
		if consumed := len(data) - r.Len(); consumed > consumedMax {
			t.Fatalf("decoder consumed %d bytes, frame declared at most %d", consumed, consumedMax)
		}
	})
}
