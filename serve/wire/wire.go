// Package wire is the compact binary wire protocol the serving stack
// speaks alongside HTTP/JSON: versioned, little-endian, length-prefixed
// frames carrying float64/float32 row matrices, class IDs, and the online
// feedback exchange. A JSON /predict_batch body spends most of a request's
// budget parsing decimal floats and allocating row slices; a frame is the
// same matrix as raw IEEE-754 words, decodable straight into a replica's
// leased batch scratch.
//
// Frame layout (all integers little-endian):
//
//	offset size  field
//	0      4     magic "DHDF"
//	4      1     version (currently 1)
//	5      1     frame type (TypeMatrixF64, TypeClasses, ...)
//	6      2     reserved, must be zero
//	8      4     payload length in bytes
//	12     ...   payload
//
// Payloads by type:
//
//	TypeMatrixF64:  rows u32, cols u32, rows*cols float64
//	TypeMatrixF32:  rows u32, cols u32, rows*cols float32
//	TypeClasses:    count u32, count int32
//	TypeLearn:      label i32, cols u32, cols float64
//	TypeFeedAck:    flags u32 (bit0 correct, bit1 drift, bit2 retrain
//	                started), window accuracy float64
//
// HTTP requests and responses carrying a frame use Content-Type
// ContentType; errors are always answered as JSON with a non-2xx status,
// so a binary client distinguishes them by status code alone.
//
// The Decoder is streaming and hostile-input-safe: it validates the magic,
// version, type, and the exact payload length implied by the declared
// dimensions before touching any data, bounds the payload by MaxPayload,
// and never reads past the declared frame end — a truncated, corrupt, or
// oversized frame yields an error, never a panic or an over-read
// (FuzzWireFrame holds it to that).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// ContentType is the MIME type negotiating the frame protocol over HTTP:
// a request with this Content-Type carries a frame body, and the response
// mirrors the format.
const ContentType = "application/x-disthd-frame"

// Version is the protocol version this package encodes and accepts.
const Version = 1

// HeaderSize is the fixed size of a frame header in bytes.
const HeaderSize = 12

// DefaultMaxPayload is the payload bound a fresh Decoder enforces —
// deliberately the same 8 MiB the HTTP handlers put on JSON bodies, so
// neither wire format admits a larger request than the other.
const DefaultMaxPayload = 8 << 20

// magic identifies a DistHD frame; it never changes across versions.
var magic = [4]byte{'D', 'H', 'D', 'F'}

// Type tags a frame's payload encoding.
type Type uint8

// The frame types of protocol version 1.
const (
	// TypeMatrixF64 carries a row-major float64 matrix (a prediction
	// request batch).
	TypeMatrixF64 Type = 1
	// TypeMatrixF32 carries a row-major float32 matrix — the same request
	// at half the wire bytes, widened server-side.
	TypeMatrixF32 Type = 2
	// TypeClasses carries predicted class IDs as int32 (a prediction
	// response).
	TypeClasses Type = 3
	// TypeLearn carries one labeled feedback sample (a /learn request).
	TypeLearn Type = 4
	// TypeFeedAck carries the feedback ingestion outcome (a /learn
	// response).
	TypeFeedAck Type = 5
)

// valid reports whether t is a known version-1 frame type.
func (t Type) valid() bool { return t >= TypeMatrixF64 && t <= TypeFeedAck }

// String names the frame type for error messages.
func (t Type) String() string {
	switch t {
	case TypeMatrixF64:
		return "matrix-f64"
	case TypeMatrixF32:
		return "matrix-f32"
	case TypeClasses:
		return "classes"
	case TypeLearn:
		return "learn"
	case TypeFeedAck:
		return "feed-ack"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// FeedAck is the decoded TypeFeedAck payload — the binary mirror of the
// JSON /learn response.
type FeedAck struct {
	// Correct is whether the served model predicted the feedback label.
	Correct bool
	// Drift is whether the learner currently flags distribution drift.
	Drift bool
	// RetrainStarted is whether the ingestion kicked off a retrain.
	RetrainStarted bool
	// WindowAccuracy is the accuracy over the recent observation window.
	WindowAccuracy float64
}

// appendHeader writes a frame header for a payload of n bytes.
func appendHeader(dst []byte, t Type, n int) []byte {
	dst = append(dst, magic[0], magic[1], magic[2], magic[3], Version, byte(t), 0, 0)
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// AppendMatrixF64 appends a TypeMatrixF64 frame holding rows (each of
// width cols) to dst and returns the extended slice. It errors on a
// ragged row instead of writing a malformed frame.
func AppendMatrixF64(dst []byte, rows [][]float64, cols int) ([]byte, error) {
	for i, r := range rows {
		if len(r) != cols {
			return dst, fmt.Errorf("wire: row %d has %d values, want %d", i, len(r), cols)
		}
	}
	dst = appendHeader(dst, TypeMatrixF64, 8+len(rows)*cols*8)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rows)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cols))
	for _, r := range rows {
		for _, v := range r {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst, nil
}

// AppendMatrixF32 appends a TypeMatrixF32 frame holding rows (each of
// width cols), narrowing each value to float32 on the wire. It errors on
// a ragged row.
func AppendMatrixF32(dst []byte, rows [][]float64, cols int) ([]byte, error) {
	for i, r := range rows {
		if len(r) != cols {
			return dst, fmt.Errorf("wire: row %d has %d values, want %d", i, len(r), cols)
		}
	}
	dst = appendHeader(dst, TypeMatrixF32, 8+len(rows)*cols*4)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rows)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(cols))
	for _, r := range rows {
		for _, v := range r {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(v)))
		}
	}
	return dst, nil
}

// AppendClasses appends a TypeClasses frame holding the class IDs to dst.
func AppendClasses(dst []byte, classes []int) []byte {
	dst = appendHeader(dst, TypeClasses, 4+len(classes)*4)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(classes)))
	for _, c := range classes {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(c)))
	}
	return dst
}

// AppendLearn appends a TypeLearn frame holding one labeled feedback
// sample to dst.
func AppendLearn(dst []byte, x []float64, label int) []byte {
	dst = appendHeader(dst, TypeLearn, 8+len(x)*8)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(label)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(x)))
	for _, v := range x {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// AppendFeedAck appends a TypeFeedAck frame to dst.
func AppendFeedAck(dst []byte, ack FeedAck) []byte {
	dst = appendHeader(dst, TypeFeedAck, 12)
	var flags uint32
	if ack.Correct {
		flags |= 1
	}
	if ack.Drift {
		flags |= 2
	}
	if ack.RetrainStarted {
		flags |= 4
	}
	dst = binary.LittleEndian.AppendUint32(dst, flags)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(ack.WindowAccuracy))
}

// Decoder reads one frame from an untrusted stream. Create one with
// NewDecoder (or recycle via Reset), call Next to read and validate the
// header, then the payload accessors matching the returned Type. The
// decoder never reads past the declared payload length, so it is safe on
// a stream with trailing data.
type Decoder struct {
	// MaxPayload bounds the declared payload length; frames claiming more
	// are rejected before any payload is read. NewDecoder and Reset set it
	// to DefaultMaxPayload; adjust it before the first Next.
	MaxPayload uint32

	r         io.Reader
	typ       Type
	remaining uint32 // undelivered payload bytes of the current frame
	buf       []byte // scratch for wire-to-native conversion
}

// NewDecoder returns a Decoder reading from r with the default payload
// bound.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: r, MaxPayload: DefaultMaxPayload}
}

// Reset rebinds the decoder to a new stream, keeping its scratch buffer —
// the pooling hook the HTTP handlers use.
func (d *Decoder) Reset(r io.Reader) {
	d.r = r
	d.typ = 0
	d.remaining = 0
	d.MaxPayload = DefaultMaxPayload
}

// Next reads and validates the next frame header and returns its type.
// io.EOF is returned untouched when the stream ends cleanly before a
// header; any partial or invalid header is an error.
func (d *Decoder) Next() (Type, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, io.EOF
		}
		return 0, fmt.Errorf("wire: short frame header: %w", err)
	}
	if [4]byte(hdr[0:4]) != magic {
		return 0, fmt.Errorf("wire: bad magic %q", hdr[0:4])
	}
	if hdr[4] != Version {
		return 0, fmt.Errorf("wire: unsupported version %d (want %d)", hdr[4], Version)
	}
	t := Type(hdr[5])
	if !t.valid() {
		return 0, fmt.Errorf("wire: unknown frame type %d", hdr[5])
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return 0, errors.New("wire: reserved header bytes must be zero")
	}
	n := binary.LittleEndian.Uint32(hdr[8:12])
	if n > d.MaxPayload {
		return 0, fmt.Errorf("wire: frame payload %d exceeds bound %d", n, d.MaxPayload)
	}
	d.typ, d.remaining = t, n
	return t, nil
}

// elemSize returns the wire width of one matrix element for the current
// frame type, or 0 when the frame is not a matrix.
func (d *Decoder) elemSize() uint32 {
	switch d.typ {
	case TypeMatrixF64:
		return 8
	case TypeMatrixF32:
		return 4
	}
	return 0
}

// take reads exactly n payload bytes into the scratch buffer, enforcing
// the frame boundary.
func (d *Decoder) take(n uint32) ([]byte, error) {
	if n > d.remaining {
		return nil, fmt.Errorf("wire: frame has %d payload bytes left, need %d", d.remaining, n)
	}
	if uint32(cap(d.buf)) < n {
		d.buf = make([]byte, n)
	}
	b := d.buf[:n]
	if _, err := io.ReadFull(d.r, b); err != nil {
		return nil, fmt.Errorf("wire: truncated frame payload: %w", err)
	}
	d.remaining -= n
	return b, nil
}

// MatrixDims reads the dimension prefix of a matrix frame and verifies
// the declared payload length matches rows*cols elements exactly, so the
// payload bound bounds the row count callers size scratch by; rows of no
// columns, which carry no bytes, are refused. Next must have returned
// TypeMatrixF64 or TypeMatrixF32.
func (d *Decoder) MatrixDims() (rows, cols int, err error) {
	es := d.elemSize()
	if es == 0 {
		return 0, 0, fmt.Errorf("wire: frame %v is not a matrix", d.typ)
	}
	b, err := d.take(8)
	if err != nil {
		return 0, 0, err
	}
	r := binary.LittleEndian.Uint32(b[0:4])
	c := binary.LittleEndian.Uint32(b[4:8])
	if r > 0 && c == 0 {
		return 0, 0, fmt.Errorf("wire: matrix %dx0 has rows without columns", r)
	}
	if want := uint64(r) * uint64(c) * uint64(es); want != uint64(d.remaining) {
		return 0, 0, fmt.Errorf("wire: matrix %dx%d wants %d payload bytes, frame declares %d",
			r, c, want, d.remaining)
	}
	return int(r), int(c), nil
}

// Floats reads len(dst) matrix elements into dst, widening float32 wire
// values when the frame is TypeMatrixF32. Call it repeatedly to stream a
// large matrix chunk by chunk; it never crosses the frame end.
func (d *Decoder) Floats(dst []float64) error {
	es := d.elemSize()
	if es == 0 {
		return fmt.Errorf("wire: frame %v carries no float elements", d.typ)
	}
	b, err := d.take(uint32(len(dst)) * es)
	if err != nil {
		return err
	}
	if es == 8 {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		}
		return nil
	}
	for i := range dst {
		dst[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:])))
	}
	return nil
}

// ClassCount reads the count prefix of a TypeClasses frame and verifies
// the declared payload length matches it exactly.
func (d *Decoder) ClassCount() (int, error) {
	if d.typ != TypeClasses {
		return 0, fmt.Errorf("wire: frame %v is not a classes frame", d.typ)
	}
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n)*4 != uint64(d.remaining) {
		return 0, fmt.Errorf("wire: %d classes want %d payload bytes, frame declares %d",
			n, uint64(n)*4, d.remaining)
	}
	return int(n), nil
}

// Classes reads len(dst) class IDs into dst. ClassCount must have been
// read first.
func (d *Decoder) Classes(dst []int) error {
	b, err := d.take(uint32(len(dst)) * 4)
	if err != nil {
		return err
	}
	for i := range dst {
		dst[i] = int(int32(binary.LittleEndian.Uint32(b[i*4:])))
	}
	return nil
}

// LearnHeader reads the label and feature-count prefix of a TypeLearn
// frame, verifying the declared payload length carries exactly that many
// float64 values; read them with Floats.
func (d *Decoder) LearnHeader() (label, cols int, err error) {
	if d.typ != TypeLearn {
		return 0, 0, fmt.Errorf("wire: frame %v is not a learn frame", d.typ)
	}
	b, err := d.take(8)
	if err != nil {
		return 0, 0, err
	}
	label = int(int32(binary.LittleEndian.Uint32(b[0:4])))
	c := binary.LittleEndian.Uint32(b[4:8])
	if uint64(c)*8 != uint64(d.remaining) {
		return 0, 0, fmt.Errorf("wire: learn frame with %d features wants %d payload bytes, frame declares %d",
			c, uint64(c)*8, d.remaining)
	}
	// A learn frame streams like a one-row f64 matrix from here on.
	d.typ = TypeMatrixF64
	return label, int(c), nil
}

// FeedAck decodes a TypeFeedAck payload.
func (d *Decoder) FeedAck() (FeedAck, error) {
	if d.typ != TypeFeedAck {
		return FeedAck{}, fmt.Errorf("wire: frame %v is not a feed-ack frame", d.typ)
	}
	if d.remaining != 12 {
		return FeedAck{}, fmt.Errorf("wire: feed-ack payload is %d bytes, want 12", d.remaining)
	}
	b, err := d.take(12)
	if err != nil {
		return FeedAck{}, err
	}
	flags := binary.LittleEndian.Uint32(b[0:4])
	return FeedAck{
		Correct:        flags&1 != 0,
		Drift:          flags&2 != 0,
		RetrainStarted: flags&4 != 0,
		WindowAccuracy: math.Float64frombits(binary.LittleEndian.Uint64(b[4:12])),
	}, nil
}
