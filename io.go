package disthd

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/bitpack"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/mat"
	"repro/internal/model"
)

// Binary model format: a fixed magic, a version word, the shape header,
// then the encoder parameters and class hypervectors. Version 1 is the
// f32 format (class weights as little-endian float64s); version 2 is the
// packed 1-bit format (class sign bits as little-endian uint64 words,
// ceil(D/64) per class — the payload an edge deployment actually ships).
// Save picks the version from the model: a quantized model always
// serializes packed. Only RBF-encoded models are serializable (the
// linear encoder is provided for ablations, not deployment).
const (
	modelMagic       = 0x44485644 // "DVHD"
	modelVersion     = 1
	modelVersion1Bit = 2
)

// Save writes the trained model to w in a self-contained binary format
// readable by Load. Quantized models serialize as the packed 1-bit
// format (version 2), f32 models as version 1.
func (m *Model) Save(w io.Writer) error {
	if m.kind != EncoderRBF {
		return fmt.Errorf("disthd: only RBF-encoded models can be serialized")
	}
	rbf, ok := m.clf.Enc.(*encoding.RBF)
	if !ok {
		return fmt.Errorf("disthd: model encoder is not RBF")
	}
	bw := bufio.NewWriter(w)
	base, phase, sigma := rbf.Params()

	version := uint32(modelVersion)
	if m.Quantized() {
		version = modelVersion1Bit
	}
	writeU32 := func(v uint32) error { return binary.Write(bw, binary.LittleEndian, v) }
	for _, v := range []uint32{modelMagic, version,
		uint32(m.Features()), uint32(m.Dim()), uint32(m.Classes())} {
		if err := writeU32(v); err != nil {
			return fmt.Errorf("disthd: save header: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, sigma); err != nil {
		return fmt.Errorf("disthd: save sigma: %w", err)
	}
	for _, block := range [][]float64{base.Data, phase} {
		if err := writeFloats(bw, block); err != nil {
			return fmt.Errorf("disthd: save payload: %w", err)
		}
	}
	if m.Quantized() {
		words := (m.Dim() + 63) / 64
		buf := make([]byte, 8)
		for c := 0; c < m.Classes(); c++ {
			row := m.packed.Row(c)
			for j := 0; j < words; j++ {
				binary.LittleEndian.PutUint64(buf, row[j])
				if _, err := bw.Write(buf); err != nil {
					return fmt.Errorf("disthd: save packed classes: %w", err)
				}
			}
		}
		return bw.Flush()
	}
	if err := writeFloats(bw, m.clf.Model.Weights.Data); err != nil {
		return fmt.Errorf("disthd: save payload: %w", err)
	}
	return bw.Flush()
}

// writeFloats emits the slice as little-endian float64 bits.
func writeFloats(w io.Writer, xs []float64) error {
	buf := make([]byte, 8)
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(x))
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// loadChunk is how many 8-byte words Load decodes per read.
const loadChunk = 8 << 10

// readWords reads n little-endian 8-byte words, decoding each with conv.
// A snapshot's shape header is untrusted, so the result is never sized
// from it: it starts at one chunk and grows fourfold only once full, so a
// header claiming more payload than the stream holds fails at EOF having
// allocated a small multiple of what arrived.
func readWords[T any](r io.Reader, n int, conv func(uint64) T) ([]T, error) {
	buf := make([]byte, 8*min(n, loadChunk))
	xs := make([]T, 0, min(n, loadChunk))
	for len(xs) < n {
		if len(xs) == cap(xs) {
			xs = slices.Grow(xs, min(3*len(xs), n-len(xs)))
		}
		c := min(n-len(xs), loadChunk)
		if _, err := io.ReadFull(r, buf[:8*c]); err != nil {
			return nil, err
		}
		for i := 0; i < c; i++ {
			xs = append(xs, conv(binary.LittleEndian.Uint64(buf[8*i:])))
		}
	}
	return xs, nil
}

// Load reads a model previously written by Save. The returned model is
// ready for inference and further deployment; its training statistics are
// not preserved. Load allocates in proportion to the bytes it reads
// (whatever the header claims), so it is safe on untrusted input: an f32
// snapshot costs a small multiple of its size, a 1-bit one up to about 64
// times its class payload for the ±1 float view of its classes.
func Load(r io.Reader) (*Model, error) {
	br := bufio.NewReader(r)
	var hdr [5]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("disthd: load header: %w", err)
		}
	}
	if hdr[0] != modelMagic {
		return nil, fmt.Errorf("disthd: bad magic 0x%x (not a DistHD model)", hdr[0])
	}
	if hdr[1] != modelVersion && hdr[1] != modelVersion1Bit {
		return nil, fmt.Errorf("disthd: unsupported model version %d", hdr[1])
	}
	features, dim, classes := int(hdr[2]), int(hdr[3]), int(hdr[4])
	// Each payload's byte count must fit an int: every factor is below
	// 2^32, so the products are exact in uint64.
	const maxFloats = math.MaxInt / 8
	if features <= 0 || dim <= 0 || classes < 2 ||
		uint64(dim)*uint64(features) > maxFloats || uint64(dim)*uint64(classes) > maxFloats {
		return nil, fmt.Errorf("disthd: corrupt model shape %dx%dx%d", features, dim, classes)
	}
	var sigma float64
	if err := binary.Read(br, binary.LittleEndian, &sigma); err != nil {
		return nil, fmt.Errorf("disthd: load sigma: %w", err)
	}
	if !(sigma > 0) || math.IsInf(sigma, 1) {
		return nil, fmt.Errorf("disthd: corrupt model bandwidth %v", sigma)
	}

	base, err := readWords(br, dim*features, math.Float64frombits)
	if err != nil {
		return nil, fmt.Errorf("disthd: load payload: %w", err)
	}
	phase, err := readWords(br, dim, math.Float64frombits)
	if err != nil {
		return nil, fmt.Errorf("disthd: load payload: %w", err)
	}
	enc, err := encoding.NewRBFFromParams(mat.View(dim, features, base), phase, sigma, 1)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Dim = dim
	out := &Model{
		clf:  &core.Classifier{Enc: enc, Cfg: cfg},
		kind: EncoderRBF,
	}

	if hdr[1] == modelVersion1Bit {
		// Packed payload: ceil(D/64) sign words per class. The float
		// weights are reconstructed as ±1 so introspection views
		// (ClassHypervector, DimensionSaliency) stay meaningful; serving
		// runs on the packed bits.
		words := (dim + 63) / 64
		bits, err := readWords(br, classes*words, func(w uint64) uint64 { return w })
		if err != nil {
			return nil, fmt.Errorf("disthd: load packed classes: %w", err)
		}
		packed := bitpack.NewMatrix(classes, dim)
		mdl := model.New(classes, dim)
		for c := 0; c < classes; c++ {
			row := packed.Row(c)
			for j := 0; j < words; j++ {
				row[j] = bits[c*words+j]
			}
			if rem := dim % 64; rem != 0 {
				if tail := row[words-1] >> uint(rem); tail != 0 {
					return nil, fmt.Errorf("disthd: corrupt packed class %d (trailing bits set)", c)
				}
			}
			w := mdl.Weights.Row(c)
			for d := 0; d < dim; d++ {
				if packed.Bit(c, d) {
					w[d] = 1
				} else {
					w[d] = -1
				}
			}
		}
		mdl.RefreshNorms()
		out.clf.Model = mdl
		out.packed = packed
		return out, nil
	}

	weights, err := readWords(br, classes*dim, math.Float64frombits)
	if err != nil {
		return nil, fmt.Errorf("disthd: load payload: %w", err)
	}
	mdl := model.New(classes, dim)
	copy(mdl.Weights.Data, weights)
	mdl.RefreshNorms()
	out.clf.Model = mdl
	return out, nil
}
