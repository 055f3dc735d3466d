package encoding

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/rng"
)

// NGram encodes discrete symbol sequences into hyperspace with the classic
// permutation n-gram scheme: each symbol gets a random bipolar identity,
// an n-gram is the binding of its symbols rotated by position
// (ρ^(n-1)(s₁) ⊛ … ⊛ ρ⁰(sₙ)), and a sequence is the bundle of all its
// n-grams. Similar sequences share n-grams and therefore bundle to similar
// hypervectors. This is the standard HDC substrate for language, gesture
// and event-stream classification; it complements the numeric encoders the
// DistHD evaluation uses.
type NGram struct {
	symbols *mat.Dense // alphabet × D bipolar identities
	n       int
}

// NewNGram builds an n-gram encoder over an alphabet of the given size.
func NewNGram(alphabet, d, n int, seed uint64) *NGram {
	if alphabet <= 0 || d <= 0 || n <= 0 {
		panic(fmt.Sprintf("encoding: NewNGram(%d, %d, %d) invalid", alphabet, d, n))
	}
	r := rng.New(seed)
	e := &NGram{symbols: mat.New(alphabet, d), n: n}
	for i := range e.symbols.Data {
		e.symbols.Data[i] = r.Bipolar()
	}
	return e
}

// Dim returns the hypervector dimensionality.
func (e *NGram) Dim() int { return e.symbols.Cols }

// Alphabet returns the number of distinct symbols.
func (e *NGram) Alphabet() int { return e.symbols.Rows }

// EncodeSequence returns the bundled n-gram hypervector of the symbol
// sequence. Sequences shorter than n yield the bundle of what is available
// (a single (len)-gram); an empty sequence returns the zero vector.
// Symbols outside [0, Alphabet) are an error.
func (e *NGram) EncodeSequence(seq []int) ([]float64, error) {
	d := e.Dim()
	out := make([]float64, d)
	for _, s := range seq {
		if s < 0 || s >= e.Alphabet() {
			return nil, fmt.Errorf("encoding: symbol %d outside alphabet [0,%d)", s, e.Alphabet())
		}
	}
	if len(seq) == 0 {
		return out, nil
	}
	order := e.n
	if len(seq) < order {
		order = len(seq)
	}
	gram := make([]float64, d)
	for start := 0; start+order <= len(seq); start++ {
		// gram = ρ^(order-1)(s_start) ⊛ … ⊛ ρ⁰(s_{start+order-1})
		for i := range gram {
			gram[i] = 1
		}
		for j := 0; j < order; j++ {
			sym := e.symbols.Row(seq[start+j])
			rot := order - 1 - j
			for i := range gram {
				// permute by rot: source index (i - rot) mod d
				src := (i - rot) % d
				if src < 0 {
					src += d
				}
				gram[i] *= sym[src]
			}
		}
		mat.Axpy(out, 1, gram)
	}
	return out, nil
}
