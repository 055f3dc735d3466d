package encoding

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

func TestNGramValidation(t *testing.T) {
	for _, args := range [][3]int{{0, 8, 2}, {4, 0, 2}, {4, 8, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewNGram%v did not panic", args)
				}
			}()
			NewNGram(args[0], args[1], args[2], 1)
		}()
	}
	e := NewNGram(5, 64, 3, 1)
	if e.Dim() != 64 || e.Alphabet() != 5 || e.n != 3 {
		t.Fatal("accessors wrong")
	}
	if _, err := e.EncodeSequence([]int{0, 9}); err == nil {
		t.Fatal("out-of-alphabet symbol accepted")
	}
	if _, err := e.EncodeSequence([]int{-1}); err == nil {
		t.Fatal("negative symbol accepted")
	}
}

func TestNGramEmptyAndShort(t *testing.T) {
	e := NewNGram(4, 128, 3, 2)
	out, err := e.EncodeSequence(nil)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Norm2(out) != 0 {
		t.Fatal("empty sequence should encode to zero")
	}
	// Shorter than n: still produces something usable.
	short, err := e.EncodeSequence([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	if mat.Norm2(short) == 0 {
		t.Fatal("short sequence encoded to zero")
	}
}

func TestNGramOrderSensitivity(t *testing.T) {
	e := NewNGram(8, 2048, 2, 3)
	ab, err := e.EncodeSequence([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	ba, err := e.EncodeSequence([]int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sim := mat.CosineSim(ab, ba); math.Abs(sim) > 0.15 {
		t.Fatalf("order-reversed bigram too similar: cos=%v", sim)
	}
}

func TestNGramSharedContentSimilar(t *testing.T) {
	e := NewNGram(10, 2048, 3, 4)
	base := []int{1, 2, 3, 4, 5, 6, 7, 8}
	// One substitution near the end: most trigrams shared.
	near := []int{1, 2, 3, 4, 5, 6, 7, 9}
	// Disjoint symbols: no shared trigrams.
	far := []int{9, 8, 0, 9, 8, 0, 9, 8}

	hb, err := e.EncodeSequence(base)
	if err != nil {
		t.Fatal(err)
	}
	hn, err := e.EncodeSequence(near)
	if err != nil {
		t.Fatal(err)
	}
	hf, err := e.EncodeSequence(far)
	if err != nil {
		t.Fatal(err)
	}
	simNear := mat.CosineSim(hb, hn)
	simFar := mat.CosineSim(hb, hf)
	if simNear < 0.5 {
		t.Fatalf("one-substitution sequence should stay similar: cos=%v", simNear)
	}
	if simFar > simNear-0.3 {
		t.Fatalf("disjoint sequence not separated: near=%v far=%v", simNear, simFar)
	}
}

func TestNGramDeterministic(t *testing.T) {
	a, err := NewNGram(6, 256, 2, 9).EncodeSequence([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNGram(6, 256, 2, 9).EncodeSequence([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed n-gram encoders differ")
		}
	}
}

// A small end-to-end sanity: n-gram encodings of sequences drawn from two
// different Markov chains are separable by a nearest-centroid rule.
func TestNGramSeparatesMarkovSources(t *testing.T) {
	const d = 2048
	e := NewNGram(4, d, 2, 11)
	r := rng.New(12)

	gen := func(bias int, length int) []int {
		seq := make([]int, length)
		state := bias
		for i := range seq {
			if r.Float64() < 0.8 {
				state = (state + 1 + bias) % 4 // biased transition
			} else {
				state = r.Intn(4)
			}
			seq[i] = state
		}
		return seq
	}
	centroid := func(bias, n int) []float64 {
		c := make([]float64, d)
		for i := 0; i < n; i++ {
			h, err := e.EncodeSequence(gen(bias, 30))
			if err != nil {
				t.Fatal(err)
			}
			mat.Axpy(c, 1, h)
		}
		return c
	}
	c0 := centroid(0, 20)
	c1 := centroid(1, 20)

	correct := 0
	const trials = 40
	for i := 0; i < trials; i++ {
		bias := i % 2
		h, err := e.EncodeSequence(gen(bias, 30))
		if err != nil {
			t.Fatal(err)
		}
		pred := 0
		if mat.CosineSim(h, c1) > mat.CosineSim(h, c0) {
			pred = 1
		}
		if pred == bias {
			correct++
		}
	}
	if acc := float64(correct) / trials; acc < 0.8 {
		t.Fatalf("Markov sources not separable via n-gram encoding: acc=%v", acc)
	}
}
