package bitpack

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// benchSetup builds a packed classes×queries fixture at a dimension.
func benchSetup(classes, queries, dim int) (*Matrix, *Matrix) {
	rng := rand.New(rand.NewSource(1))
	cm := NewMatrix(classes, dim)
	qm := NewMatrix(queries, dim)
	row := make([]float64, dim)
	fill := func(m *Matrix, i int) {
		for d := range row {
			row[d] = rng.NormFloat64()
		}
		m.PackRow(i, row)
	}
	for i := 0; i < classes; i++ {
		fill(cm, i)
	}
	for i := 0; i < queries; i++ {
		fill(qm, i)
	}
	return cm, qm
}

// BenchmarkScoreBatch measures the XOR+popcount scoring tile per ISA
// tier at the serving shapes (64-row batch).
func BenchmarkScoreBatch(b *testing.B) {
	for _, dim := range []int{2048, 10000} {
		cm, qm := benchSetup(8, 64, dim)
		dst := make([]int32, cm.Rows*qm.Rows)
		for _, isa := range availableISAs() {
			b.Run(fmt.Sprintf("d=%d/%s", dim, isaName(isa)), func(b *testing.B) {
				defer setISA(setISA(isa))
				b.ReportAllocs()
				b.SetBytes(int64(qm.Rows * qm.Stride * 8 * cm.Rows))
				for i := 0; i < b.N; i++ {
					ScoreBatchInto(cm, qm, dst)
				}
			})
		}
	}
}

// BenchmarkPackSigns measures the activation sign pack: the float32
// PackActivationSigns32 per ISA tier at the served D = 1024 (the 1-bit
// tier's epilogue per projection row), and its float64 reference
// PackActivationSigns, which runs the Go kernel on every host.
func BenchmarkPackSigns(b *testing.B) {
	for _, dim := range []int{2048, 10000} {
		rng := rand.New(rand.NewSource(2))
		z := make([]float64, dim)
		fc := make([]float64, dim)
		for i := range z {
			z[i] = rng.NormFloat64() * 10
			fc[i] = FracTurns(rng.Float64() * 2 * math.Pi)
		}
		dst := make([]uint64, matrixStride(dim))
		b.Run(fmt.Sprintf("d=%d/generic", dim), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(dim * 8))
			for i := 0; i < b.N; i++ {
				PackActivationSigns(z, fc, dst)
			}
		})
	}
	const dim = 1024
	rng := rand.New(rand.NewSource(2))
	z := make([]float32, dim)
	fc := make([]float64, dim)
	for i := range z {
		z[i] = float32(rng.NormFloat64() * 10)
		fc[i] = FracTurns(rng.Float64() * 2 * math.Pi)
	}
	dst := make([]uint64, matrixStride(dim))
	for _, isa := range availableISAs() {
		if isa == isaAVX2 {
			continue // pack has no AVX2 tier; identical to generic
		}
		b.Run(fmt.Sprintf("f32/d=%d/%s", dim, isaName(isa)), func(b *testing.B) {
			defer setISA(setISA(isa))
			b.ReportAllocs()
			b.SetBytes(dim * 4)
			for i := 0; i < b.N; i++ {
				PackActivationSigns32(z, fc, dst)
			}
		})
	}
}
