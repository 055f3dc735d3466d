//go:build !amd64

package bitpack

// Non-amd64 builds run the pure-Go kernels exclusively; the assembly
// entry points below exist only to satisfy the dispatch code and are
// unreachable because isa.Host reports no features there.

func xorPopcntAVX512(q, c *uint64, n int, out *int64) {
	panic("bitpack: AVX-512 kernel on non-amd64 build")
}

func xorPopcnt4AVX512(q, c0, c1, c2, c3 *uint64, n int, out *[4]int64) {
	panic("bitpack: AVX-512 kernel on non-amd64 build")
}

func xorPopcntAVX2(q, c *uint64, n int, lut *[32]byte, out *int64) {
	panic("bitpack: AVX2 kernel on non-amd64 build")
}

func xorPopcnt4AVX2(q, c0, c1, c2, c3 *uint64, n int, lut *[32]byte, out *[4]int64) {
	panic("bitpack: AVX2 kernel on non-amd64 build")
}

func packSignsAVX512(z *float32, fc *float64, groups int, consts *[4]float64, out *uint64) {
	panic("bitpack: AVX-512 kernel on non-amd64 build")
}
