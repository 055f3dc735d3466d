package bitpack

// Popcount and sign-pack micro-kernels behind the packed serving path.
//
// The contract mirrors internal/mat/kernels.go: the pure-Go functions in
// this file define the arithmetic, and the assembly tiers in
// simd_amd64.s reproduce it bit for bit, so switching ISA levels changes
// speed, never results. For the XOR+popcount kernels that is immediate
// (integer arithmetic has one answer); for the sign-pack kernel it holds
// because every operation in the analytic sign rule — multiply, floor,
// subtract, add, compare — is exactly rounded and executed in the same
// order in both implementations.

import (
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/isa"
)

// ISA dispatch tiers, lowest to highest. tierOf maps the host's features
// to the best level it supports; kernelISA holds the active level and is
// lowered only by tests exercising fallback parity.
const (
	isaGeneric int32 = iota
	isaAVX2          // AVX2 VPSHUFB nibble-LUT popcount (Mula's algorithm)
	isaAVX512        // AVX-512 VPOPCNTQ popcount + VRNDSCALEPD sign pack
)

// tierOf returns the best tier a host with features f can run. The
// AVX-512 kernels use AVX512F and VPOPCNTQ on ZMM registers, and VEX
// (AVX2) encodings for their 256- and 128-bit reduction steps, so they
// need neither AVX512DQ nor AVX512VL: a host without those (Knights Mill)
// still runs them.
func tierOf(f isa.Features) int32 {
	switch {
	case f.AVX2 && f.AVX512F && f.AVX512VPOPCNTDQ:
		return isaAVX512
	case f.AVX2:
		return isaAVX2
	}
	return isaGeneric
}

// bestISA is the highest tier the host CPU + OS support.
var bestISA = tierOf(isa.Host)

// kernelISA is the active dispatch tier. Atomic so tests can force
// fallback tiers while -race parity checks run concurrently.
var kernelISA atomic.Int32

func init() { kernelISA.Store(bestISA) }

// setISA forces the dispatch tier (tests only), clamped to bestISA.
// Returns the previous tier so callers can restore it.
func setISA(level int32) int32 {
	if level > bestISA {
		level = bestISA
	}
	return kernelISA.Swap(level)
}

// packConsts feeds the sign-pack kernels their constants from one place,
// so the Go reference and the assembly provably multiply and compare
// against bit-identical values: 1/(2π), 1/2, 1/4, 3/4.
var packConsts = [4]float64{1 / (2 * math.Pi), 0.5, 0.25, 0.75}

// nibbleLUT is the VPSHUFB table for the AVX2 popcount tier: per-nibble
// bit counts in the first 16 bytes, the 0x0f nibble mask in the next 16.
var nibbleLUT = [32]byte{
	0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
	0x0f, 0x0f, 0x0f, 0x0f, 0x0f, 0x0f, 0x0f, 0x0f,
	0x0f, 0x0f, 0x0f, 0x0f, 0x0f, 0x0f, 0x0f, 0x0f,
}

// xorPopcntGo is the reference XOR+popcount reduction: the Hamming
// distance between two equal-length packed words slices.
func xorPopcntGo(q, c []uint64) int64 {
	var h int64
	for i := range q {
		h += int64(bits.OnesCount64(q[i] ^ c[i]))
	}
	return h
}

// xorPopcnt4Go is the reference 1×4 tile: one query against four class
// rows, amortizing the query loads exactly like the assembly does.
func xorPopcnt4Go(q, c0, c1, c2, c3 []uint64, out *[4]int64) {
	var h0, h1, h2, h3 int64
	for i, w := range q {
		h0 += int64(bits.OnesCount64(w ^ c0[i]))
		h1 += int64(bits.OnesCount64(w ^ c1[i]))
		h2 += int64(bits.OnesCount64(w ^ c2[i]))
		h3 += int64(bits.OnesCount64(w ^ c3[i]))
	}
	out[0], out[1], out[2], out[3] = h0, h1, h2, h3
}

// packSignWordsGo is the reference sign-pack kernel over full 64-element
// groups: len(z) == len(fc) == 64·len(out). Bit d of out is set when the
// RBF activation cos(z_d + c_d)·sin(z_d) is non-negative, decided by the
// trig-free analytic rule over fractional turns (fc_d = frac(c_d/2π),
// precomputed by the caller):
//
//	f := frac(z·(1/2π))            // sin(z) ≥ 0  iff f ≤ 1/2
//	g := frac(f + fc)              // cos(z+c) ≥ 0 iff g ≤ 1/4 or g ≥ 3/4
//	bit = (f ≤ 1/2) == (g ≤ 1/4 ∨ g ≥ 3/4) ∨ z == 0
//
// The z == 0 clause matches the float path, where a ±0 activation packs
// as +1 (x ≥ 0 admits -0). NaN/Inf activations pack as +1 in both the Go
// and assembly tiers (all ordered compares fail, so the equality holds).
func packSignWordsGo(z, fc []float64, out []uint64) {
	inv, half, quarter, threeQ := packConsts[0], packConsts[1], packConsts[2], packConsts[3]
	for w := range out {
		base := w * 64
		var acc uint64
		for i := 0; i < 64; i++ {
			zv := z[base+i]
			f := zv * inv
			f -= math.Floor(f)
			g := f + fc[base+i]
			g -= math.Floor(g)
			sinNN := f <= half
			cosNN := g <= quarter || g >= threeQ
			if zv == 0 || sinNN == cosNN {
				acc |= 1 << uint(i)
			}
		}
		out[w] = acc
	}
}

// packSignTailBits packs the final partial word (fewer than 64 elements)
// with the same rule; it always runs in Go, on every tier, so trailing
// bits above the dimension stay zero by construction.
func packSignTailBits(z, fc []float64) uint64 {
	inv, half, quarter, threeQ := packConsts[0], packConsts[1], packConsts[2], packConsts[3]
	var acc uint64
	for i, zv := range z {
		f := zv * inv
		f -= math.Floor(f)
		g := f + fc[i]
		g -= math.Floor(g)
		sinNN := f <= half
		cosNN := g <= quarter || g >= threeQ
		if zv == 0 || sinNN == cosNN {
			acc |= 1 << uint(i)
		}
	}
	return acc
}

// xorPopcnt dispatches the Hamming-distance reduction. The assembly
// tiers require the lengths the Matrix layout guarantees (multiples of 8
// words for AVX-512, 4 for AVX2); anything else runs the Go kernel.
func xorPopcnt(q, c []uint64) int64 {
	n := len(q)
	switch kernelISA.Load() {
	case isaAVX512:
		if n >= 8 && n%8 == 0 {
			var out int64
			xorPopcntAVX512(&q[0], &c[0], n, &out)
			return out
		}
	case isaAVX2:
		if n >= 4 && n%4 == 0 {
			var out int64
			xorPopcntAVX2(&q[0], &c[0], n, &nibbleLUT, &out)
			return out
		}
	}
	return xorPopcntGo(q, c)
}

// xorPopcnt4 dispatches the 1×4 tile under the same length contract.
func xorPopcnt4(q, c0, c1, c2, c3 []uint64, out *[4]int64) {
	n := len(q)
	switch kernelISA.Load() {
	case isaAVX512:
		if n >= 8 && n%8 == 0 {
			xorPopcnt4AVX512(&q[0], &c0[0], &c1[0], &c2[0], &c3[0], n, out)
			return
		}
	case isaAVX2:
		if n >= 4 && n%4 == 0 {
			xorPopcnt4AVX2(&q[0], &c0[0], &c1[0], &c2[0], &c3[0], n, &nibbleLUT, out)
			return
		}
	}
	xorPopcnt4Go(q, c0, c1, c2, c3, out)
}

// packSignWords32 dispatches the full-word sign pack of float32
// activations. Only AVX-512 has an assembly tier (the rule needs per-lane
// floor and mask compares); it widens each lane in a register. The other
// tiers widen through a stack buffer, eight words at a time, into the Go
// kernel. float32 to float64 is exact either way, so every tier packs the
// same bits.
func packSignWords32(z []float32, fc []float64, out []uint64) {
	if len(out) == 0 {
		return
	}
	if kernelISA.Load() == isaAVX512 {
		packSignsAVX512(&z[0], &fc[0], len(out), &packConsts, &out[0])
		return
	}
	var buf [512]float64
	for g := 0; g < len(out); g += 8 {
		lo, hi := g*64, min(g+8, len(out))*64
		for j, v := range z[lo:hi] {
			buf[j] = float64(v)
		}
		packSignWordsGo(buf[:hi-lo], fc[lo:hi], out[g:hi/64])
	}
}
