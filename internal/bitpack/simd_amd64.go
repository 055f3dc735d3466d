package bitpack

// This file gates the popcount and sign-pack assembly tiers
// (simd_amd64.s). The assembly computes exactly what the pure-Go kernels
// in kernels.go define — integer XOR+popcount, and the exactly-rounded
// analytic sign rule — so enabling a tier changes speed, never bits.
// Hosts without the required ISA (or other architectures) run the Go
// kernels and produce identical results.

// xorPopcntAVX512 reduces n words (n ≥ 8, n%8 == 0) of q XOR c through
// VPOPCNTQ into a single Hamming distance.
//
//go:noescape
func xorPopcntAVX512(q, c *uint64, n int, out *int64)

// xorPopcnt4AVX512 is the 1×4 tile: one query row against four class
// rows, four Hamming distances out (n ≥ 8, n%8 == 0).
//
//go:noescape
func xorPopcnt4AVX512(q, c0, c1, c2, c3 *uint64, n int, out *[4]int64)

// xorPopcntAVX2 is the AVX2 popcount tier (Mula's VPSHUFB nibble-LUT
// algorithm, VPSADBW-reduced): n ≥ 4, n%4 == 0, lut is nibbleLUT.
//
//go:noescape
func xorPopcntAVX2(q, c *uint64, n int, lut *[32]byte, out *int64)

// xorPopcnt4AVX2 is the AVX2 1×4 tile under the same contract.
//
//go:noescape
func xorPopcnt4AVX2(q, c0, c1, c2, c3 *uint64, n int, lut *[32]byte, out *[4]int64)

// packSignsAVX512 packs `groups` full 64-element words of activation
// signs using the analytic rule of packSignWordsGo, eight lanes at a
// time (VRNDSCALEPD floor + mask-register compares). It reads float32
// activations and widens each lane in a register (VCVTPS2PD, exact), so
// the bits equal packSignWordsGo's on the widened values. consts is
// packConsts, so both tiers use bit-identical constants.
//
//go:noescape
func packSignsAVX512(z *float32, fc *float64, groups int, consts *[4]float64, out *uint64)
