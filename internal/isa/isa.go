// Package isa probes the host CPU once and reports the SIMD features the
// kernel packages dispatch on. Each kernel package maps the reported
// Features to its own dispatch tier with a pure function, so a tier
// choice can be tested for any host by building a Features value by hand.
package isa

// Features lists the instruction-set extensions the kernels use. A field
// is true only when the CPU implements the extension AND the operating
// system saves the register state it needs (YMM for AVX2 and FMA; ZMM and
// the opmask registers for the AVX-512 fields), so a true field is always
// safe to execute.
type Features struct {
	AVX2 bool // 256-bit integer and float SIMD
	FMA  bool // VEX fused multiply-add

	AVX512F         bool // 512-bit foundation: ZMM registers, opmasks
	AVX512DQ        bool // quadword conversions (VCVTTPD2UQQ, VCVTUQQ2PD)
	AVX512VL        bool // EVEX encodings of 128- and 256-bit operations
	AVX512VPOPCNTDQ bool // VPOPCNTQ
}

// Host is the feature set of the machine this process runs on, probed
// once at start-up.
var Host = probe()
