package isa

// cpuid executes CPUID with the given leaf and subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0, the OS-enabled SIMD state.
func xgetbv() (eax, edx uint32)

// probe reads CPUID leaves 0, 1 and 7 and XCR0.
func probe() Features {
	const (
		fmaBit       = 1 << 12 // leaf 1 ECX
		osxsaveBit   = 1 << 27 // leaf 1 ECX
		avxBit       = 1 << 28 // leaf 1 ECX
		avx2Bit      = 1 << 5  // leaf 7 EBX
		avx512fBit   = 1 << 16 // leaf 7 EBX
		avx512dqBit  = 1 << 17 // leaf 7 EBX
		avx512vlBit  = 1 << 31 // leaf 7 EBX
		vpopcntdqBit = 1 << 14 // leaf 7 ECX
		ymmState     = 0x6     // XCR0: XMM+YMM
		zmmState     = 0xe6    // XCR0: XMM+YMM+opmask+ZMM hi/lo
	)
	var f Features
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return f
	}
	_, _, c1, _ := cpuid(1, 0)
	if c1&(osxsaveBit|avxBit) != osxsaveBit|avxBit {
		return f
	}
	xcr0, _ := xgetbv()
	_, b7, c7, _ := cpuid(7, 0)
	if xcr0&ymmState == ymmState {
		f.AVX2 = b7&avx2Bit != 0
		f.FMA = c1&fmaBit != 0
	}
	if xcr0&zmmState == zmmState {
		f.AVX512F = b7&avx512fBit != 0
		f.AVX512DQ = b7&avx512dqBit != 0
		f.AVX512VL = b7&avx512vlBit != 0
		f.AVX512VPOPCNTDQ = c7&vpopcntdqBit != 0
	}
	return f
}
