package mat

import "math"

// ActivationLanes is the group width of ActivateRBF: it computes whole
// groups of this many elements.
const ActivationLanes = 8

// cosSinConsts feeds the AVX-512 epilogue (cosSinAVX512) the constants of
// math.Sincos, so it multiplies and adds exactly the values the stdlib
// does: 4/π, π/4 split into three parts (PI4A, PI4B, PI4C), the reduction
// threshold 2^29, 1 and 0.5, then the Cephes cos and sin coefficients,
// highest order first. The hex comments are the stdlib's bit patterns.
var cosSinConsts = [19]float64{
	4 / math.Pi,
	7.85398125648498535156e-1,  // 0x3fe921fb40000000
	3.77489470793079817668e-8,  // 0x3e64442d00000000
	2.69515142907905952645e-15, // 0x3ce8469898cc5170
	1 << 29,
	1,
	0.5,
	-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
	2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
	-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
	2.48015872888517045348e-5,   // 0x3efa01a019c844f5
	-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
	4.16666666666665929218e-2,   // 0x3fa555555555554b
	1.58962301576546568060e-10,  // 0x3de5d8fd1fd19ccd
	-2.50507477628578072866e-8,  // 0xbe5ae5e5a9291f5d
	2.75573136213857245213e-6,   // 0x3ec71de3567d48a1
	-1.98412698295895385996e-4,  // 0xbf2a01a019bfdf03
	8.33333333332211858878e-3,   // 0x3f8111111110f7d0
	-1.66666666666666307295e-1,  // 0xbfc5555555555548
}

// ActivateRBF overwrites leading elements z_i of z with the RBF
// activation (cos z_i·cosC[i] − sin z_i·sinC[i])·sin z_i, which is
// cos(z_i + c_i)·sin z_i for phases c_i whose cosines and sines are cosC
// and sinC, and returns how many it computed: a multiple of
// ActivationLanes, and zero below the AVX-512 tier. It stops before a
// tail shorter than a group and before the first group holding an
// element that is not below 2^29 in magnitude (NaN and ±Inf included);
// the caller computes the rest in Go. Every value it writes is
// bit-identical to evaluating the expression in Go with math.Sincos,
// which on amd64 rounds each product and sum on its own (the compiler
// does not contract x*y+z into an FMA there).
func ActivateRBF(z, cosC, sinC []float64) int {
	n := len(z)
	if n < ActivationLanes || tier.Load() != tierAVX512 {
		return 0
	}
	cosC, sinC = cosC[:n], sinC[:n]
	return ActivationLanes * cosSinAVX512(&z[0], &cosC[0], &sinC[0], n/ActivationLanes, &cosSinConsts)
}
