//go:build !amd64

package isa

// probe reports no features: the kernels have assembly for amd64 only.
func probe() Features { return Features{} }
