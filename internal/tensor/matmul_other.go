//go:build !amd64

package tensor

// useAVX2 is false off amd64: every matmul tile runs in Go.
var useAVX2 = false

func tile4x8AVX2(dst *float64, ldd int, a *float64, lda int, b *float64, ldb, kc int) {
	panic("tensor: tile4x8AVX2 called without AVX2")
}
