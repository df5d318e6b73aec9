package tensor

// useAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers, so matMulRowsPacked can run its full 4×8 tiles in
// tile4x8AVX2. Set once at package init; tests flip it to run both tile
// paths.
var useAVX2 = detectAVX2()

// tile4x8AVX2 adds a[4,kc] @ b[kc,8] into dst[4,8] in place (see
// matmul_amd64.s). Call it through tile8, which checks the bounds.
//
//go:noescape
func tile4x8AVX2(dst *float64, ldd int, a *float64, lda int, b *float64, ldb, kc int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and YMM state on a switch.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
