#include "textflag.h"

// func tile4x8AVX2(dst *float64, ldd int, a *float64, lda int, b *float64, ldb int, kc int)
//
// dst[r][c] += a[r][p] * b[p][c] for r in [0,4), c in [0,8), p ascending
// over [0,kc). Row p of b is the 8 doubles at b + p·ldb; rows of dst and
// a are ldd and lda doubles apart. Y0..Y7 hold the 4×8 dst block for the
// whole loop. Each product is rounded by VMULPD and each sum by VADDPD,
// exactly as the scalar Go loop rounds them; a fused multiply-add would
// round once and change the result. There is no per-term zero skip: the
// caller must not pass an a row that holds ±0.
TEXT ·tile4x8AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), DX
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R8
	MOVQ b+32(FP), BX
	MOVQ ldb+40(FP), R9
	MOVQ kc+48(FP), CX
	SHLQ $3, DX
	SHLQ $3, R8
	SHLQ $3, R9

	// dst rows DI, DI+ldd, AX = DI+2·ldd, AX+ldd.
	LEAQ    (DI)(DX*2), AX
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(DX*1), Y2
	VMOVUPD 32(DI)(DX*1), Y3
	VMOVUPD (AX), Y4
	VMOVUPD 32(AX), Y5
	VMOVUPD (AX)(DX*1), Y6
	VMOVUPD 32(AX)(DX*1), Y7

	// a rows SI, R10 = SI+lda, R11 = SI+2·lda, R12 = SI+3·lda.
	LEAQ (SI)(R8*1), R10
	LEAQ (SI)(R8*2), R11
	LEAQ (R10)(R8*2), R12

	TESTQ CX, CX
	JEQ   store

loop:
	VMOVUPD      (BX), Y8
	VMOVUPD      32(BX), Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y10
	VADDPD       Y11, Y0, Y0
	VADDPD       Y10, Y1, Y1
	VBROADCASTSD (R10), Y12
	VMULPD       Y8, Y12, Y13
	VMULPD       Y9, Y12, Y12
	VADDPD       Y13, Y2, Y2
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (R11), Y10
	VMULPD       Y8, Y10, Y11
	VMULPD       Y9, Y10, Y10
	VADDPD       Y11, Y4, Y4
	VADDPD       Y10, Y5, Y5
	VBROADCASTSD (R12), Y12
	VMULPD       Y8, Y12, Y13
	VMULPD       Y9, Y12, Y12
	VADDPD       Y13, Y6, Y6
	VADDPD       Y12, Y7, Y7
	ADDQ         $8, SI
	ADDQ         $8, R10
	ADDQ         $8, R11
	ADDQ         $8, R12
	ADDQ         R9, BX
	DECQ         CX
	JNE          loop

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(DX*1)
	VMOVUPD Y3, 32(DI)(DX*1)
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	VMOVUPD Y6, (AX)(DX*1)
	VMOVUPD Y7, 32(AX)(DX*1)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
