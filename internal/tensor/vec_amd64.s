//go:build amd64 && gc && !purego

#include "textflag.h"

// Four-lane AVX kernels for the training step's products. Every lane
// multiplies with VMULPD and adds with VADDPD, two roundings exactly as
// the scalar Go code's MULSD and ADDSD, never one fused FMA rounding; each
// output element sums its products in the Go kernels' order from the
// same starting value, so the results are bitwise theirs. Gated at run
// time by useVec, which detectAVX sets once (vec_amd64.go).

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// MULADD16 adds x·b into one row's sixteen accumulators: x broadcast in
// Y12, b in Y8–Y11, the accumulators in c0–c3. Each product is rounded
// (VMULPD) and then added to its accumulator (VADDPD, accumulator first).
#define MULADD16(c0, c1, c2, c3) \
	VMULPD Y8, Y12, Y13; \
	VADDPD Y13, c0, c0; \
	VMULPD Y9, Y12, Y14; \
	VADDPD Y14, c1, c1; \
	VMULPD Y10, Y12, Y15; \
	VADDPD Y15, c2, c2; \
	VMULPD Y11, Y12, Y13; \
	VADDPD Y13, c3, c3

// LOADB16 loads columns j..j+15 of b's current row (BX) into Y8–Y11.
#define LOADB16 \
	VMOVUPD (BX), Y8; \
	VMOVUPD 32(BX), Y9; \
	VMOVUPD 64(BX), Y10; \
	VMOVUPD 96(BX), Y11

// ZERO8 sets the eight accumulators Y0–Y7 to +0.
#define ZERO8 \
	VXORPD Y0, Y0, Y0; \
	VXORPD Y1, Y1, Y1; \
	VXORPD Y2, Y2, Y2; \
	VXORPD Y3, Y3, Y3; \
	VXORPD Y4, Y4, Y4; \
	VXORPD Y5, Y5, Y5; \
	VXORPD Y6, Y6, Y6; \
	VXORPD Y7, Y7, Y7

// func mulPair16(d0, a0, b *float64, k, n, blocks int, acc bool)
//
// Two rows of dst = a·b (dst += a·b when acc): rows d0 and d0+n of dst
// (n doubles per row), from rows a0 and a0+k of a (k doubles per row) and
// the k×n matrix b, over columns [0, 16·blocks). Each output element
// starts from +0 (or its dst value when acc) and adds a[i][kk]·b[kk][j]
// in ascending kk, skipping every kk whose a entry is ±0 — tested on the
// bits with the sign shifted out, so a NaN is never taken for a zero. A
// kk where both rows' entries are zero skips b's row entirely.
TEXT ·mulPair16(SB), NOSPLIT, $0-49
	MOVQ d0+0(FP), DI
	MOVQ a0+8(FP), R8
	MOVQ b+16(FP), R10
	MOVQ k+24(FP), R11
	MOVQ n+32(FP), R12
	MOVQ blocks+40(FP), R13
	MOVBQZX acc+48(FP), R14
	LEAQ (R8)(R11*8), R9 // a1 = a0 + k
	SHLQ $3, R12         // row stride of dst and b, in bytes
	TESTQ R13, R13
	JLE  mpdone

mpblock:
	TESTQ R14, R14
	JZ   mpzero
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD (DI)(R12*1), Y4
	VMOVUPD 32(DI)(R12*1), Y5
	VMOVUPD 64(DI)(R12*1), Y6
	VMOVUPD 96(DI)(R12*1), Y7
	JMP  mpstart

mpzero:
	ZERO8

mpstart:
	MOVQ R10, BX
	XORQ CX, CX
	TESTQ R11, R11
	JLE  mpstore

mploop:
	MOVQ (R8)(CX*8), AX
	MOVQ (R9)(CX*8), DX
	ADDQ AX, AX // ±0 → 0; every other value, NaN included, stays nonzero
	ADDQ DX, DX
	MOVQ AX, SI
	ORQ  DX, SI
	JZ   mpnext
	LOADB16
	TESTQ AX, AX
	JZ   mprow1
	VBROADCASTSD (R8)(CX*8), Y12
	MULADD16(Y0, Y1, Y2, Y3)

mprow1:
	TESTQ DX, DX
	JZ   mpnext
	VBROADCASTSD (R9)(CX*8), Y12
	MULADD16(Y4, Y5, Y6, Y7)

mpnext:
	ADDQ R12, BX
	INCQ CX
	CMPQ CX, R11
	JLT  mploop

mpstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, (DI)(R12*1)
	VMOVUPD Y5, 32(DI)(R12*1)
	VMOVUPD Y6, 64(DI)(R12*1)
	VMOVUPD Y7, 96(DI)(R12*1)
	ADDQ $128, DI
	ADDQ $128, R10
	DECQ R13
	JNZ  mpblock

mpdone:
	VZEROUPPER
	RET

// func dotPair16(d0, a0, b *float64, k, n, blocks int, acc bool)
//
// mulPair16 without the skip and without reading dst first: each output
// element sums a[i][kk]·b[kk][j] over every kk in ascending order from +0,
// then is stored, or added to its dst value (dst first) when acc. With b
// the transpose of MatMulABTInto's right operand, each element is the dot
// product of an a row with a row of that operand.
TEXT ·dotPair16(SB), NOSPLIT, $0-49
	MOVQ d0+0(FP), DI
	MOVQ a0+8(FP), R8
	MOVQ b+16(FP), R10
	MOVQ k+24(FP), R11
	MOVQ n+32(FP), R12
	MOVQ blocks+40(FP), R13
	MOVBQZX acc+48(FP), R14
	LEAQ (R8)(R11*8), R9
	SHLQ $3, R12
	TESTQ R13, R13
	JLE  dpdone

dpblock:
	ZERO8
	MOVQ R10, BX
	XORQ CX, CX
	TESTQ R11, R11
	JLE  dpstore

dploop:
	LOADB16
	VBROADCASTSD (R8)(CX*8), Y12
	MULADD16(Y0, Y1, Y2, Y3)
	VBROADCASTSD (R9)(CX*8), Y12
	MULADD16(Y4, Y5, Y6, Y7)
	ADDQ R12, BX
	INCQ CX
	CMPQ CX, R11
	JLT  dploop

dpstore:
	TESTQ R14, R14
	JZ   dpput
	VMOVUPD (DI), Y8
	VADDPD  Y0, Y8, Y0
	VMOVUPD 32(DI), Y9
	VADDPD  Y1, Y9, Y1
	VMOVUPD 64(DI), Y10
	VADDPD  Y2, Y10, Y2
	VMOVUPD 96(DI), Y11
	VADDPD  Y3, Y11, Y3
	VMOVUPD (DI)(R12*1), Y8
	VADDPD  Y4, Y8, Y4
	VMOVUPD 32(DI)(R12*1), Y9
	VADDPD  Y5, Y9, Y5
	VMOVUPD 64(DI)(R12*1), Y10
	VADDPD  Y6, Y10, Y6
	VMOVUPD 96(DI)(R12*1), Y11
	VADDPD  Y7, Y11, Y7

dpput:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, (DI)(R12*1)
	VMOVUPD Y5, 32(DI)(R12*1)
	VMOVUPD Y6, 64(DI)(R12*1)
	VMOVUPD Y7, 96(DI)(R12*1)
	ADDQ $128, DI
	ADDQ $128, R10
	DECQ R13
	JNZ  dpblock

dpdone:
	VZEROUPPER
	RET

// func axpyVec(dst, x *float64, n int, alpha float64)
//
// dst[j] += alpha·x[j] for j in [0, n): the product rounded, then added
// to dst[j] (dst first, as the Go loop writes it).
TEXT ·axpyVec(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSD alpha+24(FP), Y0
	SUBQ $8, CX
	JLT  axtail4

axloop8:
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VMOVUPD (DI), Y3
	VMOVUPD 32(DI), Y4
	VADDPD  Y1, Y3, Y1
	VADDPD  Y2, Y4, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JGE  axloop8

axtail4:
	ADDQ $8, CX
	CMPQ CX, $4
	JLT  axtail
	VMULPD  (SI), Y0, Y1
	VMOVUPD (DI), Y3
	VADDPD  Y1, Y3, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX

axtail:
	TESTQ CX, CX
	JLE  axdone

axloop1:
	VMULSD (SI), X0, X1
	VMOVSD (DI), X3
	VADDSD X1, X3, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  axloop1

axdone:
	VZEROUPPER
	RET

// func addVec(dst, x *float64, n int)
//
// dst[j] += x[j] for j in [0, n), dst first.
TEXT ·addVec(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	SUBQ $8, CX
	JLT  adtail4

adloop8:
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VADDPD  (SI), Y1, Y1
	VADDPD  32(SI), Y2, Y2
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JGE  adloop8

adtail4:
	ADDQ $8, CX
	CMPQ CX, $4
	JLT  adtail
	VMOVUPD (DI), Y1
	VADDPD  (SI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX

adtail:
	TESTQ CX, CX
	JLE  addone

adloop1:
	VMOVSD (DI), X1
	VADDSD (SI), X1, X1
	VMOVSD X1, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  adloop1

addone:
	VZEROUPPER
	RET
