//go:build amd64 && gc && !purego

#include "textflag.h"

// Vector kernels for the opt-in fast scoring path (Config.FastScoring).
// Gated at runtime by detectFastVec (AVX2 + FMA3 + OS ymm state); every
// caller has a pure-Go fallback, so nothing here runs on older CPUs.

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

// func dotSpanAVX2(base *float64, stride int, qs *Query, n int, peff *float64, out *float64)
//
// For each of the n queries: out[i] += base[qs[i].Workload*stride : +32] · peff.
// peff's 32 elements stay resident in Y8–Y11 across the whole span, so the
// only per-query memory traffic is the embedding row itself plus one
// read-modify-write of out[i] (which arrives holding the baseline sum).
// The four-lane FMA accumulation reassociates relative to dot32's scalar
// chains; the fast path's documented bound covers it.
//
// Layout dependency: Workload is the first field of Query and the struct
// is 40 bytes — both asserted at compile time in fastasm_amd64.go.
TEXT ·dotSpanAVX2(SB), NOSPLIT, $0-48
	MOVQ base+0(FP), DI
	MOVQ stride+8(FP), BX
	MOVQ qs+16(FP), SI
	MOVQ n+24(FP), CX
	MOVQ peff+32(FP), DX
	MOVQ out+40(FP), R8
	TESTQ CX, CX
	JLE  dotdone
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	VMOVUPD 64(DX), Y10
	VMOVUPD 96(DX), Y11
	VMOVUPD 128(DX), Y12
	VMOVUPD 160(DX), Y13
	VMOVUPD 192(DX), Y14
	VMOVUPD 224(DX), Y15

	// Four queries per iteration, two FMA chains each: the sixteen
	// multiply-adds keep both FMA ports busy while the previous block's
	// transpose-reduce retires, and the four sums leave as one 256-bit
	// add+store against the baseline vector already in out.
	SUBQ $4, CX
	JL   dottail

dotloop4:
	MOVQ  (SI), AX       // qs[i..i+3].Workload → row pointers
	IMULQ BX, AX
	LEAQ  (DI)(AX*8), R9
	MOVQ  40(SI), AX
	IMULQ BX, AX
	LEAQ  (DI)(AX*8), R10
	MOVQ  80(SI), AX
	IMULQ BX, AX
	LEAQ  (DI)(AX*8), R11
	MOVQ  120(SI), AX
	IMULQ BX, AX
	LEAQ  (DI)(AX*8), DX
	VMULPD (R9), Y8, Y0
	VMULPD 32(R9), Y9, Y1
	VFMADD231PD 64(R9), Y10, Y0
	VFMADD231PD 96(R9), Y11, Y1
	VFMADD231PD 128(R9), Y12, Y0
	VFMADD231PD 160(R9), Y13, Y1
	VFMADD231PD 192(R9), Y14, Y0
	VFMADD231PD 224(R9), Y15, Y1
	VMULPD (R10), Y8, Y2
	VMULPD 32(R10), Y9, Y3
	VFMADD231PD 64(R10), Y10, Y2
	VFMADD231PD 96(R10), Y11, Y3
	VFMADD231PD 128(R10), Y12, Y2
	VFMADD231PD 160(R10), Y13, Y3
	VFMADD231PD 192(R10), Y14, Y2
	VFMADD231PD 224(R10), Y15, Y3
	VMULPD (R11), Y8, Y4
	VMULPD 32(R11), Y9, Y5
	VFMADD231PD 64(R11), Y10, Y4
	VFMADD231PD 96(R11), Y11, Y5
	VFMADD231PD 128(R11), Y12, Y4
	VFMADD231PD 160(R11), Y13, Y5
	VFMADD231PD 192(R11), Y14, Y4
	VFMADD231PD 224(R11), Y15, Y5
	VMULPD (DX), Y8, Y6
	VMULPD 32(DX), Y9, Y7
	VFMADD231PD 64(DX), Y10, Y6
	VFMADD231PD 96(DX), Y11, Y7
	VFMADD231PD 128(DX), Y12, Y6
	VFMADD231PD 160(DX), Y13, Y7
	VFMADD231PD 192(DX), Y14, Y6
	VFMADD231PD 224(DX), Y15, Y7
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y5, Y4, Y4
	VADDPD Y7, Y6, Y6
	VHADDPD Y2, Y0, Y0   // [q0+q0, q1+q1 | q0+q0, q1+q1] per 128-bit lane
	VHADDPD Y6, Y4, Y4
	VPERM2F128 $0x20, Y4, Y0, Y1 // low halves:  [s0lo, s1lo, s2lo, s3lo]
	VPERM2F128 $0x31, Y4, Y0, Y2 // high halves: [s0hi, s1hi, s2hi, s3hi]
	VADDPD Y2, Y1, Y1
	VADDPD (R8), Y1, Y1  // += baselines
	VMOVUPD Y1, (R8)
	ADDQ $160, SI        // 4·sizeof(Query)
	ADDQ $32, R8
	SUBQ $4, CX
	JGE  dotloop4

dottail:
	ADDQ $4, CX
	JLE  dotdone

dottail1:
	MOVQ  (SI), AX
	IMULQ BX, AX
	LEAQ  (DI)(AX*8), R9
	VMULPD (R9), Y8, Y0
	VMULPD 32(R9), Y9, Y1
	VMULPD 64(R9), Y10, Y2
	VMULPD 96(R9), Y11, Y3
	VFMADD231PD 128(R9), Y12, Y0
	VFMADD231PD 160(R9), Y13, Y1
	VFMADD231PD 192(R9), Y14, Y2
	VFMADD231PD 224(R9), Y15, Y3
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VHADDPD X0, X0, X0
	VMOVSD (R8), X2
	VADDSD X2, X0, X0
	VMOVSD X0, (R8)
	ADDQ $40, SI
	ADDQ $8, R8
	DECQ CX
	JNZ  dottail1

dotdone:
	VZEROUPPER
	RET

// func foldAxpyPairAVX2(peffM, vsM *float64, magM float64, peffQ, vsQ *float64, magQ float64)
//
// The interference fold's rank-32 update for both models:
// peffM += magM·vsM and peffQ += magQ·vsQ. All pointers address 32
// float64s.
TEXT ·foldAxpyPairAVX2(SB), NOSPLIT, $0-48
	MOVQ peffM+0(FP), DI
	MOVQ vsM+8(FP), SI
	VBROADCASTSD magM+16(FP), Y14
	MOVQ peffQ+24(FP), DX
	MOVQ vsQ+32(FP), R8
	VBROADCASTSD magQ+40(FP), Y15
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VFMADD231PD (SI), Y14, Y0
	VFMADD231PD 32(SI), Y14, Y1
	VFMADD231PD 64(SI), Y14, Y2
	VFMADD231PD 96(SI), Y14, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD 128(DI), Y0
	VMOVUPD 160(DI), Y1
	VMOVUPD 192(DI), Y2
	VMOVUPD 224(DI), Y3
	VFMADD231PD 128(SI), Y14, Y0
	VFMADD231PD 160(SI), Y14, Y1
	VFMADD231PD 192(SI), Y14, Y2
	VFMADD231PD 224(SI), Y14, Y3
	VMOVUPD Y0, 128(DI)
	VMOVUPD Y1, 160(DI)
	VMOVUPD Y2, 192(DI)
	VMOVUPD Y3, 224(DI)
	VMOVUPD (DX), Y4
	VMOVUPD 32(DX), Y5
	VMOVUPD 64(DX), Y6
	VMOVUPD 96(DX), Y7
	VFMADD231PD (R8), Y15, Y4
	VFMADD231PD 32(R8), Y15, Y5
	VFMADD231PD 64(R8), Y15, Y6
	VFMADD231PD 96(R8), Y15, Y7
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	VMOVUPD Y6, 64(DX)
	VMOVUPD Y7, 96(DX)
	VMOVUPD 128(DX), Y4
	VMOVUPD 160(DX), Y5
	VMOVUPD 192(DX), Y6
	VMOVUPD 224(DX), Y7
	VFMADD231PD 128(R8), Y15, Y4
	VFMADD231PD 160(R8), Y15, Y5
	VFMADD231PD 192(R8), Y15, Y6
	VFMADD231PD 224(R8), Y15, Y7
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

// Constants for expSpanAVX2. Scalars (broadcast at entry) followed by the
// Taylor coefficients replicated four-wide so the Horner FMAs can take
// them as 256-bit memory operands.
DATA expconsts<>+0(SB)/8, $0x3FF71547652B82FE   // log2(e)
DATA expconsts<>+8(SB)/8, $0x3FE62E42FEE00000   // ln2 high 40 bits
DATA expconsts<>+16(SB)/8, $0x3DEA39EF35793C76  // ln2 low correction
DATA expconsts<>+24(SB)/8, $0x3FF0000000000000  // 1.0
DATA expconsts<>+32(SB)/8, $1023                // float64 exponent bias
DATA expconsts<>+40(SB)/8, $0x7FFFFFFFFFFFFFFF  // |x| mask
DATA expconsts<>+48(SB)/8, $0x4086200000000000  // 708.0, ExpFast's guard
GLOBL expconsts<>(SB), RODATA, $56

#define COEF4(name, off, bits) \
	DATA name<>+0(SB)/8, $bits \
	DATA name<>+8(SB)/8, $bits \
	DATA name<>+16(SB)/8, $bits \
	DATA name<>+24(SB)/8, $bits \
	GLOBL name<>(SB), RODATA, $32

COEF4(expc10, 0, 0x3E927E4FB7789F5C) // 1/10!
COEF4(expc9, 0, 0x3EC71DE3A556C734)  // 1/9!
COEF4(expc8, 0, 0x3EFA01A01A01A01A)  // 1/8!
COEF4(expc7, 0, 0x3F2A01A01A01A01A)  // 1/7!
COEF4(expc6, 0, 0x3F56C16C16C16C17)  // 1/6!
COEF4(expc5, 0, 0x3F81111111111111)  // 1/5!
COEF4(expc4, 0, 0x3FA5555555555555)  // 1/4!
COEF4(expc3, 0, 0x3FC5555555555555)  // 1/3!
COEF4(expc2, 0, 0x3FE0000000000000)  // 1/2!

// func expSpanAVX2(v *float64, n int) (done int)
//
// In-place exp, four lanes at a time, over the longest prefix of v whose
// lanes all satisfy ExpFast's |x| ≤ 708 guard; returns how many elements
// were written. Stops before the first 4-lane group holding an
// out-of-range, ±Inf, or NaN lane (the quiet LE compare fails on
// unordered), leaving it untouched for the caller's scalar sweep — a +Inf
// conformal offset (infeasible span) is the common case. Same algorithm
// as the scalar ExpFast — k = round-to-even(x·log₂e), Cody–Waite
// reduction, degree-10 Taylor Horner, exact 2^k scale through the
// exponent field — so the FastExpMaxRelErr bound carries over (the FMA
// contraction only tightens the Horner roundings).
TEXT ·expSpanAVX2(SB), NOSPLIT, $0-24
	MOVQ v+0(FP), DI
	MOVQ n+8(FP), CX
	XORQ BX, BX               // elements written
	VBROADCASTSD expconsts<>+0(SB), Y15  // log2e
	VBROADCASTSD expconsts<>+8(SB), Y14  // ln2hi
	VBROADCASTSD expconsts<>+16(SB), Y13 // ln2lo
	VBROADCASTSD expconsts<>+24(SB), Y12 // 1.0
	VPBROADCASTQ expconsts<>+32(SB), Y11 // 1023
	VBROADCASTSD expconsts<>+40(SB), Y10 // abs mask
	VBROADCASTSD expconsts<>+48(SB), Y9  // 708.0
	SUBQ $4, CX
	JL   expdone

exploop:
	VMOVUPD (DI), Y0
	VANDPD Y10, Y0, Y1        // |x|
	VCMPPD $2, Y9, Y1, Y1     // |x| ≤ 708, false on NaN (LE_OS)
	VMOVMSKPD Y1, AX
	CMPL AX, $0xF
	JNE  expdone              // group has an unguarded lane: caller's turn
	VMULPD Y15, Y0, Y1        // x·log₂e
	VROUNDPD $0, Y1, Y1       // k (round to nearest even)
	VMOVAPD Y0, Y2
	VFNMADD231PD Y14, Y1, Y2  // r = x − k·ln2hi (exact: hi has 12 trailing zero bits)
	VFNMADD231PD Y13, Y1, Y2  // r −= k·ln2lo
	VMOVUPD expc10<>(SB), Y3
	VFMADD213PD expc9<>(SB), Y2, Y3 // p = p·r + c  (Horner)
	VFMADD213PD expc8<>(SB), Y2, Y3
	VFMADD213PD expc7<>(SB), Y2, Y3
	VFMADD213PD expc6<>(SB), Y2, Y3
	VFMADD213PD expc5<>(SB), Y2, Y3
	VFMADD213PD expc4<>(SB), Y2, Y3
	VFMADD213PD expc3<>(SB), Y2, Y3
	VFMADD213PD expc2<>(SB), Y2, Y3
	VFMADD213PD Y12, Y2, Y3
	VFMADD213PD Y12, Y2, Y3
	VCVTTPD2DQY Y1, X4        // k as 4×int32 (k is integral, truncation exact)
	VPMOVSXDQ X4, Y4
	VPADDQ Y11, Y4, Y4
	VPSLLQ $52, Y4, Y4        // bits of 2^k
	VMULPD Y4, Y3, Y3
	VMOVUPD Y3, (DI)
	ADDQ $32, DI
	ADDQ $4, BX
	SUBQ $4, CX
	JGE  exploop

expdone:
	MOVQ BX, done+16(FP)
	VZEROUPPER
	RET
