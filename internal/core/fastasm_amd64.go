//go:build amd64 && gc && !purego

package core

import "unsafe"

// The span kernels in fastasm_amd64.s read Query.Workload at offset 0 and
// advance by the struct size; both break loudly here if the layout moves.
var (
	_ [unsafe.Sizeof(Query{}) - 40]byte
	_ [40 - unsafe.Sizeof(Query{})]byte
	_ [0 - unsafe.Offsetof(Query{}.Workload)]byte
)

// useFastVec gates the AVX2+FMA span kernels. Runtime-detected so the
// same binary runs everywhere; the pure-Go blocked kernels take over when
// the CPU (or OS ymm state) can't. Variable, not constant, so tests can
// force the fallback path on capable machines.
var useFastVec = detectFastVec()

func detectFastVec() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	_, _, c, _ := cpuid(1, 0)
	if c&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	// OS must save/restore xmm+ymm state (XCR0 bits 1 and 2).
	if eax, _ := xgetbv(); eax&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// dotSpanAVX2 adds base[qs[i].Workload*stride : +32]·peff into out[i] for
// each of the n queries. peff must hold ≥ 32 elements; out arrives with
// the baseline sums already in place.
//
//go:noescape
func dotSpanAVX2(base *float64, stride int, qs *Query, n int, peff *float64, out *float64)

// foldAxpyPairAVX2 applies the interference fold's rank-32 update for
// both models: peffM += magM·vsM, peffQ += magQ·vsQ (32 float64s each).
//
//go:noescape
func foldAxpyPairAVX2(peffM, vsM *float64, magM float64, peffQ, vsQ *float64, magQ float64)

// expSpanAVX2 exponentiates in place, four lanes per iteration, the
// longest prefix of v[0:n] whose lanes all pass ExpFast's |x| ≤ 708
// guard, and returns how many elements it wrote (a multiple of 4). The
// expSpan wrapper finishes the rest — tail and unguarded values — with
// the scalar kernel.
//
//go:noescape
func expSpanAVX2(v *float64, n int) (done int)
