//go:build amd64 && gc && !purego

package tensor

// useVec reports whether this CPU and OS run the AVX kernels of
// vec_amd64.s: read once, from CPUID and XGETBV, at package
// initialization, so one binary runs everywhere. Without AVX or OS-saved
// YMM state every caller runs its Go loop, which computes the same bits.
// Nothing writes it afterwards; builds tagged purego leave the kernels
// out (vec_other.go).
var useVec = detectAVX()

func detectAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if maxID, _, _, _ := cpuid(0, 0); maxID < 1 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(osxsave|avx) != osxsave|avx {
		return false
	}
	// The OS must save and restore XMM and YMM state (XCR0 bits 1 and 2).
	eax, _ := xgetbv()
	return eax&6 == 6
}

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:noescape
func mulPair16(d0, a0, b *float64, k, n, blocks int, acc bool)

//go:noescape
func dotPair16(d0, a0, b *float64, k, n, blocks int, acc bool)

//go:noescape
func axpyVec(dst, x *float64, n int, alpha float64)

//go:noescape
func addVec(dst, x *float64, n int)
