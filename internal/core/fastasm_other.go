//go:build !amd64 || !gc || purego

package core

// Non-amd64 (or purego) builds always take the pure-Go blocked kernels.
// A variable (matching the amd64 build) so shared tests can save/restore it.
var useFastVec = false

func dotSpanAVX2(base *float64, stride int, qs *Query, n int, peff *float64, out *float64) {
	panic("core: dotSpanAVX2 without vector support")
}

func foldAxpyPairAVX2(peffM, vsM *float64, magM float64, peffQ, vsQ *float64, magQ float64) {
	panic("core: foldAxpyPairAVX2 without vector support")
}

func expSpanAVX2(v *float64, n int) (done int) {
	panic("core: expSpanAVX2 without vector support")
}
