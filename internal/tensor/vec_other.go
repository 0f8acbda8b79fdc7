//go:build !amd64 || !gc || purego

package tensor

// Other architectures, and builds tagged purego, run only the Go kernels.
const useVec = false

func mulPair16(d0, a0, b *float64, k, n, blocks int, acc bool) {
	panic("tensor: no vector kernels in this build")
}

func dotPair16(d0, a0, b *float64, k, n, blocks int, acc bool) {
	panic("tensor: no vector kernels in this build")
}

func axpyVec(dst, x *float64, n int, alpha float64) {
	panic("tensor: no vector kernels in this build")
}

func addVec(dst, x *float64, n int) {
	panic("tensor: no vector kernels in this build")
}
