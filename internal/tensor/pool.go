package tensor

import (
	"math/bits"
	"sync"
)

// The matrix pool recycles backing slices for the short-lived matrices the
// autodiff engine allocates every training step (op outputs, gradients,
// scratch). Slices are kept in power-of-two size classes so a request can be
// served by any previously released slice of the same class.
//
// GetPooled always returns zeroed storage, so callers may rely on the same
// invariant New provides; GetPooledUncleared skips the clear, for outputs
// the caller overwrites in full before reading. PutPooled is optional:
// storage that is never returned is simply collected by the GC.

// maxPoolClass bounds pooled slices at 1<<maxPoolClass floats (512 MiB);
// anything larger is allocated and freed normally.
const maxPoolClass = 26

var pools [maxPoolClass + 1]sync.Pool

// sizeClass returns the pool class for n floats: the smallest k with
// 1<<k >= n.
func sizeClass(n int) int {
	return bits.Len(uint(n - 1))
}

// GetPooled returns a zeroed rows x cols matrix, reusing pooled storage when
// available. Release it with PutPooled once no longer referenced.
func GetPooled(rows, cols int) *Matrix {
	m, reused := getPooled(rows, cols)
	if reused {
		clear(m.Data)
	}
	return m
}

// GetPooledUncleared is GetPooled without the clear: reused storage keeps
// whatever an earlier user left in it, so every element must be written
// before it is read.
func GetPooledUncleared(rows, cols int) *Matrix {
	m, _ := getPooled(rows, cols)
	return m
}

// getPooled returns a rows x cols matrix and whether its storage came from
// the pool (and so may hold stale values) rather than a fresh allocation.
func getPooled(rows, cols int) (*Matrix, bool) {
	n := rows * cols
	if n <= 0 {
		return New(rows, cols), false
	}
	class := sizeClass(n)
	if class > maxPoolClass {
		return New(rows, cols), false
	}
	if v := pools[class].Get(); v != nil {
		buf := *(v.(*[]float64))
		return &Matrix{Rows: rows, Cols: cols, Data: buf[:n]}, true
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, n, 1<<class)}, false
}

// PutPooled returns m's backing storage to the pool. m (and any matrix
// sharing its storage) must not be used afterwards. Matrices whose capacity
// is not a pool size class (e.g. built by New or FromSlice) are dropped for
// the GC to collect.
func PutPooled(m *Matrix) {
	if m == nil {
		return
	}
	c := cap(m.Data)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	class := bits.Len(uint(c)) - 1
	if class > maxPoolClass {
		return
	}
	buf := m.Data[:c]
	pools[class].Put(&buf)
	m.Data = nil
}
