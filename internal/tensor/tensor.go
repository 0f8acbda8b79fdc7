// Package tensor implements dense float64 matrices and the linear-algebra
// kernels used throughout the repository. It is deliberately small: 2-D
// row-major matrices with the operations needed by the autodiff engine,
// the Pitot model, and the evaluation harness.
//
// All operations are deterministic. Operations that can profit from
// parallelism (matrix multiplication) shard across goroutines when the
// problem is large enough to amortize the synchronization cost.
package tensor

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Matrix is a dense, row-major matrix of float64 values.
//
// The zero value is an empty (0x0) matrix. Matrices are mutable; operations
// ending in "Into" write into an existing destination, while the plain forms
// allocate their result.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero-initialized rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (length rows*cols, row-major) in a Matrix. The slice
// is used directly, not copied.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("tensor: ragged row %d: %d != %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Vector returns a 1 x n row vector wrapping data.
func Vector(data []float64) *Matrix { return FromSlice(1, len(data), data) }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies src into m. Panics on shape mismatch.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.assertSameShape(src, "CopyFrom")
	copy(m.Data, src.Data)
}

// Zero sets every element of m to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element of m to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// String renders small matrices for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix(%dx%d)[", m.Rows, m.Cols)
	limit := m.Rows
	if limit > 6 {
		limit = 6
	}
	for i := 0; i < limit; i++ {
		if i > 0 {
			s += "; "
		}
		cl := m.Cols
		if cl > 8 {
			cl = 8
		}
		for j := 0; j < cl; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
		if cl < m.Cols {
			s += " ..."
		}
	}
	if limit < m.Rows {
		s += "; ..."
	}
	return s + "]"
}

func (m *Matrix) assertSameShape(o *Matrix, op string) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// minParallelWork is the flop count below which MatMul stays single-threaded.
const minParallelWork = 1 << 18

// MatMul returns a*b.
func MatMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b, false)
	return out
}

// MatMulInto computes dst = a*b, or dst += a*b when accumulate is true.
// dst must be a.Rows x b.Cols and must not alias a or b. Without
// accumulate, dst is never read, so it may hold anything on entry.
func MatMulInto(dst, a, b *Matrix, accumulate bool) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dst %dx%d for %dx%d result", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	work := a.Rows * a.Cols * b.Cols
	workers := 1
	if work >= minParallelWork {
		workers = runtime.GOMAXPROCS(0)
		if workers > a.Rows {
			workers = a.Rows
		}
	}
	if workers <= 1 {
		matMulRange(dst, a, b, 0, a.Rows, accumulate)
		return
	}
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for lo := 0; lo < a.Rows; lo += chunk {
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matMulRange(dst, a, b, lo, hi, accumulate)
		}(lo, hi)
	}
	wg.Wait()
}

// matMulRange computes rows [lo,hi) of dst = a*b (dst += a*b when
// accumulate is true), two rows by four columns at a time held in
// registers. Each output element still sums its products in ascending k,
// starting from +0 (or its old value), and skips every k whose a entry is
// exactly zero, so the result is bitwise that of the i-k-j loop
//
//	for k, av := range a.Row(i) { if av != 0 { dst[i][j] += av * b[k][j] } }
//
// including where a skipped zero meets an infinite or NaN b entry.
func matMulRange(dst, a, b *Matrix, lo, hi int, accumulate bool) {
	n, bd := b.Cols, b.Data
	i := lo
	for ; i+2 <= hi; i += 2 {
		a0, a1 := a.Row(i), a.Row(i+1)
		a1 = a1[:len(a0)]
		d0, d1 := dst.Row(i), dst.Row(i+1)
		j := 0
		for ; j+4 <= n; j += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13 float64
			if accumulate {
				c00, c01, c02, c03 = d0[j], d0[j+1], d0[j+2], d0[j+3]
				c10, c11, c12, c13 = d1[j], d1[j+1], d1[j+2], d1[j+3]
			}
			off := j
			for k, x0 := range a0 {
				x1 := a1[k]
				if x0 == 0 && x1 == 0 {
					off += n
					continue
				}
				bk := bd[off : off+4 : off+4]
				b0, b1, b2, b3 := bk[0], bk[1], bk[2], bk[3]
				if x0 != 0 {
					c00 += x0 * b0
					c01 += x0 * b1
					c02 += x0 * b2
					c03 += x0 * b3
				}
				if x1 != 0 {
					c10 += x1 * b0
					c11 += x1 * b1
					c12 += x1 * b2
					c13 += x1 * b3
				}
				off += n
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = c00, c01, c02, c03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = c10, c11, c12, c13
		}
		for ; j < n; j++ {
			var c0, c1 float64
			if accumulate {
				c0, c1 = d0[j], d1[j]
			}
			for k, x0 := range a0 {
				if x0 != 0 {
					c0 += x0 * bd[k*n+j]
				}
				if x1 := a1[k]; x1 != 0 {
					c1 += x1 * bd[k*n+j]
				}
			}
			d0[j], d1[j] = c0, c1
		}
	}
	if i < hi {
		a0, d0 := a.Row(i), dst.Row(i)
		for j := 0; j < n; j++ {
			var c float64
			if accumulate {
				c = d0[j]
			}
			for k, x := range a0 {
				if x != 0 {
					c += x * bd[k*n+j]
				}
			}
			d0[j] = c
		}
	}
}

// MatMulATB returns aᵀ*b.
func MatMulATB(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulATB dims %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	MatMulATBInto(out, a, b, true)
	return out
}

// MatMulABT returns a*bᵀ without materializing the transpose.
func MatMulABT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulABT dims %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	MatMulABTInto(out, a, b, false)
	return out
}

// MatMulATBInto computes dst = aᵀ*b (or dst += aᵀ*b when accumulate is
// true). aᵀ is materialized in pooled scratch and fed to MatMul's blocked
// kernel: element (i, j) sums a[k][i]·b[k][j] in ascending k, skipping
// exact-zero a[k][i], exactly as a k-i-j loop over a's rows does.
func MatMulATBInto(dst, a, b *Matrix, accumulate bool) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulATB dims %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATB dst %dx%d for %dx%d result", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	at := GetPooledUncleared(a.Cols, a.Rows)
	transposeInto(at, a)
	matMulRange(dst, at, b, 0, at.Rows, accumulate)
	PutPooled(at)
}

// transposeInto writes mᵀ into t (m.Cols x m.Rows).
func transposeInto(t, m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			t.Data[j*t.Cols+i] = v
		}
	}
}

// MatMulABTInto computes dst = a*bᵀ (or dst += a*bᵀ when accumulate is
// true) without materializing the transpose. Each element is one dot
// product summed in ascending k from +0, then stored (or added); four of
// them run as independent chains so the adds overlap instead of waiting
// on one another.
func MatMulABTInto(dst, a, b *Matrix, accumulate bool) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulABT dims %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulABT dst %dx%d for %dx%d result", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			s0, s1, s2, s3 := dot4(arow, b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3))
			if accumulate {
				drow[j] += s0
				drow[j+1] += s1
				drow[j+2] += s2
				drow[j+3] += s3
			} else {
				drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
			}
		}
		for ; j < b.Rows; j++ {
			s := dot(arow, b.Row(j))
			if accumulate {
				drow[j] += s
			} else {
				drow[j] = s
			}
		}
	}
}

// dot returns Σ_k x[k]·y[k], summed in ascending k from +0.
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s float64
	for k, v := range x {
		s += v * y[k]
	}
	return s
}

// dot4 returns the dot products of x with y0..y3 as four independent
// chains, each summed in ascending k from +0 like dot.
func dot4(x, y0, y1, y2, y3 []float64) (s0, s1, s2, s3 float64) {
	y0, y1, y2, y3 = y0[:len(x)], y1[:len(x)], y2[:len(x)], y3[:len(x)]
	for k, v := range x {
		s0 += v * y0[k]
		s1 += v * y1[k]
		s2 += v * y2[k]
		s3 += v * y3[k]
	}
	return
}

// Add returns a+b elementwise.
func Add(a, b *Matrix) *Matrix {
	a.assertSameShape(b, "Add")
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

// AddInto computes dst = a+b elementwise.
func AddInto(dst, a, b *Matrix) {
	a.assertSameShape(b, "AddInto")
	dst.assertSameShape(a, "AddInto")
	for i, v := range a.Data {
		dst.Data[i] = v + b.Data[i]
	}
}

// AddInPlace computes a += b elementwise.
func AddInPlace(a, b *Matrix) {
	a.assertSameShape(b, "AddInPlace")
	for i, v := range b.Data {
		a.Data[i] += v
	}
}

// AddColsInPlace computes dst[:, lo:lo+src.Cols] += src, the columns of
// dst outside that block untouched.
func AddColsInPlace(dst, src *Matrix, lo int) {
	if src.Rows != dst.Rows || lo < 0 || lo+src.Cols > dst.Cols {
		panic(fmt.Sprintf("tensor: AddColsInPlace %dx%d at column %d of %dx%d",
			src.Rows, src.Cols, lo, dst.Rows, dst.Cols))
	}
	for i := 0; i < src.Rows; i++ {
		drow := dst.Row(i)[lo : lo+src.Cols]
		for j, v := range src.Row(i) {
			drow[j] += v
		}
	}
}

// Sub returns a-b elementwise.
func Sub(a, b *Matrix) *Matrix {
	a.assertSameShape(b, "Sub")
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v - b.Data[i]
	}
	return out
}

// SubInto computes dst = a-b elementwise.
func SubInto(dst, a, b *Matrix) {
	a.assertSameShape(b, "SubInto")
	dst.assertSameShape(a, "SubInto")
	for i, v := range a.Data {
		dst.Data[i] = v - b.Data[i]
	}
}

// Mul returns the elementwise (Hadamard) product a∘b.
func Mul(a, b *Matrix) *Matrix {
	a.assertSameShape(b, "Mul")
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v * b.Data[i]
	}
	return out
}

// MulInto computes dst = a∘b elementwise.
func MulInto(dst, a, b *Matrix) {
	a.assertSameShape(b, "MulInto")
	dst.assertSameShape(a, "MulInto")
	for i, v := range a.Data {
		dst.Data[i] = v * b.Data[i]
	}
}

// Scale returns c*a.
func Scale(a *Matrix, c float64) *Matrix {
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = c * v
	}
	return out
}

// ScaleInto computes dst = c*a.
func ScaleInto(dst, a *Matrix, c float64) {
	dst.assertSameShape(a, "ScaleInto")
	for i, v := range a.Data {
		dst.Data[i] = c * v
	}
}

// ScaleInPlace computes a *= c.
func ScaleInPlace(a *Matrix, c float64) {
	for i := range a.Data {
		a.Data[i] *= c
	}
}

// AXPY computes dst += c*src elementwise.
func AXPY(dst *Matrix, c float64, src *Matrix) {
	dst.assertSameShape(src, "AXPY")
	for i, v := range src.Data {
		dst.Data[i] += c * v
	}
}

// AddRowVector returns m with the 1 x Cols row vector v added to every row.
func AddRowVector(m, v *Matrix) *Matrix {
	if v.Rows != 1 || v.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector %dx%d + %dx%d", m.Rows, m.Cols, v.Rows, v.Cols))
	}
	out := New(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		orow := out.Row(i)
		for j, x := range row {
			orow[j] = x + v.Data[j]
		}
	}
	return out
}

// AddRowVectorInto computes dst = m + v broadcast over rows.
func AddRowVectorInto(dst, m, v *Matrix) {
	if v.Rows != 1 || v.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVectorInto %dx%d + %dx%d", m.Rows, m.Cols, v.Rows, v.Cols))
	}
	dst.assertSameShape(m, "AddRowVectorInto")
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		drow := dst.Row(i)
		for j, x := range row {
			drow[j] = x + v.Data[j]
		}
	}
}

// Apply returns f applied elementwise to m.
func Apply(m *Matrix, f func(float64) float64) *Matrix {
	out := New(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = f(v)
	}
	return out
}

// ApplyInto computes dst = f applied elementwise to m. dst may alias m.
func ApplyInto(dst, m *Matrix, f func(float64) float64) {
	dst.assertSameShape(m, "ApplyInto")
	for i, v := range m.Data {
		dst.Data[i] = f(v)
	}
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	var s float64
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty matrices).
func (m *Matrix) Mean() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return m.Sum() / float64(len(m.Data))
}

// RowSums returns a Rows x 1 matrix of per-row sums.
func (m *Matrix) RowSums() *Matrix {
	out := New(m.Rows, 1)
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			s += v
		}
		out.Data[i] = s
	}
	return out
}

// RowSumsInto computes dst = per-row sums of m (dst is Rows x 1).
func (m *Matrix) RowSumsInto(dst *Matrix) {
	if dst.Rows != m.Rows || dst.Cols != 1 {
		panic(fmt.Sprintf("tensor: RowSumsInto dst %dx%d for %d rows", dst.Rows, dst.Cols, m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			s += v
		}
		dst.Data[i] = s
	}
}

// ColSums returns a 1 x Cols matrix of per-column sums.
func (m *Matrix) ColSums() *Matrix {
	out := New(1, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			out.Data[j] += v
		}
	}
	return out
}

// AddColSums accumulates m's per-column sums into the 1 x Cols matrix dst,
// fusing ColSums + AddInPlace for bias gradients.
func AddColSums(dst, m *Matrix) {
	if dst.Rows != 1 || dst.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: AddColSums dst %dx%d for %d cols", dst.Rows, dst.Cols, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			dst.Data[j] += v
		}
	}
}

// RowDot returns the Rows x 1 matrix of per-row inner products Σ_j a_ij·b_ij,
// fusing RowSums(Mul(a, b)) without the Rows x Cols intermediate.
func RowDot(a, b *Matrix) *Matrix {
	out := New(a.Rows, 1)
	RowDotInto(out, a, b)
	return out
}

// RowDotInto computes dst = per-row inner products of a and b (dst Rows x
// 1). Four rows run as independent chains; each sums in ascending column
// order from +0.
func RowDotInto(dst, a, b *Matrix) {
	a.assertSameShape(b, "RowDotInto")
	if dst.Rows != a.Rows || dst.Cols != 1 {
		panic(fmt.Sprintf("tensor: RowDotInto dst %dx%d for %d rows", dst.Rows, dst.Cols, a.Rows))
	}
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		dst.Data[i], dst.Data[i+1], dst.Data[i+2], dst.Data[i+3] = rowDot4(a, b, i)
	}
	for ; i < a.Rows; i++ {
		dst.Data[i] = dot(a.Row(i), b.Row(i))
	}
}

// rowDot4 returns the inner products of rows i..i+3 of a and b.
func rowDot4(a, b *Matrix, i int) (s0, s1, s2, s3 float64) {
	a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
	b0, b1, b2, b3 := b.Row(i), b.Row(i+1), b.Row(i+2), b.Row(i+3)
	n := len(a0)
	a1, a2, a3 = a1[:n], a2[:n], a3[:n]
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	for k, v := range a0 {
		s0 += v * b0[k]
		s1 += a1[k] * b1[k]
		s2 += a2[k] * b2[k]
		s3 += a3[k] * b3[k]
	}
	return
}

// MaxAbs returns the largest absolute value in m (0 for empty matrices).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// FrobeniusNorm returns sqrt(Σ m_ij²).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of two equal-shape matrices viewed as vectors.
func Dot(a, b *Matrix) float64 {
	a.assertSameShape(b, "Dot")
	return dot(a.Data, b.Data)
}

// GatherRows returns the matrix whose i-th row is m.Row(idx[i]).
func GatherRows(m *Matrix, idx []int) *Matrix {
	out := New(len(idx), m.Cols)
	GatherRowsInto(out, m, idx)
	return out
}

// GatherRowsInto computes dst[i] = m.Row(idx[i]).
func GatherRowsInto(dst, m *Matrix, idx []int) {
	if dst.Rows != len(idx) || dst.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: GatherRowsInto dst %dx%d for %d idx of %d cols",
			dst.Rows, dst.Cols, len(idx), m.Cols))
	}
	for i, r := range idx {
		copy(dst.Row(i), m.Row(r))
	}
}

// GatherCols returns the len(idx) x (hi-lo) matrix whose i-th row is
// m.Row(idx[i])[lo:hi], fusing GatherRows + SliceCols so multi-head lookups
// copy only the head's block instead of the full row.
func GatherCols(m *Matrix, idx []int, lo, hi int) *Matrix {
	out := New(len(idx), hi-lo)
	GatherColsInto(out, m, idx, lo, hi)
	return out
}

// GatherColsInto computes dst[i] = m.Row(idx[i])[lo:hi].
func GatherColsInto(dst, m *Matrix, idx []int, lo, hi int) {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: GatherCols [%d,%d) of %d cols", lo, hi, m.Cols))
	}
	if dst.Rows != len(idx) || dst.Cols != hi-lo {
		panic(fmt.Sprintf("tensor: GatherColsInto dst %dx%d for %d idx of %d cols",
			dst.Rows, dst.Cols, len(idx), hi-lo))
	}
	for i, r := range idx {
		copy(dst.Row(i), m.Row(r)[lo:hi])
	}
}

// ScatterAddCols adds each row of src into dst.Row(idx[i])[lo:lo+src.Cols).
// The backward pass of GatherCols.
func ScatterAddCols(dst, src *Matrix, idx []int, lo int) {
	if src.Rows != len(idx) || lo < 0 || lo+src.Cols > dst.Cols {
		panic(fmt.Sprintf("tensor: ScatterAddCols src %dx%d idx %d into %dx%d at %d",
			src.Rows, src.Cols, len(idx), dst.Rows, dst.Cols, lo))
	}
	for i, r := range idx {
		drow := dst.Row(r)[lo : lo+src.Cols]
		for j, v := range src.Row(i) {
			drow[j] += v
		}
	}
}

// ScatterAddRows adds each row of src into dst.Row(idx[i]). Used for the
// backward pass of GatherRows.
func ScatterAddRows(dst, src *Matrix, idx []int) {
	if src.Rows != len(idx) || src.Cols != dst.Cols {
		panic(fmt.Sprintf("tensor: ScatterAddRows src %dx%d idx %d dst %dx%d",
			src.Rows, src.Cols, len(idx), dst.Rows, dst.Cols))
	}
	for i, r := range idx {
		drow := dst.Row(r)
		for j, v := range src.Row(i) {
			drow[j] += v
		}
	}
}

// ConcatCols returns [a | b], the column-wise concatenation.
func ConcatCols(a, b *Matrix) *Matrix {
	out := New(a.Rows, a.Cols+b.Cols)
	ConcatColsInto(out, a, b)
	return out
}

// ConcatColsInto computes dst = [a | b].
func ConcatColsInto(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: ConcatCols rows %d vs %d", a.Rows, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != a.Cols+b.Cols {
		panic(fmt.Sprintf("tensor: ConcatColsInto dst %dx%d for %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols+b.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		row := dst.Row(i)
		copy(row[:a.Cols], a.Row(i))
		copy(row[a.Cols:], b.Row(i))
	}
}

// SliceCols returns columns [lo,hi) of m as a copy.
func SliceCols(m *Matrix, lo, hi int) *Matrix {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) of %d cols", lo, hi, m.Cols))
	}
	out := New(m.Rows, hi-lo)
	SliceColsInto(out, m, lo, hi)
	return out
}

// SliceColsInto computes dst = columns [lo,hi) of m.
func SliceColsInto(dst, m *Matrix, lo, hi int) {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: SliceColsInto [%d,%d) of %d cols", lo, hi, m.Cols))
	}
	if dst.Rows != m.Rows || dst.Cols != hi-lo {
		panic(fmt.Sprintf("tensor: SliceColsInto dst %dx%d for %dx%d",
			dst.Rows, dst.Cols, m.Rows, hi-lo))
	}
	for i := 0; i < m.Rows; i++ {
		copy(dst.Row(i), m.Row(i)[lo:hi])
	}
}

// Equal reports whether a and b have the same shape and elements within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// HasNaN reports whether any element is NaN or ±Inf.
func (m *Matrix) HasNaN() bool {
	for _, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}
