package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The reference kernels below are the straightforward loops the blocked
// kernels replaced. Every blocked kernel must reproduce them bit for bit:
// the same summation order for every output element, the same skip of
// exact-zero left-operand entries in the products that accumulate into
// the destination, and the same starting value (+0, or the destination
// when accumulating).

func refMatMulInto(dst, a, b *Matrix, accumulate bool) {
	if !accumulate {
		dst.Zero()
	}
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func refMatMulATBInto(dst, a, b *Matrix, accumulate bool) {
	if !accumulate {
		dst.Zero()
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Row(i)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func refMatMulABTInto(dst, a, b *Matrix, accumulate bool) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float64
			for k, av := range arow {
				s += av * brow[k]
			}
			if accumulate {
				drow[j] += s
			} else {
				drow[j] = s
			}
		}
	}
}

func refRowDotInto(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		brow := b.Row(i)
		var s float64
		for k, av := range arow {
			s += av * brow[k]
		}
		dst.Data[i] = s
	}
}

// identityShapes are (rows, inner, cols) triples around the 2×4 tile:
// empty and single-element operands, every remainder of 2 and 4, and the
// tower shapes of the default model.
var identityShapes = [][3]int{
	{0, 3, 5}, {3, 0, 5}, {1, 1, 1}, {1, 7, 3}, {2, 4, 4}, {3, 5, 7},
	{5, 9, 6}, {7, 13, 9}, {11, 3, 17}, {48, 128, 256}, {49, 33, 130},
}

// zeroHeavy fills a matrix with normal values, exact +0 and −0 in about a
// quarter of the entries each, and a few whole zero columns (or rows, when
// rowsZero), the pattern of a post-ReLU activation or a skipped gradient.
func zeroHeavy(rng *rand.Rand, rows, cols int, rowsZero bool) *Matrix {
	m := randMatrix(rng, rows, cols)
	for i := range m.Data {
		switch rng.Intn(4) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		}
	}
	for z := 0; z < 2; z++ {
		if rowsZero && rows > 0 {
			r := rng.Intn(rows)
			for j := 0; j < cols; j++ {
				m.Data[r*cols+j] = math.Copysign(0, float64(j%2*2-1))
			}
		} else if !rowsZero && cols > 0 {
			c := rng.Intn(cols)
			for i := 0; i < rows; i++ {
				m.Data[i*cols+c] = math.Copysign(0, float64(i%2*2-1))
			}
		}
	}
	return m
}

// infectSkipped puts +Inf into the right operand wherever a zero-skip in
// the left operand hides it: rows of b whose index k is an all-zero column
// (kIsCol) or row of a. A kernel that multiplies a skipped zero by its
// partner turns the output NaN.
func infectSkipped(a, b *Matrix, kIsCol bool) {
	if kIsCol {
		a = a.Transpose()
	}
	for k := 0; k < a.Rows && b.Cols > 0; k++ {
		zero := true
		for _, v := range a.Row(k) {
			zero = zero && v == 0
		}
		if zero {
			b.Data[k*b.Cols] = math.Inf(1)
		}
	}
}

// startDst returns the destination a kernel runs on: NaN everywhere when
// it must not read it, else normal values with −0 and +0 mixed in, which
// an accumulation that starts from a different zero would flip.
func startDst(rng *rand.Rand, rows, cols int, accumulate bool) *Matrix {
	d := New(rows, cols)
	for i := range d.Data {
		switch {
		case !accumulate:
			d.Data[i] = math.NaN()
		case i%3 == 0:
			d.Data[i] = math.Copysign(0, -1)
		case i%3 == 1:
			d.Data[i] = 0
		default:
			d.Data[i] = rng.NormFloat64()
		}
	}
	return d
}

func requireBitwise(t *testing.T, what string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d (%d,%d) = %v (%#x), want %v (%#x)", what, i,
				i/want.Cols, i%want.Cols, got.Data[i], math.Float64bits(got.Data[i]),
				want.Data[i], math.Float64bits(want.Data[i]))
		}
	}
}

// skipUnlessDefaultAMD64 limits bitwise kernel comparisons to amd64, whose
// default build (GOAMD64=v1) never fuses a multiply and an add: other
// architectures may contract a*b+c into one FMA in one loop and not in
// the other.
func skipUnlessDefaultAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("bitwise kernel identity is checked on amd64")
	}
}

func TestKernelIdentityMatMul(t *testing.T) {
	skipUnlessDefaultAMD64(t)
	rng := rand.New(rand.NewSource(1))
	for _, sh := range identityShapes {
		m, k, n := sh[0], sh[1], sh[2]
		for _, acc := range []bool{false, true} {
			a := zeroHeavy(rng, m, k, false)
			b := randMatrix(rng, k, n)
			infectSkipped(a, b, true)
			want := startDst(rng, m, n, acc)
			got := want.Clone()
			refMatMulInto(want, a, b, acc)
			MatMulInto(got, a, b, acc)
			requireBitwise(t, "MatMulInto", got, want)
		}
	}
}

// TestKernelIdentityMatMulParallel runs MatMulInto above the goroutine
// threshold with at least two Ps, so the row-sharded path is the one
// compared.
func TestKernelIdentityMatMulParallel(t *testing.T) {
	skipUnlessDefaultAMD64(t)
	if prev := runtime.GOMAXPROCS(0); prev < 2 {
		runtime.GOMAXPROCS(2)
		defer runtime.GOMAXPROCS(prev)
	}
	rng := rand.New(rand.NewSource(2))
	for _, sh := range [][3]int{{67, 61, 65}, {129, 64, 33}} {
		m, k, n := sh[0], sh[1], sh[2]
		if m*k*n < minParallelWork {
			t.Fatalf("shape %v below the parallel threshold", sh)
		}
		for _, acc := range []bool{false, true} {
			a := zeroHeavy(rng, m, k, false)
			b := randMatrix(rng, k, n)
			infectSkipped(a, b, true)
			want := startDst(rng, m, n, acc)
			got := want.Clone()
			refMatMulInto(want, a, b, acc)
			MatMulInto(got, a, b, acc)
			requireBitwise(t, "MatMulInto (parallel)", got, want)
		}
	}
}

func TestKernelIdentityMatMulATB(t *testing.T) {
	skipUnlessDefaultAMD64(t)
	rng := rand.New(rand.NewSource(3))
	for _, sh := range identityShapes {
		// dst = aᵀ·b is sh[0] x sh[2]; a and b share sh[1] rows.
		m, k, n := sh[0], sh[1], sh[2]
		for _, acc := range []bool{false, true} {
			a := zeroHeavy(rng, k, m, true)
			b := randMatrix(rng, k, n)
			infectSkipped(a, b, false)
			want := startDst(rng, m, n, acc)
			got := want.Clone()
			refMatMulATBInto(want, a, b, acc)
			MatMulATBInto(got, a, b, acc)
			requireBitwise(t, "MatMulATBInto", got, want)
		}
	}
}

func TestKernelIdentityMatMulABT(t *testing.T) {
	skipUnlessDefaultAMD64(t)
	rng := rand.New(rand.NewSource(4))
	for _, sh := range identityShapes {
		// dst = a·bᵀ is sh[0] x sh[2]; a and b share sh[1] columns.
		m, k, n := sh[0], sh[1], sh[2]
		for _, acc := range []bool{false, true} {
			a := zeroHeavy(rng, m, k, false)
			b := zeroHeavy(rng, n, k, false)
			want := startDst(rng, m, n, acc)
			got := want.Clone()
			refMatMulABTInto(want, a, b, acc)
			MatMulABTInto(got, a, b, acc)
			requireBitwise(t, "MatMulABTInto", got, want)
		}
	}
}

func TestKernelIdentityRowDot(t *testing.T) {
	skipUnlessDefaultAMD64(t)
	rng := rand.New(rand.NewSource(5))
	for _, sh := range identityShapes {
		m, k := sh[0], sh[1]
		a := zeroHeavy(rng, m, k, false)
		b := zeroHeavy(rng, m, k, true)
		want := startDst(rng, m, 1, false)
		got := want.Clone()
		refRowDotInto(want, a, b)
		RowDotInto(got, a, b)
		requireBitwise(t, "RowDotInto", got, want)
	}
}

// towerShapes are the (rows, inner, cols) of the three layers of each
// tower of the default 8-head quantile model on the benchmark dataset: 48
// workloads with 55 features plus one learned feature, 80 platforms with
// 37 plus one, width 64, rank 32, 8 heads and s = 2 interference types.
var towerShapes = [][3]int{
	{48, 56, 64}, {48, 64, 64}, {48, 64, 256},
	{80, 38, 64}, {80, 64, 64}, {80, 64, 160},
}

// BenchmarkTowerKernels times each matrix product of a training step's
// tower pass over towerShapes, blocked against the reference loops, and
// reports ns per multiply-add: the forward product X·W, the weight
// gradient Xᵀ·dY and the input gradient dY·Wᵀ, the last two accumulating
// as the backward pass does. Run at -cpu 1 for the single-core rate; the
// forward product of the widest layers shards across goroutines above
// one P.
func BenchmarkTowerKernels(b *testing.B) {
	type kernel func(dst, a, b *Matrix, accumulate bool)
	impls := []struct {
		name          string
		mm, atb, abtK kernel
	}{
		{"blocked", MatMulInto, MatMulATBInto, MatMulABTInto},
		{"loop", refMatMulInto, refMatMulATBInto, refMatMulABTInto},
	}
	rng := rand.New(rand.NewSource(7))
	type operands struct{ x, w, y, dy, dw, dx *Matrix }
	ops := make([]operands, len(towerShapes))
	madds := 0
	for i, sh := range towerShapes {
		m, k, n := sh[0], sh[1], sh[2]
		ops[i] = operands{
			x: randMatrix(rng, m, k), w: randMatrix(rng, k, n), y: New(m, n),
			dy: randMatrix(rng, m, n), dw: New(k, n), dx: New(m, k),
		}
		madds += m * k * n
	}
	for _, kern := range []string{"matmul", "atb", "abt"} {
		for _, impl := range impls {
			b.Run(kern+"/"+impl.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, o := range ops {
						switch kern {
						case "matmul":
							impl.mm(o.y, o.x, o.w, false)
						case "atb":
							impl.atb(o.dw, o.x, o.dy, true)
						case "abt":
							impl.abtK(o.dx, o.dy, o.w, true)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(madds), "ns/madd")
			})
		}
	}
}
