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

// identityShapes are (rows, inner, cols) triples around the Go kernels'
// 2×4 tile and the vector kernels' 2×16 block: empty and single-element
// operands, every remainder of 2 and 4, 16, 17, 33 and 160 columns with
// even and odd row counts, an empty inner dimension under a full block,
// and the tower shapes of the default model.
var identityShapes = [][3]int{
	{0, 3, 5}, {3, 0, 5}, {1, 1, 1}, {1, 7, 3}, {2, 4, 4}, {3, 5, 7},
	{5, 9, 6}, {7, 13, 9}, {11, 3, 17}, {48, 128, 256}, {49, 33, 130},
	{2, 5, 16}, {3, 6, 16}, {4, 9, 17}, {5, 2, 33}, {6, 31, 33},
	{7, 12, 160}, {1, 4, 16}, {4, 0, 16}, {5, 0, 33},
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

// poisonLeft puts a NaN into about one left-operand entry in forty,
// after infectSkipped has read the zero pattern. The Go kernels multiply
// a NaN like any nonzero entry; a zero test that takes an unordered
// compare for "equal" would skip it and leave its outputs finite. A NaN
// turns its whole output row NaN, so the product tests run every shape
// twice: a clean pass, where every element is compared as a finite (or
// ±Inf) value, and then a pass with NaN in the left operand.
func poisonLeft(rng *rand.Rand, a *Matrix) {
	for i := range a.Data {
		if rng.Intn(40) == 0 {
			a.Data[i] = math.NaN()
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

// skipUnlessDefaultAMD64 limits bitwise kernel comparisons to amd64. Its
// vector kernels round every product before adding it (VMULPD, then
// VADDPD), and its default build (GOAMD64=v1) never fuses a multiply and
// an add in Go code either. Other architectures may contract a*b+c into
// one FMA in one loop and not in the other. On a CPU with AVX these tests
// check the vector kernels; run them with -tags purego to check the Go
// kernels, which other CPUs and architectures run.
func skipUnlessDefaultAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("bitwise kernel identity is checked on amd64")
	}
}

// withNaN labels a product identity check by its pass.
func withNaN(what string, nan bool) string {
	if nan {
		return what + " (NaN in the left operand)"
	}
	return what
}

func TestKernelIdentityMatMul(t *testing.T) {
	skipUnlessDefaultAMD64(t)
	rng := rand.New(rand.NewSource(1))
	for _, nan := range []bool{false, true} {
		for _, sh := range identityShapes {
			m, k, n := sh[0], sh[1], sh[2]
			for _, acc := range []bool{false, true} {
				a := zeroHeavy(rng, m, k, false)
				b := randMatrix(rng, k, n)
				infectSkipped(a, b, true)
				if nan {
					poisonLeft(rng, a)
				}
				want := startDst(rng, m, n, acc)
				got := want.Clone()
				refMatMulInto(want, a, b, acc)
				MatMulInto(got, a, b, acc)
				requireBitwise(t, withNaN("MatMulInto", nan), got, want)
			}
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
	for _, nan := range []bool{false, true} {
		for _, sh := range [][3]int{{67, 61, 65}, {129, 64, 33}} {
			m, k, n := sh[0], sh[1], sh[2]
			if m*k*n < minParallelWork {
				t.Fatalf("shape %v below the parallel threshold", sh)
			}
			for _, acc := range []bool{false, true} {
				a := zeroHeavy(rng, m, k, false)
				b := randMatrix(rng, k, n)
				infectSkipped(a, b, true)
				if nan {
					poisonLeft(rng, a)
				}
				want := startDst(rng, m, n, acc)
				got := want.Clone()
				refMatMulInto(want, a, b, acc)
				MatMulInto(got, a, b, acc)
				requireBitwise(t, withNaN("MatMulInto (parallel)", nan), got, want)
			}
		}
	}
}

func TestKernelIdentityMatMulATB(t *testing.T) {
	skipUnlessDefaultAMD64(t)
	rng := rand.New(rand.NewSource(3))
	for _, nan := range []bool{false, true} {
		for _, sh := range identityShapes {
			// dst = aᵀ·b is sh[0] x sh[2]; a and b share sh[1] rows.
			m, k, n := sh[0], sh[1], sh[2]
			for _, acc := range []bool{false, true} {
				a := zeroHeavy(rng, k, m, true)
				b := randMatrix(rng, k, n)
				infectSkipped(a, b, false)
				if nan {
					poisonLeft(rng, a)
				}
				want := startDst(rng, m, n, acc)
				got := want.Clone()
				refMatMulATBInto(want, a, b, acc)
				MatMulATBInto(got, a, b, acc)
				requireBitwise(t, withNaN("MatMulATBInto", nan), got, want)
			}
		}
	}
}

func TestKernelIdentityMatMulABT(t *testing.T) {
	skipUnlessDefaultAMD64(t)
	rng := rand.New(rand.NewSource(4))
	for _, nan := range []bool{false, true} {
		for _, sh := range identityShapes {
			// dst = a·bᵀ is sh[0] x sh[2]; a and b share sh[1] columns.
			m, k, n := sh[0], sh[1], sh[2]
			for _, acc := range []bool{false, true} {
				a := zeroHeavy(rng, m, k, false)
				b := zeroHeavy(rng, n, k, false)
				if nan {
					poisonLeft(rng, a)
				}
				want := startDst(rng, m, n, acc)
				got := want.Clone()
				refMatMulABTInto(want, a, b, acc)
				MatMulABTInto(got, a, b, acc)
				requireBitwise(t, withNaN("MatMulABTInto", nan), got, want)
			}
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

// rowKernelLengths cover every remainder of the row kernels' eight- and
// four-wide steps, below and above one step, and the rank and tower
// widths of the default model.
var rowKernelLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 32, 160}

// specialRow fills a slice with normal values and, in about half the
// entries, −0, +0, +Inf, −Inf or, when withNaN, NaN. NaN goes only into
// right-hand operands (x and the scale), so no add or multiply meets two
// NaNs of different payloads: which one the hardware keeps then depends
// on an operand order that neither loop fixes.
func specialRow(rng *rand.Rand, n int, withNaN bool) []float64 {
	specials := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN()}
	if !withNaN {
		specials = specials[:4]
	}
	row := make([]float64, n)
	for i := range row {
		if rng.Intn(2) == 0 {
			row[i] = specials[rng.Intn(len(specials))]
		} else {
			row[i] = rng.NormFloat64()
		}
	}
	return row
}

func TestKernelIdentityAddScaled(t *testing.T) {
	skipUnlessDefaultAMD64(t)
	rng := rand.New(rand.NewSource(8))
	scales := []float64{1.5, -0.3, math.Copysign(0, -1), 0, math.Inf(1), math.NaN()}
	for _, n := range rowKernelLengths {
		for _, c := range scales {
			x := specialRow(rng, n, true)
			want := specialRow(rng, n, false)
			got := append([]float64(nil), want...)
			for j, v := range x {
				want[j] += c * v
			}
			AddScaled(got, c, x)
			requireBitwise(t, "AddScaled", Vector(got), Vector(want))
		}
	}
}

// TestKernelIdentityAddRows checks the row-add kernel through its two
// callers, ScatterAddCols and AddColsInPlace, against the plain loop.
func TestKernelIdentityAddRows(t *testing.T) {
	skipUnlessDefaultAMD64(t)
	rng := rand.New(rand.NewSource(9))
	for _, n := range rowKernelLengths {
		const rows, lo = 3, 2
		src := New(rows, n)
		for i := 0; i < rows; i++ {
			copy(src.Row(i), specialRow(rng, n, true))
		}
		dst := New(rows, lo+n+1)
		for i := 0; i < rows; i++ {
			copy(dst.Row(i), specialRow(rng, dst.Cols, false))
		}
		want := dst.Clone()
		for i := 0; i < rows; i++ {
			wrow := want.Row(i)[lo : lo+n]
			for j, v := range src.Row(i) {
				wrow[j] += v
			}
		}
		got := dst.Clone()
		AddColsInPlace(got, src, lo)
		requireBitwise(t, "AddColsInPlace", got, want)

		// Rows 2, 0, 2: a repeated index adds twice, in order.
		idx := []int{2, 0, 2}
		want = dst.Clone()
		for i, r := range idx {
			wrow := want.Row(r)[lo : lo+n]
			for j, v := range src.Row(i) {
				wrow[j] += v
			}
		}
		got = dst.Clone()
		ScatterAddCols(got, src, idx, lo)
		requireBitwise(t, "ScatterAddCols", got, want)
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
// tower pass over towerShapes, on this build's kernels against the
// reference loops, and reports ns per multiply-add: the forward product
// X·W, the weight gradient Xᵀ·dY and the input gradient dY·Wᵀ, the last
// two accumulating as the backward pass does. The kernels' arm is named
// vector where the CPU runs the AVX kernels and blocked where it runs the
// Go ones (always under -tags purego). Run at -cpu 1 for the single-core
// rate; the forward product of the widest layers shards across
// goroutines above one P.
func BenchmarkTowerKernels(b *testing.B) {
	type kernel func(dst, a, b *Matrix, accumulate bool)
	built := "blocked"
	if useVec {
		built = "vector"
	}
	impls := []struct {
		name          string
		mm, atb, abtK kernel
	}{
		{built, MatMulInto, MatMulATBInto, MatMulABTInto},
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
