// Package autodiff implements a small tape-based reverse-mode automatic
// differentiation engine over dense matrices (internal/tensor).
//
// A computation is expressed by composing Values; calling Backward on a
// scalar Value populates the Grad field of every Value that requires
// gradients. The engine supports exactly the operations needed by the Pitot
// model and its baselines: affine layers, activations, gathers over
// embedding tables, column slicing/concatenation, reductions, and the
// squared and pinball losses.
//
// The design intentionally mirrors "micrograd"-style tapes: each op records
// a closure that propagates the output gradient to its inputs. Graphs are
// built per step; parameters (created with Param) persist across steps and
// accumulate gradients until ZeroGrad.
//
// Two mechanisms keep the per-step graph churn off the garbage collector:
// every op output and interior gradient is drawn from the size-classed pool
// in internal/tensor, and ReleaseGraph hands a finished graph's buffers
// back. Callers that skip ReleaseGraph (tests, one-shot evaluations) simply
// fall back to GC collection. Gradients come from the pool zeroed; op
// outputs come uncleared, because every op writes each element of its
// output before anything reads it.
//
// Disjoint graphs may run Backward concurrently: topological sorting marks
// nodes with a per-traversal generation stamp drawn from an atomic counter
// instead of a shared visited map. Graphs that share Values (other than
// constants, which backward never visits) must not be differentiated
// concurrently; Stub exists to cut such sharing deliberately.
package autodiff

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/tensor"
)

// Value is a node in the computation graph: a matrix, an optional gradient
// of the final scalar objective with respect to it, and the backward
// closure that propagates gradients to its parents.
type Value struct {
	Data *tensor.Matrix
	Grad *tensor.Matrix

	requiresGrad bool
	parents      []*Value
	backward     func()
	op           string
	visit        uint64 // generation stamp of the last graph traversal
}

// newMat allocates zeroed graph-lifetime storage from the shared matrix
// pool, for gradients, which ops accumulate into.
func newMat(rows, cols int) *tensor.Matrix { return tensor.GetPooled(rows, cols) }

// newOut allocates graph-lifetime storage for an op's output, which the
// op overwrites in full: it skips the pool's clear.
func newOut(rows, cols int) *tensor.Matrix { return tensor.GetPooledUncleared(rows, cols) }

// NewConst wraps a matrix as a constant (no gradient tracked).
func NewConst(m *tensor.Matrix) *Value {
	return &Value{Data: m, op: "const"}
}

// NewParam wraps a matrix as a trainable parameter: gradients are tracked
// and persist until ZeroGrad is called.
func NewParam(m *tensor.Matrix) *Value {
	return &Value{Data: m, Grad: tensor.New(m.Rows, m.Cols), requiresGrad: true, op: "param"}
}

// Stub returns a detached leaf that shares v's data but accumulates into
// its own gradient buffer. It cuts the graph at v: subgraphs built on stubs
// of the same upstream Value are fully disjoint and may run Backward
// concurrently; the caller then adds each stub's Grad into v.Grad (in a
// fixed order, for determinism) before differentiating v's own graph with
// BackwardSeeded.
func Stub(v *Value) *Value {
	return &Value{Data: v.Data, Grad: newMat(v.Data.Rows, v.Data.Cols), requiresGrad: true, op: "stub"}
}

// StubCols is Stub for the column block [lo,hi) of v: a detached leaf
// holding a copy of those columns, with a gradient of their width. A
// subgraph that reads only that block (one head's GatherCols, say) then
// clears and folds only that block: the caller adds the stub's Grad into
// columns [lo,hi) of v.Grad (tensor.AddColsInPlace). The full width is
// Stub itself, sharing v's data.
func StubCols(v *Value, lo, hi int) *Value {
	if lo == 0 && hi == v.Data.Cols {
		return Stub(v)
	}
	data := newOut(v.Data.Rows, hi-lo)
	tensor.SliceColsInto(data, v.Data, lo, hi)
	return &Value{Data: data, Grad: newMat(v.Data.Rows, hi-lo), requiresGrad: true, op: "stubcols"}
}

// IsParam reports whether v is a leaf parameter node.
func (v *Value) IsParam() bool { return v.op == "param" }

// Rows returns the number of rows of the underlying matrix.
func (v *Value) Rows() int { return v.Data.Rows }

// Cols returns the number of columns of the underlying matrix.
func (v *Value) Cols() int { return v.Data.Cols }

// ZeroGrad clears the accumulated gradient of a parameter.
func (v *Value) ZeroGrad() {
	if v.Grad != nil {
		v.Grad.Zero()
	}
}

// newResult allocates the output node for an op over parents. The output
// matrix is pool-backed and uncleared: the caller must write every element
// of it. The gradient, when one is tracked, is zeroed.
func newResult(rows, cols int, op string, parents ...*Value) *Value {
	out := &Value{Data: newOut(rows, cols), op: op, parents: parents}
	for _, p := range parents {
		if p.requiresGrad {
			out.requiresGrad = true
			break
		}
	}
	if out.requiresGrad {
		out.Grad = newMat(rows, cols)
	}
	return out
}

// ensureGrad lazily allocates the gradient buffer of an interior node.
func (v *Value) ensureGrad() *tensor.Matrix {
	if v.Grad == nil {
		v.Grad = newMat(v.Data.Rows, v.Data.Cols)
	}
	return v.Grad
}

// Backward runs reverse-mode differentiation from v, which must be a 1x1
// scalar. It seeds dv/dv = 1 and propagates through the tape in reverse
// topological order.
func (v *Value) Backward() {
	if v.Data.Rows != 1 || v.Data.Cols != 1 {
		panic(fmt.Sprintf("autodiff: Backward on non-scalar %dx%d", v.Data.Rows, v.Data.Cols))
	}
	if !v.requiresGrad {
		return
	}
	v.ensureGrad().Data[0] = 1
	runBackward(v)
}

// BackwardSeeded propagates gradients from v, whose Grad must already have
// been seeded by the caller (any shape). Used to resume differentiation at
// a graph cut: accumulate stub gradients into v.Grad, then call this.
func (v *Value) BackwardSeeded() {
	if !v.requiresGrad {
		return
	}
	v.ensureGrad()
	runBackward(v)
}

func runBackward(v *Value) {
	order := topoSort(v)
	for i := len(order) - 1; i >= 0; i-- {
		if n := order[i]; n.backward != nil {
			n.backward()
		}
	}
}

// topoGen issues one generation stamp per graph traversal; being atomic, it
// lets disjoint graphs traverse concurrently with no shared visited set.
var topoGen atomic.Uint64

// topoSort returns the gradient-requiring nodes reachable from root in
// topological order (parents before children), using an iterative DFS to
// avoid stack overflow on deep graphs. Constants and other grad-free
// subtrees are pruned: no gradient flows through them.
func topoSort(root *Value) []*Value {
	gen := topoGen.Add(1)
	var order []*Value
	type frame struct {
		node *Value
		next int
	}
	stack := []frame{{root, 0}}
	root.visit = gen
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.node.parents) {
			p := f.node.parents[f.next]
			f.next++
			if p.requiresGrad && p.visit != gen {
				p.visit = gen
				stack = append(stack, frame{p, 0})
			}
			continue
		}
		order = append(order, f.node)
		stack = stack[:len(stack)-1]
	}
	return order
}

// ReleaseGraph returns the pool-backed buffers of every node reachable from
// roots. Parameters and constants are untouched (their storage is owned by
// the caller); stubs release only their gradient accumulator, and column
// stubs their column copy as well. None of the
// graph's Values — including the data of non-parameter results — may be
// used afterwards.
func ReleaseGraph(roots ...*Value) {
	gen := topoGen.Add(1)
	var stack []*Value
	for _, r := range roots {
		if r != nil && r.visit != gen {
			r.visit = gen
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range n.parents {
			if p.visit != gen {
				p.visit = gen
				stack = append(stack, p)
			}
		}
		switch n.op {
		case "param", "const":
		case "stub":
			tensor.PutPooled(n.Grad)
			n.Grad = nil
		default:
			tensor.PutPooled(n.Data)
			tensor.PutPooled(n.Grad)
			n.Data, n.Grad = nil, nil
		}
		n.parents = nil
		n.backward = nil
	}
}

// ---------------------------------------------------------------------------
// Arithmetic ops

// Add returns a+b (same shape).
func Add(a, b *Value) *Value {
	out := newResult(a.Data.Rows, a.Data.Cols, "add", a, b)
	tensor.AddInto(out.Data, a.Data, b.Data)
	out.backward = func() {
		if a.requiresGrad {
			tensor.AddInPlace(a.ensureGrad(), out.Grad)
		}
		if b.requiresGrad {
			tensor.AddInPlace(b.ensureGrad(), out.Grad)
		}
	}
	return out
}

// Sub returns a-b (same shape).
func Sub(a, b *Value) *Value {
	out := newResult(a.Data.Rows, a.Data.Cols, "sub", a, b)
	tensor.SubInto(out.Data, a.Data, b.Data)
	out.backward = func() {
		if a.requiresGrad {
			tensor.AddInPlace(a.ensureGrad(), out.Grad)
		}
		if b.requiresGrad {
			tensor.AXPY(b.ensureGrad(), -1, out.Grad)
		}
	}
	return out
}

// Mul returns the elementwise product a∘b (same shape).
func Mul(a, b *Value) *Value {
	out := newResult(a.Data.Rows, a.Data.Cols, "mul", a, b)
	tensor.MulInto(out.Data, a.Data, b.Data)
	out.backward = func() {
		if a.requiresGrad {
			g := a.ensureGrad()
			for i, v := range out.Grad.Data {
				g.Data[i] += v * b.Data.Data[i]
			}
		}
		if b.requiresGrad {
			g := b.ensureGrad()
			for i, v := range out.Grad.Data {
				g.Data[i] += v * a.Data.Data[i]
			}
		}
	}
	return out
}

// Scale returns c*a for a scalar constant c.
func Scale(a *Value, c float64) *Value {
	out := newResult(a.Data.Rows, a.Data.Cols, "scale", a)
	tensor.ScaleInto(out.Data, a.Data, c)
	out.backward = func() {
		if a.requiresGrad {
			tensor.AXPY(a.ensureGrad(), c, out.Grad)
		}
	}
	return out
}

// AddScalar returns a+c elementwise for a scalar constant c.
func AddScalar(a *Value, c float64) *Value {
	out := newResult(a.Data.Rows, a.Data.Cols, "addscalar", a)
	tensor.ApplyInto(out.Data, a.Data, func(v float64) float64 { return v + c })
	out.backward = func() {
		if a.requiresGrad {
			tensor.AddInPlace(a.ensureGrad(), out.Grad)
		}
	}
	return out
}

// MatMul returns a*b.
func MatMul(a, b *Value) *Value {
	out := newResult(a.Data.Rows, b.Data.Cols, "matmul", a, b)
	tensor.MatMulInto(out.Data, a.Data, b.Data, false)
	out.backward = func() {
		// dL/dA = dL/dOut * Bᵀ ; dL/dB = Aᵀ * dL/dOut — accumulated
		// directly into the parent gradients, no temporaries.
		if a.requiresGrad {
			tensor.MatMulABTInto(a.ensureGrad(), out.Grad, b.Data, true)
		}
		if b.requiresGrad {
			tensor.MatMulATBInto(b.ensureGrad(), a.Data, out.Grad, true)
		}
	}
	return out
}

// AddRowVector returns m + v broadcast over rows, where v is 1 x Cols.
// Used for layer biases.
func AddRowVector(m, v *Value) *Value {
	out := newResult(m.Data.Rows, m.Data.Cols, "addrow", m, v)
	tensor.AddRowVectorInto(out.Data, m.Data, v.Data)
	out.backward = func() {
		if m.requiresGrad {
			tensor.AddInPlace(m.ensureGrad(), out.Grad)
		}
		if v.requiresGrad {
			tensor.AddColSums(v.ensureGrad(), out.Grad)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Structural ops

// Gather returns the matrix whose i-th row is table.Row(idx[i]). The
// backward pass scatter-adds gradients into the table, so repeated indices
// accumulate correctly.
func Gather(table *Value, idx []int) *Value {
	out := newResult(len(idx), table.Data.Cols, "gather", table)
	tensor.GatherRowsInto(out.Data, table.Data, idx)
	out.backward = func() {
		if table.requiresGrad {
			tensor.ScatterAddRows(table.ensureGrad(), out.Grad, idx)
		}
	}
	return out
}

// GatherCols returns the matrix whose i-th row is table.Row(idx[i])[lo:hi],
// fusing Gather + SliceCols: per-head lookups into a multi-head table copy
// only the head's rank-r block instead of the full r*H-wide row.
func GatherCols(table *Value, idx []int, lo, hi int) *Value {
	out := newResult(len(idx), hi-lo, "gathercols", table)
	tensor.GatherColsInto(out.Data, table.Data, idx, lo, hi)
	out.backward = func() {
		if table.requiresGrad {
			tensor.ScatterAddCols(table.ensureGrad(), out.Grad, idx, lo)
		}
	}
	return out
}

// ConcatCols returns [a | b].
func ConcatCols(a, b *Value) *Value {
	out := newResult(a.Data.Rows, a.Data.Cols+b.Data.Cols, "concat", a, b)
	tensor.ConcatColsInto(out.Data, a.Data, b.Data)
	out.backward = func() {
		if a.requiresGrad {
			g := a.ensureGrad()
			for i := 0; i < out.Grad.Rows; i++ {
				grow := g.Row(i)
				for j, v := range out.Grad.Row(i)[:a.Data.Cols] {
					grow[j] += v
				}
			}
		}
		if b.requiresGrad {
			g := b.ensureGrad()
			for i := 0; i < out.Grad.Rows; i++ {
				grow := g.Row(i)
				for j, v := range out.Grad.Row(i)[a.Data.Cols:] {
					grow[j] += v
				}
			}
		}
	}
	return out
}

// ConcatConstCols returns [feats | table] where feats is a constant
// side-information matrix and table is a full learned-feature table. It
// fuses the common "concat features with an identity gather of φ" pattern:
// the identity gather is elided and the backward pass adds the right column
// block straight into the table's gradient. feats may be nil, in which case
// the caller should normally just use table directly; it is accepted for
// uniformity and behaves as a zero-width left block.
func ConcatConstCols(feats *tensor.Matrix, table *Value) *Value {
	dw := 0
	if feats != nil {
		if feats.Rows != table.Data.Rows {
			panic(fmt.Sprintf("autodiff: ConcatConstCols rows %d vs %d", feats.Rows, table.Data.Rows))
		}
		dw = feats.Cols
	}
	out := newResult(table.Data.Rows, dw+table.Data.Cols, "concatconst", table)
	for i := 0; i < out.Data.Rows; i++ {
		row := out.Data.Row(i)
		if feats != nil {
			copy(row[:dw], feats.Row(i))
		}
		copy(row[dw:], table.Data.Row(i))
	}
	out.backward = func() {
		if !table.requiresGrad {
			return
		}
		g := table.ensureGrad()
		for i := 0; i < out.Grad.Rows; i++ {
			grow := g.Row(i)
			for j, v := range out.Grad.Row(i)[dw:] {
				grow[j] += v
			}
		}
	}
	return out
}

// SliceCols returns columns [lo,hi) of a.
func SliceCols(a *Value, lo, hi int) *Value {
	out := newResult(a.Data.Rows, hi-lo, "slice", a)
	tensor.SliceColsInto(out.Data, a.Data, lo, hi)
	out.backward = func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		for i := 0; i < out.Grad.Rows; i++ {
			grow := g.Row(i)
			for j, v := range out.Grad.Row(i) {
				grow[lo+j] += v
			}
		}
	}
	return out
}

// RowSum returns the Rows x 1 matrix of per-row sums.
func RowSum(a *Value) *Value {
	out := newResult(a.Data.Rows, 1, "rowsum", a)
	a.Data.RowSumsInto(out.Data)
	out.backward = func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		for i := 0; i < a.Data.Rows; i++ {
			gi := out.Grad.Data[i]
			row := g.Row(i)
			for j := range row {
				row[j] += gi
			}
		}
	}
	return out
}

// RowDot returns the Rows x 1 matrix of per-row inner products Σ_j a_ij·b_ij.
// It fuses RowSum(Mul(a, b)) — the factorization kernel wᵢᵀpⱼ — avoiding
// the Rows x Cols product intermediate and its gradient.
func RowDot(a, b *Value) *Value {
	out := newResult(a.Data.Rows, 1, "rowdot", a, b)
	tensor.RowDotInto(out.Data, a.Data, b.Data)
	out.backward = func() {
		if !a.requiresGrad && !b.requiresGrad {
			return
		}
		// One pass per row updates both operands. Every gradient element
		// still receives its a-side product before its b-side one, so
		// a == b (one shared buffer) accumulates exactly as two passes do.
		var ga, gb *tensor.Matrix
		if a.requiresGrad {
			ga = a.ensureGrad()
		}
		if b.requiresGrad {
			gb = b.ensureGrad()
		}
		for i, gi := range out.Grad.Data {
			if gi == 0 {
				continue
			}
			arow, brow := a.Data.Row(i), b.Data.Row(i)
			if ga != nil {
				grow := ga.Row(i)
				for j, v := range brow {
					grow[j] += gi * v
				}
			}
			if gb != nil {
				grow := gb.Row(i)
				for j, v := range arow {
					grow[j] += gi * v
				}
			}
		}
	}
	return out
}

// Sum returns the 1x1 sum of all elements.
func Sum(a *Value) *Value {
	out := newResult(1, 1, "sum", a)
	out.Data.Data[0] = a.Data.Sum()
	out.backward = func() {
		if a.requiresGrad {
			g := a.ensureGrad()
			v := out.Grad.Data[0]
			for i := range g.Data {
				g.Data[i] += v
			}
		}
	}
	return out
}

// Mean returns the 1x1 mean of all elements.
func Mean(a *Value) *Value {
	n := float64(len(a.Data.Data))
	out := newResult(1, 1, "mean", a)
	out.Data.Data[0] = a.Data.Mean()
	out.backward = func() {
		if a.requiresGrad {
			g := a.ensureGrad()
			v := out.Grad.Data[0] / n
			for i := range g.Data {
				g.Data[i] += v
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Activations

// apply1 builds an elementwise op with derivative df expressed in terms of
// the input value x.
func apply1(a *Value, op string, f, df func(float64) float64) *Value {
	out := newResult(a.Data.Rows, a.Data.Cols, op, a)
	tensor.ApplyInto(out.Data, a.Data, f)
	out.backward = func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		for i, x := range a.Data.Data {
			g.Data[i] += out.Grad.Data[i] * df(x)
		}
	}
	return out
}

// GELU applies the Gaussian Error Linear Unit using the exact erf form
// 0.5*x*(1+erf(x/sqrt2)), matching the paper's architecture.
func GELU(a *Value) *Value {
	const invSqrt2 = 0.7071067811865476
	const invSqrt2Pi = 0.3989422804014327
	return apply1(a, "gelu",
		func(x float64) float64 { return 0.5 * x * (1 + math.Erf(x*invSqrt2)) },
		func(x float64) float64 {
			cdf := 0.5 * (1 + math.Erf(x*invSqrt2))
			return cdf + x*invSqrt2Pi*math.Exp(-0.5*x*x)
		})
}

// ReLU applies max(x, 0).
func ReLU(a *Value) *Value {
	return apply1(a, "relu",
		func(x float64) float64 { return math.Max(x, 0) },
		func(x float64) float64 {
			if x > 0 {
				return 1
			}
			return 0
		})
}

// LeakyReLU applies x for x>0 and slope*x otherwise. The paper uses
// slope=0.1 for the interference activation α.
func LeakyReLU(a *Value, slope float64) *Value {
	return apply1(a, "leakyrelu",
		func(x float64) float64 {
			if x > 0 {
				return x
			}
			return slope * x
		},
		func(x float64) float64 {
			if x > 0 {
				return 1
			}
			return slope
		})
}

// Tanh applies the hyperbolic tangent.
func Tanh(a *Value) *Value {
	return apply1(a, "tanh", math.Tanh,
		func(x float64) float64 { th := math.Tanh(x); return 1 - th*th })
}

// Sigmoid applies the logistic function.
func Sigmoid(a *Value) *Value {
	sig := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
	return apply1(a, "sigmoid", sig,
		func(x float64) float64 { s := sig(x); return s * (1 - s) })
}

// Exp applies e^x elementwise.
func Exp(a *Value) *Value {
	return apply1(a, "exp", math.Exp, math.Exp)
}

// Square applies x² elementwise.
func Square(a *Value) *Value {
	return apply1(a, "square",
		func(x float64) float64 { return x * x },
		func(x float64) float64 { return 2 * x })
}

// Abs applies |x| elementwise (subgradient 0 at x=0).
func Abs(a *Value) *Value {
	return apply1(a, "abs", math.Abs,
		func(x float64) float64 {
			switch {
			case x > 0:
				return 1
			case x < 0:
				return -1
			}
			return 0
		})
}

// Softmax applies a row-wise softmax; used by the attention baseline.
func Softmax(a *Value) *Value {
	out := newResult(a.Data.Rows, a.Data.Cols, "softmax", a)
	data := out.Data
	for i := 0; i < a.Data.Rows; i++ {
		row := a.Data.Row(i)
		mx := math.Inf(-1)
		for _, v := range row {
			if v > mx {
				mx = v
			}
		}
		var sum float64
		orow := data.Row(i)
		for j, v := range row {
			e := math.Exp(v - mx)
			orow[j] = e
			sum += e
		}
		for j := range orow {
			orow[j] /= sum
		}
	}
	out.backward = func() {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		for i := 0; i < a.Data.Rows; i++ {
			s := out.Data.Row(i)
			og := out.Grad.Row(i)
			// dL/dx_j = s_j * (og_j - Σ_k og_k s_k)
			var dot float64
			for k, v := range og {
				dot += v * s[k]
			}
			grow := g.Row(i)
			for j := range grow {
				grow[j] += s[j] * (og[j] - dot)
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Losses

// MSE returns the 1x1 mean of (pred-target)² over all elements. target is
// treated as a constant.
func MSE(pred *Value, target *tensor.Matrix) *Value {
	if pred.Data.Rows != target.Rows || pred.Data.Cols != target.Cols {
		panic(fmt.Sprintf("autodiff: MSE shapes %dx%d vs %dx%d",
			pred.Data.Rows, pred.Data.Cols, target.Rows, target.Cols))
	}
	n := float64(len(target.Data))
	var loss float64
	for i, p := range pred.Data.Data {
		d := p - target.Data[i]
		loss += d * d
	}
	loss /= n
	out := newResult(1, 1, "mse", pred)
	out.Data.Data[0] = loss
	out.backward = func() {
		if !pred.requiresGrad {
			return
		}
		g := pred.ensureGrad()
		c := 2 * out.Grad.Data[0] / n
		for i, p := range pred.Data.Data {
			g.Data[i] += c * (p - target.Data[i])
		}
	}
	return out
}

// WeightedMSE is MSE with a per-element weight matrix (constant).
func WeightedMSE(pred *Value, target, weight *tensor.Matrix) *Value {
	n := float64(len(target.Data))
	var loss float64
	for i, p := range pred.Data.Data {
		d := p - target.Data[i]
		loss += weight.Data[i] * d * d
	}
	loss /= n
	out := newResult(1, 1, "wmse", pred)
	out.Data.Data[0] = loss
	out.backward = func() {
		if !pred.requiresGrad {
			return
		}
		g := pred.ensureGrad()
		c := 2 * out.Grad.Data[0] / n
		for i, p := range pred.Data.Data {
			g.Data[i] += c * weight.Data[i] * (p - target.Data[i])
		}
	}
	return out
}

// Pinball returns the 1x1 mean pinball (quantile) loss at quantile xi:
//
//	xi*(target-pred)      if target > pred
//	(1-xi)*(pred-target)  otherwise
//
// Minimizing it estimates the xi-quantile of target | pred's inputs
// (Koenker & Bassett 1978), as used by CQR (paper Eq. 13).
func Pinball(pred *Value, target *tensor.Matrix, xi float64) *Value {
	if pred.Data.Rows != target.Rows || pred.Data.Cols != target.Cols {
		panic(fmt.Sprintf("autodiff: Pinball shapes %dx%d vs %dx%d",
			pred.Data.Rows, pred.Data.Cols, target.Rows, target.Cols))
	}
	n := float64(len(target.Data))
	var loss float64
	for i, p := range pred.Data.Data {
		d := target.Data[i] - p
		if d > 0 {
			loss += xi * d
		} else {
			loss += (xi - 1) * d
		}
	}
	loss /= n
	out := newResult(1, 1, "pinball", pred)
	out.Data.Data[0] = loss
	out.backward = func() {
		if !pred.requiresGrad {
			return
		}
		g := pred.ensureGrad()
		c := out.Grad.Data[0] / n
		for i, p := range pred.Data.Data {
			if target.Data[i] > p {
				g.Data[i] += -xi * c
			} else {
				g.Data[i] += (1 - xi) * c
			}
		}
	}
	return out
}

// Scalar extracts the single element of a 1x1 Value.
func (v *Value) Scalar() float64 {
	if v.Data.Rows != 1 || v.Data.Cols != 1 {
		panic(fmt.Sprintf("autodiff: Scalar on %dx%d", v.Data.Rows, v.Data.Cols))
	}
	return v.Data.Data[0]
}
