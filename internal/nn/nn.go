// Package nn provides neural-network building blocks on top of the autodiff
// engine: linear layers, multi-layer perceptrons, weight initialization, and
// a parameter registry for optimizers and serialization.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/autodiff"
	"repro/internal/tensor"
)

// Activation selects the nonlinearity of a layer.
type Activation int

// Supported activations.
const (
	ActNone Activation = iota
	ActGELU
	ActReLU
	ActTanh
	ActSigmoid
)

func (a Activation) apply(v *autodiff.Value) *autodiff.Value {
	switch a {
	case ActNone:
		return v
	case ActGELU:
		return autodiff.GELU(v)
	case ActReLU:
		return autodiff.ReLU(v)
	case ActTanh:
		return autodiff.Tanh(v)
	case ActSigmoid:
		return autodiff.Sigmoid(v)
	}
	panic(fmt.Sprintf("nn: unknown activation %d", a))
}

// scalar returns the pointwise function of the activation, for the
// tape-free inference path. The formulas match the autodiff ops exactly.
func (a Activation) scalar() func(float64) float64 {
	switch a {
	case ActNone:
		return nil
	case ActGELU:
		const invSqrt2 = 0.7071067811865476
		return func(x float64) float64 { return 0.5 * x * (1 + math.Erf(x*invSqrt2)) }
	case ActReLU:
		return func(x float64) float64 { return math.Max(x, 0) }
	case ActTanh:
		return math.Tanh
	case ActSigmoid:
		return func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
	}
	panic(fmt.Sprintf("nn: unknown activation %d", a))
}

// String returns the activation name.
func (a Activation) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActGELU:
		return "gelu"
	case ActReLU:
		return "relu"
	case ActTanh:
		return "tanh"
	case ActSigmoid:
		return "sigmoid"
	}
	return "unknown"
}

// Linear is a fully connected layer y = x*W + b.
type Linear struct {
	W, B *autodiff.Value
	Act  Activation
}

// NewLinear creates a layer with LeCun/Xavier-style initialization:
// weights ~ N(0, 1/fanIn), biases zero.
func NewLinear(rng *rand.Rand, in, out int, act Activation) *Linear {
	shapes := MLPShapes(in, out)
	return newLinear(rng, shapes[0], shapes[1], act)
}

// newLinear allocates a layer's weight and bias at the (rows, cols)
// MLPShapes gives them.
func newLinear(rng *rand.Rand, wShape, bShape [2]int, act Activation) *Linear {
	w := tensor.New(wShape[0], wShape[1])
	std := 1 / math.Sqrt(float64(wShape[0]))
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64() * std
	}
	return &Linear{
		W:   autodiff.NewParam(w),
		B:   autodiff.NewParam(tensor.New(bShape[0], bShape[1])),
		Act: act,
	}
}

// Forward applies the layer to a batch (rows are samples).
func (l *Linear) Forward(x *autodiff.Value) *autodiff.Value {
	return l.Act.apply(autodiff.AddRowVector(autodiff.MatMul(x, l.W), l.B))
}

// Params returns the trainable parameters of the layer.
func (l *Linear) Params() []*autodiff.Value { return []*autodiff.Value{l.W, l.B} }

// MLP is a stack of Linear layers.
type MLP struct {
	Layers []*Linear
}

// NewMLP builds an MLP with the given layer sizes. hidden activations use
// act; the output layer is linear. sizes must contain at least the input
// and output dimensions, e.g. NewMLP(rng, ActGELU, 64, 128, 128, 32).
func NewMLP(rng *rand.Rand, act Activation, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	shapes := MLPShapes(sizes...)
	m := &MLP{Layers: make([]*Linear, len(shapes)/2)}
	for i := range m.Layers {
		a := act
		if i == len(m.Layers)-1 {
			a = ActNone
		}
		m.Layers[i] = newLinear(rng, shapes[2*i], shapes[2*i+1], a)
	}
	return m
}

// MLPShapes returns the (rows, cols) of every parameter of NewMLP(rng,
// act, sizes...), in the order its Params lists them: each layer's
// weight, sizes[i] x sizes[i+1], then its 1 x sizes[i+1] bias. NewMLP
// allocates its parameters from it, so a caller can check a stored
// model's shapes before building one.
func MLPShapes(sizes ...int) [][2]int {
	var shapes [][2]int
	for i := 0; i+1 < len(sizes); i++ {
		shapes = append(shapes, [2]int{sizes[i], sizes[i+1]}, [2]int{1, sizes[i+1]})
	}
	return shapes
}

// Forward applies all layers in order.
func (m *MLP) Forward(x *autodiff.Value) *autodiff.Value {
	for _, l := range m.Layers {
		x = l.Forward(x)
	}
	return x
}

// Infer runs the MLP forward on a plain matrix without building a tape —
// no Value nodes, no gradient buffers. Intermediates come from the tensor
// pool; the returned matrix is pool-backed and owned by the caller (release
// it with tensor.PutPooled when done).
func (m *MLP) Infer(x *tensor.Matrix) *tensor.Matrix {
	out := m.Layers[len(m.Layers)-1].W.Data.Cols
	return m.InferInto(tensor.GetPooledUncleared(x.Rows, out), x)
}

// InferInto is Infer with the output written into dst, which is returned.
// A dst of the right shape is reused in place — the steady state of an
// embedding-cache refresh, which would otherwise clone a pooled result
// every sync; nil or a mismatched dst is replaced by a fresh heap matrix.
// Hidden-layer intermediates still come from the tensor pool, uncleared:
// each layer's matrix product overwrites them. dst must not be read
// concurrently during the call.
func (m *MLP) InferInto(dst *tensor.Matrix, x *tensor.Matrix) *tensor.Matrix {
	last := len(m.Layers) - 1
	cur := x
	for li, l := range m.Layers {
		w, b := l.W.Data, l.B.Data
		var next *tensor.Matrix
		if li == last {
			if dst == nil || dst.Rows != cur.Rows || dst.Cols != w.Cols {
				dst = tensor.New(cur.Rows, w.Cols)
			}
			next = dst
		} else {
			next = tensor.GetPooledUncleared(cur.Rows, w.Cols)
		}
		tensor.MatMulInto(next, cur, w, false)
		for i := 0; i < next.Rows; i++ {
			row := next.Row(i)
			for j := range row {
				row[j] += b.Data[j]
			}
		}
		if f := l.Act.scalar(); f != nil {
			tensor.ApplyInto(next, next, f)
		}
		if cur != x {
			tensor.PutPooled(cur)
		}
		cur = next
	}
	return dst
}

// Params returns all trainable parameters in order.
func (m *MLP) Params() []*autodiff.Value {
	var ps []*autodiff.Value
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams counts scalar parameters, mirroring the paper's 111,200-parameter
// accounting (§3.3).
func NumParams(ps []*autodiff.Value) int {
	n := 0
	for _, p := range ps {
		n += len(p.Data.Data)
	}
	return n
}

// Embedding is a trainable lookup table with one row per entity, used for
// the matrix-factorization baseline and for Pitot's extra learned features φ.
type Embedding struct {
	Table *autodiff.Value
}

// NewEmbedding creates an n x dim table initialized ~ N(0, std²).
func NewEmbedding(rng *rand.Rand, n, dim int, std float64) *Embedding {
	t := tensor.New(n, dim)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64() * std
	}
	return &Embedding{Table: autodiff.NewParam(t)}
}

// Lookup gathers the rows for idx.
func (e *Embedding) Lookup(idx []int) *autodiff.Value {
	return autodiff.Gather(e.Table, idx)
}

// Params returns the table as the single trainable parameter.
func (e *Embedding) Params() []*autodiff.Value { return []*autodiff.Value{e.Table} }

// Snapshot copies all parameter values; used for best-checkpoint tracking.
func Snapshot(ps []*autodiff.Value) []*tensor.Matrix {
	out := make([]*tensor.Matrix, len(ps))
	for i, p := range ps {
		out[i] = p.Data.Clone()
	}
	return out
}

// Restore copies snapshot values back into the parameters.
func Restore(ps []*autodiff.Value, snap []*tensor.Matrix) {
	if len(ps) != len(snap) {
		panic(fmt.Sprintf("nn: Restore %d params vs %d snapshots", len(ps), len(snap)))
	}
	for i, p := range ps {
		p.Data.CopyFrom(snap[i])
	}
}
