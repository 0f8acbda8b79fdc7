package autodiff

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// refRowDotBackward is RowDot's backward as two passes, first every row of
// a's gradient and then every row of b's, the loops the one-pass backward
// replaced. ga or gb is nil when that operand tracks no gradient; both are
// the same matrix when a and b are one Value.
func refRowDotBackward(ga, gb, a, b, og *tensor.Matrix) {
	if ga != nil {
		for i := 0; i < a.Rows; i++ {
			gi := og.Data[i]
			if gi == 0 {
				continue
			}
			grow := ga.Row(i)
			for j, v := range b.Row(i) {
				grow[j] += gi * v
			}
		}
	}
	if gb != nil {
		for i := 0; i < b.Rows; i++ {
			gi := og.Data[i]
			if gi == 0 {
				continue
			}
			grow := gb.Row(i)
			for j, v := range a.Row(i) {
				grow[j] += gi * v
			}
		}
	}
}

// signedZeros fills m with normal values and, in about a third of the
// entries, +0 or −0.
func signedZeros(rng *rand.Rand, m *tensor.Matrix) {
	for i := range m.Data {
		switch rng.Intn(6) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
}

func requireSameBits(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestKernelIdentityRowDotBackward checks RowDot's one-pass backward
// against the two-pass reference bit for bit: both operands tracked,
// either one alone, and a == b, where the two products land in one
// buffer in a fixed order. Upstream gradients hold exact zeros (rows the
// backward skips) and the operands' gradients start from a mix of values
// and signed zeros.
func TestKernelIdentityRowDotBackward(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bitwise kernel identity is checked on amd64")
	}
	rng := rand.New(rand.NewSource(6))
	for _, sh := range [][2]int{{1, 1}, {3, 5}, {7, 32}, {128, 32}} {
		rows, cols := sh[0], sh[1]
		for _, c := range []struct {
			name        string
			gradA       bool
			gradB       bool
			sameOperand bool
		}{
			{"both", true, true, false},
			{"a only", true, false, false},
			{"b only", false, true, false},
			{"a == b", true, true, true},
		} {
			leaf := func() *Value {
				m := tensor.New(rows, cols)
				signedZeros(rng, m)
				return NewConst(m)
			}
			a, b := leaf(), leaf()
			if c.gradA {
				a = NewParam(a.Data)
				signedZeros(rng, a.Grad)
			}
			if c.gradB {
				b = NewParam(b.Data)
				signedZeros(rng, b.Grad)
			}
			if c.sameOperand {
				b = a
			}
			var wantA, wantB *tensor.Matrix
			if c.gradA {
				wantA = a.Grad.Clone()
			}
			if c.gradB {
				wantB = b.Grad.Clone()
			}
			if c.sameOperand {
				wantB = wantA
			}

			out := RowDot(a, b)
			signedZeros(rng, out.Grad)
			og := out.Grad.Clone()
			out.BackwardSeeded()
			refRowDotBackward(wantA, wantB, a.Data, b.Data, og)
			if wantA != nil {
				requireSameBits(t, c.name+": a.Grad", a.Grad, wantA)
			}
			if wantB != nil {
				requireSameBits(t, c.name+": b.Grad", b.Grad, wantB)
			}
		}
	}
}
