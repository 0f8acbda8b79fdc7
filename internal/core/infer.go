package core

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SyncEmbeddings recomputes and caches the tower outputs for inference,
// and from them every head's interference tables (interferenceTables).
// Train calls this automatically; call it manually after mutating
// parameters (e.g. after Load). The recompute runs on the tape-free
// forward path, writing in place into the previous cache buffers — one
// sync's tables are steady-state allocation-free — so it must not run
// concurrently with predictions on the same model (the serving layer's
// snapshot discipline already guarantees this: only private clones are
// ever re-synced).
func (m *Model) SyncEmbeddings() {
	m.wEmb = m.towerInferInto(m.wEmb, m.fw, m.xw, m.phiW)
	m.pEmb = m.towerInferInto(m.pEmb, m.fp, m.xp, m.phiP)
	m.syncTables(maxTableBytes)
}

func dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// PredictResidual returns head h's raw model output (the residual under
// the configured objective) for workload w on platform p with interferers
// ks. Reads the interference tables, or computes their dot products from
// the cached embeddings when the model has none.
func (m *Model) PredictResidual(w, p int, ks []int, h int) float64 {
	if m.wEmb == nil {
		panic("core: SyncEmbeddings not called")
	}
	if m.tables != nil {
		return m.residualFromTables(w, p, ks, h)
	}
	r, s := m.Cfg.EmbeddingDim, m.Cfg.InterferenceTypes
	wrow := m.wEmb.Row(w)[h*r : (h+1)*r]
	prow := m.pEmb.Row(p)
	pred := dot(wrow, prow[:r])
	if len(ks) > 0 && m.Cfg.Interference == InterferenceAware && s > 0 {
		for t := 0; t < s; t++ {
			vs := prow[r*(1+t) : r*(2+t)]
			vg := prow[r*(1+s+t) : r*(2+s+t)]
			var mag float64
			for _, k := range ks {
				mag += dot(m.wEmb.Row(k)[h*r:(h+1)*r], vg)
			}
			pred += dot(wrow, vs) * m.activate(mag)
		}
	}
	return pred
}

// PredictLogSeconds returns head h's predicted log runtime, combining the
// residual with the linear-scaling baseline according to the objective.
func (m *Model) PredictLogSeconds(w, p int, ks []int, h int) float64 {
	return m.logSecondsFromResidual(m.PredictResidual(w, p, ks, h), w, p)
}

// PredictSeconds returns head h's predicted runtime in seconds.
func (m *Model) PredictSeconds(w, p int, ks []int, h int) float64 {
	return math.Exp(m.PredictLogSeconds(w, p, ks, h))
}

// Query identifies one (workload, platform, interferers) prediction for
// the batch inference path.
type Query struct {
	Workload, Platform int
	Interferers        []int
}

// PredictLogSecondsBatch fills out with head h's predicted log runtimes
// for all queries, using the cached embedding tables. Queries are grouped
// by (platform, interferer set) and each group's interference term is
// folded into a single effective platform vector
//
//	p̃ⱼ = pⱼ + Σ_t α(mag_t) · v_s⁽ᵗ⁾ ,  mag_t = Σ_k w_kᵀ v_g⁽ᵗ⁾
//
// so that every query in the group costs one rank-r dot product — the
// algebraic identity wᵢᵀpⱼ + Σ_t (wᵢᵀv_s⁽ᵗ⁾)·α(mag_t) = wᵢᵀp̃ⱼ — and the
// magnitudes mag_t are table reads. The batch runs on the caller's
// goroutine: a scheduler's call scores a few dozen queries, less work
// than handing spans to other goroutines costs.
func (m *Model) PredictLogSecondsBatch(qs []Query, h int, out []float64) {
	m.predictBatchInto(qs, h, out, false)
}

// PredictSecondsBatch is PredictLogSecondsBatch with the final exp applied
// per span while its results are still cache-hot: out holds predicted
// runtimes in seconds, with no full second pass over the results.
func (m *Model) PredictSecondsBatch(qs []Query, h int, out []float64) {
	m.predictBatchInto(qs, h, out, true)
}

func (m *Model) predictBatchInto(qs []Query, h int, out []float64, inSeconds bool) {
	if m.wEmb == nil {
		panic("core: SyncEmbeddings not called")
	}
	if len(out) != len(qs) {
		panic(fmt.Sprintf("core: batch predict out len %d for %d queries", len(out), len(qs)))
	}
	var buf [stackRank]float64
	peff := scratch(buf[:], m.Cfg.EmbeddingDim)
	for lo := 0; lo < len(qs); {
		hi := spanEnd(qs, lo)
		q0 := qs[lo]
		m.effectivePlatform(peff, q0.Platform, q0.Interferers, h)
		m.spanLogInto(qs, lo, hi, peff, h, out)
		if inSeconds {
			// Separate exp sweep: keeping the transcendental out of the
			// dot loop leaves its registers free and pipelines better.
			for i := lo; i < hi; i++ {
				out[i] = math.Exp(out[i])
			}
		}
		lo = hi
	}
}

// stackRank is the largest embedding rank whose effective platform
// scratch lives on the caller's stack; a larger rank allocates it per
// call.
const stackRank = 64

// scratch returns buf[:r], or a fresh slice when r exceeds buf.
func scratch(buf []float64, r int) []float64 {
	if r <= len(buf) {
		return buf[:r]
	}
	return make([]float64, r)
}

// spanEnd returns the end of the span starting at lo: the maximal run of
// consecutive queries sharing qs[lo]'s (platform, interferer set), the
// unit the interference fold is amortized over — the natural shape of a
// scheduler scanning candidates per platform. Non-consecutive repeats
// just open a fresh span, which costs amortization but never correctness,
// and keeps grouping an allocation-free scan instead of a keyed map.
func spanEnd(qs []Query, lo int) int {
	hi := lo + 1
	for hi < len(qs) && sameGroup(&qs[hi], &qs[lo]) {
		hi++
	}
	return hi
}

// spanLogInto fills out[lo:hi] with head h's predicted log runtimes for
// queries qs[lo:hi], which must all share qs[lo]'s platform and interferer
// set, whose interference term the caller has already folded into peff.
// This is the per-span inner kernel behind every batch score, the mean
// head's and the bound head's alike.
func (m *Model) spanLogInto(qs []Query, lo, hi int, peff []float64, h int, out []float64) {
	r := m.Cfg.EmbeddingDim
	wlo, whi := h*r, (h+1)*r
	wData, wCols := m.wEmb.Data, m.wEmb.Cols
	q0 := qs[lo]
	switch {
	case m.Cfg.Objective == ObjLogResidual && whi-wlo == 32:
		// Tight loop for the default configuration: baseline platform
		// offset hoisted, single-step row slicing, fully unrolled
		// rank-32 kernel, no per-query dispatch.
		bW := m.Baseline.W
		bP := m.Baseline.P[q0.Platform]
		for i := lo; i < hi; i++ {
			w := qs[i].Workload
			base := w * wCols
			out[i] = bW[w] + bP + dot32(wData[base+wlo:], peff)
		}
	case m.Cfg.Objective == ObjLogResidual:
		bW := m.Baseline.W
		bP := m.Baseline.P[q0.Platform]
		for i := lo; i < hi; i++ {
			w := qs[i].Workload
			base := w * wCols
			out[i] = bW[w] + bP + dotUnrolled(wData[base+wlo:base+whi], peff)
		}
	default:
		for i := lo; i < hi; i++ {
			w := qs[i].Workload
			base := w * wCols
			res := dotUnrolled(wData[base+wlo:base+whi], peff)
			out[i] = m.logSecondsFromResidual(res, w, q0.Platform)
		}
	}
}

// sameGroup reports whether two queries share a platform and interferer
// set (compared by value, in order). Queries that share the same backing
// slice — a scheduler reusing one resident set across a scan — short-cut
// on pointer identity.
func sameGroup(a, b *Query) bool {
	if a.Platform != b.Platform || len(a.Interferers) != len(b.Interferers) {
		return false
	}
	if len(a.Interferers) == 0 || &a.Interferers[0] == &b.Interferers[0] {
		return true
	}
	for i, k := range a.Interferers {
		if k != b.Interferers[i] {
			return false
		}
	}
	return true
}

// dot32 is dotUnrolled with the bounds fixed at the default embedding rank,
// letting the compiler drop all loop-bound checks.
func dot32(a, b []float64) float64 {
	a = a[:32]
	b = b[:32]
	var s0, s1, s2, s3 float64
	for i := 0; i < 32; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	return s0 + s1 + s2 + s3
}

// dotUnrolled is the batch path's inner-product kernel: four accumulators
// expose instruction-level parallelism the simple reduction loop serializes
// (~1.5x on rank-32 embeddings). Summation order differs from dot, so
// results may drift from the scalar path by reassociation rounding.
func dotUnrolled(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(a) &^ 3
	b = b[:len(a)]
	for i := 0; i < n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := s0 + s1 + s2 + s3
	for i := n; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// effectivePlatform writes platform j's rank-r base embedding with the
// interference contribution of ks folded in, for head h.
func (m *Model) effectivePlatform(peff []float64, j int, ks []int, h int) {
	r, s := m.Cfg.EmbeddingDim, m.Cfg.InterferenceTypes
	prow := m.pEmb.Row(j)
	copy(peff, prow[:r])
	if len(ks) == 0 || m.Cfg.Interference != InterferenceAware || s == 0 {
		return
	}
	for t := 0; t < s; t++ {
		mag := m.foldMagnitude(j, ks, h, t)
		vs := prow[r*(1+t) : r*(2+t)]
		if r == 32 {
			p32, v32 := (*[32]float64)(peff), (*[32]float64)(vs)
			for a := range p32 {
				p32[a] += mag * v32[a]
			}
			continue
		}
		for a := 0; a < r; a++ {
			peff[a] += mag * vs[a]
		}
	}
}

// foldMagnitude returns head h's activated type-t magnitude of ks on
// platform j, Σ_k w_k·v_g⁽ᵗ⁾ summed in dotUnrolled's order: table reads,
// or the dots themselves when the model has no tables.
func (m *Model) foldMagnitude(j int, ks []int, h, t int) float64 {
	r, s := m.Cfg.EmbeddingDim, m.Cfg.InterferenceTypes
	if m.tables != nil {
		return m.activate(m.tables.sum(h, j, ks, colMagUnr(s, t)))
	}
	vg := m.pEmb.Row(j)[r*(1+s+t) : r*(2+s+t)]
	var mag float64
	for _, k := range ks {
		mag += dotUnrolled(m.wEmb.Row(k)[h*r:(h+1)*r], vg)
	}
	return m.activate(mag)
}

// logSecondsFromResidual applies the objective's residual-to-log-runtime
// mapping, mirroring PredictLogSeconds.
func (m *Model) logSecondsFromResidual(res float64, w, p int) float64 {
	switch m.Cfg.Objective {
	case ObjLogResidual:
		return m.Baseline.LogBaseline(w, p) + res
	case ObjLog:
		return res
	case ObjProportional:
		if res < 1e-9 {
			res = 1e-9
		}
		return math.Log(res)
	}
	panic("core: unknown objective")
}

// HeadForQuantile returns the head index trained at target quantile xi.
func (m *Model) HeadForQuantile(xi float64) (int, error) {
	for h, q := range m.Cfg.Quantiles {
		if q == xi {
			return h, nil
		}
	}
	return 0, fmt.Errorf("core: no head trained for quantile %v", xi)
}

// WorkloadEmbeddings returns a copy of head h's Nw x r workload embedding
// block, for interpretation (paper Fig. 7).
func (m *Model) WorkloadEmbeddings(h int) *tensor.Matrix {
	if m.wEmb == nil {
		panic("core: SyncEmbeddings not called")
	}
	r := m.Cfg.EmbeddingDim
	return tensor.SliceCols(m.wEmb, h*r, (h+1)*r)
}

// PlatformEmbeddings returns a copy of the Np x r platform embedding block
// (paper Fig. 12b/c).
func (m *Model) PlatformEmbeddings() *tensor.Matrix {
	if m.pEmb == nil {
		panic("core: SyncEmbeddings not called")
	}
	return tensor.SliceCols(m.pEmb, 0, m.Cfg.EmbeddingDim)
}

// InterferenceNorm returns the spectral norm ‖F_j‖₂ of platform j's
// interference matrix F_j = Σ_t v_s⁽ᵗ⁾ v_g⁽ᵗ⁾ᵀ (paper Eq. 15, Fig. 12d),
// computed by power iteration on FᵀF.
func (m *Model) InterferenceNorm(j int) float64 {
	r, s := m.Cfg.EmbeddingDim, m.Cfg.InterferenceTypes
	if s == 0 {
		return 0
	}
	prow := m.pEmb.Row(j)
	f := tensor.New(r, r)
	for t := 0; t < s; t++ {
		vs := prow[r*(1+t) : r*(2+t)]
		vg := prow[r*(1+s+t) : r*(2+s+t)]
		for a := 0; a < r; a++ {
			row := f.Row(a)
			for b := 0; b < r; b++ {
				row[b] += vs[a] * vg[b]
			}
		}
	}
	// Power iteration on FᵀF for the dominant singular value. The iterate
	// and scratch vectors are allocated once, outside the loop.
	v := make([]float64, r)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(r))
	}
	u := make([]float64, r)
	w := make([]float64, r)
	var sigma float64
	for it := 0; it < 100; it++ {
		// u = F v ; w = Fᵀ u
		for a := 0; a < r; a++ {
			u[a] = dot(f.Row(a), v)
		}
		clear(w)
		for a := 0; a < r; a++ {
			fa := f.Row(a)
			for b := 0; b < r; b++ {
				w[b] += fa[b] * u[a]
			}
		}
		norm := math.Sqrt(dot(w, w))
		if norm == 0 {
			return 0
		}
		for i := range w {
			v[i] = w[i] / norm
		}
		next := math.Sqrt(norm)
		if math.Abs(next-sigma) < 1e-12*math.Max(1, sigma) {
			sigma = next
			break
		}
		sigma = next
	}
	return sigma
}
