package core

// FastScoreMaxRelErr bounds the relative difference, per query, between
// PredictFusedBatchFast and PredictFusedBatch outputs in the default
// float64 fast mode, on every build (vector or scalar fallback).
// Composition of the per-kernel bounds, in the log domain where both
// heads accumulate:
//
//   - Rank-32 dots: the fast kernels reassociate the exact dot's chain
//     order — four FMA-contracted vector lanes on AVX2, plain regrouped
//     mul+add chains elsewhere — so each log-domain head differs from the
//     exact kernel by a few ulps of the accumulated term magnitudes:
//     ≲ 64·2^-53·Σ|terms| ≈ 1e-13 absolute for the O(1) residuals and
//     O(10) baselines this model produces.
//   - The interference fold (per span, off the hot path): its magnitudes
//     are the exact kernel's, read from the interference tables (a model
//     pair without tables runs the exact fold whole). On AVX2 its rank-32
//     update peff += mag·v_s is FMA-contracted (foldAxpyPairAVX2), one
//     rounding per element instead of two: at most 2^-53·|mag·v_s| per
//     element of the effective platform vector, ≲ 32·2^-53·Σ|w·mag·v_s|
//     ≈ 1e-15 absolute in each query's dot.
//   - The final exp maps a log-domain absolute error δ to a relative
//     error e^δ − 1 ≈ δ, and adds ExpFast's own FastExpMaxRelErr (1e-12).
//
// Total ≈ 1.1e-12; the documented bound 1e-9 leaves three orders of
// margin for unusually ill-conditioned embeddings and is what the
// tolerance-aware identity tests assert.
const FastScoreMaxRelErr = 1e-9

// FastF32MaxRelErr is the corresponding bound for the mean (ranking) head
// when Config.FastScoringF32 is set: float32 accumulation rounds each of
// the 32 products and partial sums at 2^-24, giving a log-domain error
// ≲ 32·2^-24·Σ|terms| ≈ 1e-5 absolute, hence ≈ 1e-5 relative after exp.
// Documented bound 1e-3 (margin for ill-conditioned spans); the bound
// head is always float64 and stays within FastScoreMaxRelErr.
const FastF32MaxRelErr = 1e-3

// PredictFusedBatchFast is the opt-in approximate twin of
// PredictFusedBatch: same signature, same span detection and scratch, but
// the per-span arithmetic trades bitwise identity for speed. On amd64
// with AVX2+FMA each span runs two vector passes — dotSpanAVX2 streams
// both heads' dots with the effective platform vectors pinned in
// registers, expSpanAVX2 exponentiates four lanes at a time; elsewhere a
// blocked plain-mul loop loads the platform vectors once per four queries
// and ExpFast replaces math.Exp. Every query's result is within
// FastScoreMaxRelErr relative of the exact kernel's (FastF32MaxRelErr for
// the mean head under Config.FastScoringF32).
//
// Only the default paired configuration (both models log-residual,
// rank 32, same interference structure) has a distinct fast kernel;
// any other configuration falls through to the exact PredictFusedBatch,
// so callers may dispatch on the flag alone.
func PredictFusedBatchFast(mean, quant *Model, qs []Query, quantHead int, boundOffset func(degree int) float64, meanSec, boundSec []float64) {
	paired := mean.Cfg.Objective == ObjLogResidual && quant.Cfg.Objective == ObjLogResidual &&
		mean.Cfg.EmbeddingDim == 32 && quant.Cfg.EmbeddingDim == 32 &&
		mean.Cfg.Interference == quant.Cfg.Interference &&
		mean.Cfg.InterferenceTypes == quant.Cfg.InterferenceTypes
	if !paired {
		PredictFusedBatch(mean, quant, qs, quantHead, boundOffset, meanSec, boundSec)
		return
	}
	if mean.wEmb == nil || quant.wEmb == nil {
		panic("core: SyncEmbeddings not called")
	}
	if len(meanSec) != len(qs) || len(boundSec) != len(qs) {
		panic("core: fast fused batch out lens mismatch")
	}
	var peffM, peffQ [32]float64
	for lo := 0; lo < len(qs); {
		hi := spanEnd(qs, lo)
		q0 := qs[lo]
		effectivePlatformPairFast(mean, quant, peffM[:], peffQ[:], q0.Platform, q0.Interferers, quantHead)
		fastSpan(mean, quant, qs[lo:hi], quantHead, boundOffset(len(q0.Interferers)),
			&peffM, &peffQ, meanSec[lo:hi], boundSec[lo:hi])
		lo = hi
	}
}

// fastSpan scores one span of PredictFusedBatchFast: qs share a platform
// and interferer set, whose terms are folded into peffM and peffQ, and off
// is the span's conformal offset.
func fastSpan(mean, quant *Model, qs []Query, quantHead int, off float64, peffM, peffQ *[32]float64, meanSec, boundSec []float64) {
	f32 := mean.Cfg.FastScoringF32
	vec := useFastVec && !f32 // the f32 option keeps the scalar reference kernel
	j := qs[0].Platform
	wDataM, wColsM := mean.wEmb.Data, mean.wEmb.Cols
	wDataQ, wColsQ := quant.wEmb.Data, quant.wEmb.Cols
	wloQ := quantHead * 32
	bWm, bPm := mean.Baseline.W, mean.Baseline.P[j]
	bWq, bPq := quant.Baseline.W, quant.Baseline.P[j]
	n := len(qs)
	if vec {
		// Baselines (and the hoisted conformal offset) land first so
		// the vector dot pass is a pure accumulate; the offset rides
		// along before exp exactly as in the exact kernel.
		for i := 0; i < n; i++ {
			w := qs[i].Workload
			meanSec[i] = bWm[w] + bPm
			boundSec[i] = bWq[w] + bPq + off
		}
		dotSpanAVX2(&wDataM[0], wColsM, &qs[0], n, &peffM[0], &meanSec[0])
		dotSpanAVX2(&wDataQ[wloQ], wColsQ, &qs[0], n, &peffQ[0], &boundSec[0])
		expSpan(meanSec)
		expSpan(boundSec)
		return
	}
	i := 0
	if f32 {
		var pm32 [32]float32
		for e := 0; e < 32; e++ {
			pm32[e] = float32(peffM[e])
		}
		if useFastVec {
			// The always-float64 bound head still takes the vector
			// pass; only the mean head pays the scalar f32 loop.
			for ; i < n; i++ {
				w := qs[i].Workload
				boundSec[i] = bWq[w] + bPq + off
				meanSec[i] = ExpFast(bWm[w] + bPm + dot32F32(wDataM[w*wColsM:], &pm32))
			}
			dotSpanAVX2(&wDataQ[wloQ], wColsQ, &qs[0], n, &peffQ[0], &boundSec[0])
			expSpan(boundSec)
			return
		}
		for ; i < n; i++ {
			w := qs[i].Workload
			meanSec[i] = bWm[w] + bPm + dot32F32(wDataM[w*wColsM:], &pm32)
			boundSec[i] = bWq[w] + bPq + dot32Fast(wDataQ[w*wColsQ+wloQ:], peffQ[:])
		}
	} else {
		// Four queries per block: the two peff vectors stream through
		// registers once per block, so the load traffic per query
		// drops from 4 streams to 2.5 — the exact kernel's eight-chain
		// pair dot is load-bound, and this is where the scalar dot
		// speedup comes from. Plain mul+add on purpose: math.FMA is a
		// branch-plus-call under GOAMD64=v1 (see fastmath.go).
		for ; i+4 <= n; i += 4 {
			w0, w1, w2, w3 := qs[i].Workload, qs[i+1].Workload, qs[i+2].Workload, qs[i+3].Workload
			a0 := wDataM[w0*wColsM:][:32]
			a1 := wDataM[w1*wColsM:][:32]
			a2 := wDataM[w2*wColsM:][:32]
			a3 := wDataM[w3*wColsM:][:32]
			c0 := wDataQ[w0*wColsQ+wloQ:][:32]
			c1 := wDataQ[w1*wColsQ+wloQ:][:32]
			c2 := wDataQ[w2*wColsQ+wloQ:][:32]
			c3 := wDataQ[w3*wColsQ+wloQ:][:32]
			var m0, m1, m2, m3, u0, u1, u2, u3 float64
			for e := 0; e < 32; e++ {
				pm, pq := peffM[e], peffQ[e]
				m0 += a0[e] * pm
				m1 += a1[e] * pm
				m2 += a2[e] * pm
				m3 += a3[e] * pm
				u0 += c0[e] * pq
				u1 += c1[e] * pq
				u2 += c2[e] * pq
				u3 += c3[e] * pq
			}
			meanSec[i] = bWm[w0] + bPm + m0
			meanSec[i+1] = bWm[w1] + bPm + m1
			meanSec[i+2] = bWm[w2] + bPm + m2
			meanSec[i+3] = bWm[w3] + bPm + m3
			boundSec[i] = bWq[w0] + bPq + u0
			boundSec[i+1] = bWq[w1] + bPq + u1
			boundSec[i+2] = bWq[w2] + bPq + u2
			boundSec[i+3] = bWq[w3] + bPq + u3
		}
		for ; i < n; i++ {
			w := qs[i].Workload
			dM, dQ := dot32Pair(wDataM[w*wColsM:], peffM[:], wDataQ[w*wColsQ+wloQ:], peffQ[:])
			meanSec[i] = bWm[w] + bPm + dM
			boundSec[i] = bWq[w] + bPq + dQ
		}
	}
	for i = 0; i < n; i++ {
		meanSec[i] = ExpFast(meanSec[i])
		boundSec[i] = ExpFast(boundSec[i] + off)
	}
}

// effectivePlatformPairFast is effectivePlatformPair with the rank-32
// update of each fold step dispatched to the AVX2 kernel when available;
// the magnitudes are the interference tables' (pairMagnitudes), exactly
// the exact fold's. Without vector support or without tables the fold is
// the exact kernel's. Either way the reassociation stays within the
// FastScoreMaxRelErr derivation.
func effectivePlatformPairFast(mean, quant *Model, peffM, peffQ []float64, j int, ks []int, hQ int) {
	if !useFastVec || mean.tables == nil || quant.tables == nil {
		effectivePlatformPair(mean, quant, peffM, peffQ, j, ks, hQ)
		return
	}
	const r = 32
	s := mean.Cfg.InterferenceTypes
	prowM := mean.pEmb.Row(j)
	prowQ := quant.pEmb.Row(j)
	copy(peffM, prowM[:r])
	copy(peffQ, prowQ[:r])
	if len(ks) == 0 || mean.Cfg.Interference != InterferenceAware || s == 0 {
		return
	}
	peffM, peffQ = peffM[:r], peffQ[:r]
	for t := 0; t < s; t++ {
		magM, magQ := pairMagnitudes(mean, quant, j, ks, hQ, t)
		vsM := prowM[r*(1+t) : r*(2+t)]
		vsQ := prowQ[r*(1+t) : r*(2+t)]
		foldAxpyPairAVX2(&peffM[0], &vsM[0], magM, &peffQ[0], &vsQ[0], magQ)
	}
}
