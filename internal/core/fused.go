package core

import (
	"fmt"
	"math"
)

// PredictFusedBatch scores every query through two models in one
// platform-major pass: meanSec receives the mean model's head-0 predicted
// runtime in seconds, boundSec the quantile model's head-quantHead budget
// exp(logPred + boundOffset(degree)) — the conformal bound with the
// log-domain offset supplied by the caller per interference degree.
//
// Both models share one span detection over qs and per-span scratch: each
// span's interference term is folded exactly once per model (into that
// model's effective platform vector) and the conformal offset — constant
// within a span, whose queries all share one interferer set — is hoisted
// out of the inner loop.
//
// The outputs are bitwise-identical to the separate calls
//
//	mean.PredictSecondsBatch(qs, 0, meanSec)
//	quant.PredictLogSecondsBatch(qs, quantHead, tmp)
//	boundSec[i] = math.Exp(tmp[i] + boundOffset(len(qs[i].Interferers)))
//
// because every per-element operation runs through the same spanLogInto
// kernel in the same order; fusion only removes duplicated traversal and
// dispatch, never reassociates arithmetic.
func PredictFusedBatch(mean, quant *Model, qs []Query, quantHead int, boundOffset func(degree int) float64, meanSec, boundSec []float64) {
	if mean.wEmb == nil || quant.wEmb == nil {
		panic("core: SyncEmbeddings not called")
	}
	if len(meanSec) != len(qs) || len(boundSec) != len(qs) {
		panic(fmt.Sprintf("core: fused batch out lens %d/%d for %d queries", len(meanSec), len(boundSec), len(qs)))
	}
	rM, rQ := mean.Cfg.EmbeddingDim, quant.Cfg.EmbeddingDim
	// The default configuration (log-residual objective, rank 32 on both
	// models) takes a paired kernel: one traversal loads each query once
	// and computes both models' dots in a single eight-chain loop, instead
	// of two three-pass span walks. Each dot accumulates in exactly
	// dot32's order, so outputs stay bitwise-identical.
	paired := mean.Cfg.Objective == ObjLogResidual && quant.Cfg.Objective == ObjLogResidual &&
		rM == 32 && rQ == 32
	// The interference folds pair under the same conditions when both
	// models carry the same interference structure: one walk over the
	// interferer set feeds both models' magnitude accumulators.
	pairedFold := paired && mean.Cfg.Interference == quant.Cfg.Interference &&
		mean.Cfg.InterferenceTypes == quant.Cfg.InterferenceTypes
	var bufM, bufQ [stackRank]float64
	peffM, peffQ := scratch(bufM[:], rM), scratch(bufQ[:], rQ)
	for lo := 0; lo < len(qs); {
		hi := spanEnd(qs, lo)
		q0 := qs[lo]
		if pairedFold {
			effectivePlatformPair(mean, quant, peffM, peffQ, q0.Platform, q0.Interferers, quantHead)
		} else {
			mean.effectivePlatform(peffM, q0.Platform, q0.Interferers, 0)
			quant.effectivePlatform(peffQ, q0.Platform, q0.Interferers, quantHead)
		}
		off := boundOffset(len(q0.Interferers))
		if paired {
			wDataM, wColsM := mean.wEmb.Data, mean.wEmb.Cols
			wDataQ, wColsQ := quant.wEmb.Data, quant.wEmb.Cols
			wloQ := quantHead * 32
			bWm, bPm := mean.Baseline.W, mean.Baseline.P[q0.Platform]
			bWq, bPq := quant.Baseline.W, quant.Baseline.P[q0.Platform]
			for i := lo; i < hi; i++ {
				w := qs[i].Workload
				dM, dQ := dot32Pair(wDataM[w*wColsM:], peffM, wDataQ[w*wColsQ+wloQ:], peffQ)
				meanSec[i] = bWm[w] + bPm + dM
				boundSec[i] = bWq[w] + bPq + dQ
			}
		} else {
			mean.spanLogInto(qs, lo, hi, peffM, 0, meanSec)
			quant.spanLogInto(qs, lo, hi, peffQ, quantHead, boundSec)
		}
		// One exp sweep over both heads while the span is cache-hot; the
		// hoisted offset replaces a per-query lookup.
		for i := lo; i < hi; i++ {
			meanSec[i] = math.Exp(meanSec[i])
			boundSec[i] = math.Exp(boundSec[i] + off)
		}
		lo = hi
	}
}

// effectivePlatformPair folds platform j's interference term for both
// models in one walk over the interferer set (pairMagnitudes), so the
// fold is bitwise-identical to the two separate effectivePlatform calls.
// Both models must be rank 32 with the same interference structure.
func effectivePlatformPair(mean, quant *Model, peffM, peffQ []float64, j int, ks []int, hQ int) {
	const r = 32
	s := mean.Cfg.InterferenceTypes
	prowM := mean.pEmb.Row(j)
	prowQ := quant.pEmb.Row(j)
	copy(peffM, prowM[:r])
	copy(peffQ, prowQ[:r])
	if len(ks) == 0 || mean.Cfg.Interference != InterferenceAware || s == 0 {
		return
	}
	for t := 0; t < s; t++ {
		magM, magQ := pairMagnitudes(mean, quant, j, ks, hQ, t)
		vsM := prowM[r*(1+t) : r*(2+t)]
		vsQ := prowQ[r*(1+t) : r*(2+t)]
		for a := 0; a < r; a++ {
			peffM[a] += magM * vsM[a]
			peffQ[a] += magQ * vsQ[a]
		}
	}
}

// pairMagnitudes returns the type-t activated magnitudes of ks on
// platform j for the mean model (head 0) and the quantile model (head
// hQ), each summed in dotUnrolled's order: table reads when both models
// have tables, otherwise one walk over the interferer set through the
// paired dot kernel, whose chains are dot32's (= dotUnrolled's at rank
// 32). Both models must be rank 32 with the same interference structure.
func pairMagnitudes(mean, quant *Model, j int, ks []int, hQ, t int) (magM, magQ float64) {
	const r = 32
	s := mean.Cfg.InterferenceTypes
	if tM, tQ := mean.tables, quant.tables; tM != nil && tQ != nil {
		c := colMagUnr(s, t)
		magM, magQ = tM.sum(0, j, ks, c), tQ.sum(hQ, j, ks, c)
	} else {
		vgM := mean.pEmb.Row(j)[r*(1+s+t) : r*(2+s+t)]
		vgQ := quant.pEmb.Row(j)[r*(1+s+t) : r*(2+s+t)]
		loQ := hQ * r
		for _, k := range ks {
			dM, dQ := dot32Pair(mean.wEmb.Row(k), vgM, quant.wEmb.Row(k)[loQ:], vgQ)
			magM += dM
			magQ += dQ
		}
	}
	return mean.activate(magM), quant.activate(magQ)
}
