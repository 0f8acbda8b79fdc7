package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	pitot "repro"
	"repro/internal/wasmcluster"
)

// evalQueries is the size of the fresh held-out set the quality metrics
// are computed on. At eps=0.1 the binomial standard error of the miss rate
// is then 0.2 points, small against the calibration set's own 0.7.
const evalQueries = 20000

type quality struct {
	mapePct, missPct, boundRatio float64
	// missTol is the allowed distance of missPct from 100*eps: four
	// standard errors of a binomial rate over the evaluation set plus
	// the calibration set the conformal bound was fit on.
	missTol float64
}

// evalSet draws fresh measurements from the oracle the way the dataset
// generator draws them, so the set is exchangeable with the calibration
// split: an isolation run of a supported (workload, platform) pair, or one
// member of a random 2-, 3- or 4-way co-location set with the others as
// its interferers. Supported means the isolation runtime is within the
// generator's timeout.
func evalSet(cl *wasmcluster.Cluster, seed int64, n int) ([]pitot.Query, []float64) {
	rng := rand.New(rand.NewSource(seed))
	np, nw := len(cl.Platforms), len(cl.Workloads)
	supported := make([][]int, np)
	pairs := 0
	for p := 0; p < np; p++ {
		for w := 0; w < nw; w++ {
			if cl.TrueIsolationSeconds(w, p) <= cl.Config.TimeoutSeconds {
				supported[p] = append(supported[p], w)
			}
		}
		pairs += len(supported[p])
	}
	// Share of isolation observations in the generated dataset: one per
	// supported pair against 2+3+4 members per platform per set.
	inter := float64(np * cl.Config.SetsPerDegree * 9)
	pIso := float64(pairs) / (float64(pairs) + inter)

	qs := make([]pitot.Query, 0, n)
	ys := make([]float64, 0, n)
	for len(qs) < n {
		p := rng.Intn(np)
		sup := supported[p]
		var q pitot.Query
		if rng.Float64() < pIso {
			q = pitot.Query{Workload: sup[rng.Intn(len(sup))], Platform: p}
		} else {
			// Set size 2, 3 or 4, weighted by the members it contributes.
			size := 4
			switch r := rng.Intn(9); {
			case r < 2:
				size = 2
			case r < 5:
				size = 3
			}
			if len(sup) < size {
				continue
			}
			idx := rng.Perm(len(sup))[:size]
			q = pitot.Query{Workload: sup[idx[0]], Platform: p}
			for _, j := range idx[1:] {
				q.Interferers = append(q.Interferers, sup[j])
			}
		}
		qs = append(qs, q)
		ys = append(ys, cl.MeasureSeconds(rng, q.Workload, q.Platform, q.Interferers))
	}
	return qs, ys
}

// measureQuality scores the backend's current snapshot on the held-out set.
func measureQuality(be backend, qs []pitot.Query, ys []float64, calN int) (quality, error) {
	est := be.EstimateBatch(qs)
	bnd, err := be.BoundBatch(qs, eps)
	if err != nil {
		return quality{}, fmt.Errorf("quality bound batch: %w", err)
	}
	var ape float64
	misses := 0
	ratios := make([]float64, len(qs))
	for i, y := range ys {
		if !(est[i] > 0) || math.IsInf(est[i], 0) || !(bnd[i] > 0) || math.IsInf(bnd[i], 0) {
			return quality{}, fmt.Errorf("quality: query %d estimate %v bound %v not finite positive", i, est[i], bnd[i])
		}
		ape += math.Abs(est[i]-y) / y
		if y > bnd[i] {
			misses++
		}
		ratios[i] = bnd[i] / y
	}
	sort.Float64s(ratios)
	n := float64(len(ys))
	v := eps * (1 - eps)
	return quality{
		mapePct:    100 * ape / n,
		missPct:    100 * float64(misses) / n,
		boundRatio: ratios[len(ratios)/2],
		missTol:    100 * 4 * math.Sqrt(v/n+v/float64(calN)),
	}, nil
}
