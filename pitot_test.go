package pitot

import (
	"fmt"
	"math"
	"testing"
)

func smallDataset() *Dataset {
	return GenerateDataset(DatasetConfig{Seed: 11, NumWorkloads: 24, MaxDevices: 4, SetsPerDegree: 10})
}

func smallOptions(seed int64, bounds bool) Options {
	cfg := DefaultModelConfig(seed)
	cfg.Hidden = 32
	cfg.EmbeddingDim = 16
	cfg.Steps = 400
	cfg.BatchPerDegree = 128
	cfg.EvalEvery = 100
	return Options{Seed: seed, Model: &cfg, EnableBounds: bounds}
}

func TestTrainAndEstimate(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(1, false))
	if err != nil {
		t.Fatal(err)
	}
	est := pred.Estimate(0, 0, nil)
	if !(est > 0) || math.IsInf(est, 0) {
		t.Fatalf("Estimate = %v", est)
	}
	// Sanity: the estimate for a known observation should be within a
	// factor of ~2 of the measurement for most pairs; check a loose bound
	// on the first isolation observation.
	o := ds.Obs[0]
	got := pred.Estimate(o.Workload, o.Platform, o.Interferers)
	ratio := got / o.Seconds
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("estimate %.4fs vs measured %.4fs (ratio %.2f)", got, o.Seconds, ratio)
	}
}

func TestBoundRequiresEnable(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(2, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pred.Bound(0, 0, nil, 0.1); err == nil {
		t.Fatal("Bound without EnableBounds must error")
	}
}

func TestBoundCoversEstimate(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(3, true))
	if err != nil {
		t.Fatal(err)
	}
	covered, total := 0, 0
	for i, o := range ds.Obs {
		if i%37 != 0 { // subsample for speed
			continue
		}
		b, err := pred.Bound(o.Workload, o.Platform, o.Interferers, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if !(b > 0) {
			t.Fatalf("bound = %v", b)
		}
		if o.Seconds <= b {
			covered++
		}
		total++
	}
	// In-sample check is optimistic, but coverage must be near 1-eps.
	if rate := float64(covered) / float64(total); rate < 0.8 {
		t.Fatalf("bound coverage %.3f too low", rate)
	}
}

func TestBoundMonotoneInEps(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(4, true))
	if err != nil {
		t.Fatal(err)
	}
	loose, err := pred.Bound(1, 1, nil, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := pred.Bound(1, 1, nil, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if tight < loose {
		t.Fatalf("eps=0.05 bound %.4f below eps=0.2 bound %.4f", tight, loose)
	}
	// NaN eps must error, not return a garbage bound (a NaN calibration
	// would pick the least conservative quantile and its cache key could
	// never be found again, growing the bounder cache on every call).
	if _, err := pred.Bound(1, 1, nil, math.NaN()); err == nil {
		t.Fatal("Bound accepted eps=NaN")
	}
	if _, err := pred.BoundBatch([]Query{{Workload: 1, Platform: 1}}, math.NaN()); err == nil {
		t.Fatal("BoundBatch accepted eps=NaN")
	}
}

// TestCalibrationCacheBounded: a snapshot caches at most maxCalibrations
// eps values. Beyond the cap an eps is calibrated for its call alone and
// answers bitwise as that eps does from a fresh copy's cache, and an eps
// outside (0, 1) errors before any head prediction is built.
func TestCalibrationCacheBounded(t *testing.T) {
	shared, _ := enginePredictor(t)
	pred, _ := ownCopy(t, shared)
	qs := []Query{{Workload: 1, Platform: 2, Interferers: []int{3}}, {Workload: 4, Platform: 0}}
	cached := func(p *Predictor) int { return len(*p.snap.Load().bounders.Load()) }
	var eps []float64
	for i := 0; i < maxCalibrations+4; i++ {
		eps = append(eps, 0.02+0.01*float64(i))
	}
	scalar := make([]float64, len(eps))
	batch := make([][]float64, len(eps))
	for round := 0; round < 2; round++ {
		for i, e := range eps {
			b, err := pred.Bound(qs[0].Workload, qs[0].Platform, qs[0].Interferers, e)
			if err != nil {
				t.Fatal(err)
			}
			bb, err := pred.BoundBatch(qs, e)
			if err != nil {
				t.Fatal(err)
			}
			if round == 1 && (math.Float64bits(b) != math.Float64bits(scalar[i]) ||
				math.Float64bits(bb[1]) != math.Float64bits(batch[i][1])) {
				t.Fatalf("eps %v: second round (%v, %v), first (%v, %v)", e, b, bb[1], scalar[i], batch[i][1])
			}
			scalar[i], batch[i] = b, bb
		}
		if n := cached(pred); n != maxCalibrations {
			t.Fatalf("round %d: %d calibrations cached after %d distinct eps, want the cap %d",
				round, n, len(eps), maxCalibrations)
		}
	}

	fresh, _ := ownCopy(t, shared)
	for i := maxCalibrations; i < len(eps); i++ {
		b, err := fresh.Bound(qs[0].Workload, qs[0].Platform, qs[0].Interferers, eps[i])
		if err != nil {
			t.Fatal(err)
		}
		bb, err := fresh.BoundBatch(qs, eps[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(b) != math.Float64bits(scalar[i]) {
			t.Fatalf("uncached eps %v: Bound %v, fresh copy's cached %v", eps[i], scalar[i], b)
		}
		requireSameBits(t, fmt.Sprintf("uncached eps %v BoundBatch", eps[i]), batch[i], bb)
	}
	if n := cached(fresh); n != len(eps)-maxCalibrations {
		t.Fatalf("fresh copy cached %d calibrations, want %d", n, len(eps)-maxCalibrations)
	}

	// A calibration split with an index past the dataset makes building
	// the head predictions panic, so only an eps refused before the build
	// returns an error here.
	s := pred.snap.Load()
	split := s.split
	split.Cal = append(append([]int(nil), s.split.Cal...), len(s.ds.Obs))
	poisoned := newPredictor(newSnapshot(s.ds, s.mean, s.quant, split, s.version))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a valid eps on the poisoned split did not build head predictions")
			}
		}()
		_, _ = poisoned.Bound(1, 2, nil, 0.1)
	}()
	for _, e := range []float64{0, 1, -0.1, 1.5, math.NaN(), math.Inf(1)} {
		if _, err := poisoned.Bound(1, 2, nil, e); err == nil {
			t.Errorf("Bound accepted eps %v", e)
		}
		if _, err := poisoned.BoundBatch(qs, e); err == nil {
			t.Errorf("BoundBatch accepted eps %v", e)
		}
		mean, bound := scoreBoth(poisoned, qs, e)
		for i := range qs {
			if !(mean[i] > 0) || !math.IsInf(bound[i], 1) {
				t.Errorf("ScoreSecondsBatch at eps %v: query %d mean %v bound %v, want a mean and +Inf", e, i, mean[i], bound[i])
			}
		}
	}
}

func TestEmbeddingsExposed(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(5, false))
	if err != nil {
		t.Fatal(err)
	}
	we := pred.WorkloadEmbeddings()
	if len(we) != ds.NumWorkloads() || len(we[0]) == 0 {
		t.Fatal("workload embeddings wrong shape")
	}
	pe := pred.PlatformEmbeddings()
	if len(pe) != ds.NumPlatforms() {
		t.Fatal("platform embeddings wrong shape")
	}
	for j := 0; j < ds.NumPlatforms(); j++ {
		if n := pred.InterferenceNorm(j); n < 0 {
			t.Fatal("negative interference norm")
		}
	}
}

func TestObserveOnlineLearning(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(6, false))
	if err != nil {
		t.Fatal(err)
	}
	before := pred.Estimate(0, 0, nil)
	// Feed drifted measurements of (0,0): the platform got 2x slower.
	var obs []Observation
	for i := 0; i < 30; i++ {
		obs = append(obs, Observation{Workload: 0, Platform: 0, Seconds: before * 2})
	}
	if err := pred.Observe(obs); err != nil {
		t.Fatal(err)
	}
	after := pred.Estimate(0, 0, nil)
	if after <= before*1.1 {
		t.Fatalf("Observe did not adapt: %.4f -> %.4f (want > %.4f)", before, after, before*1.1)
	}
	// Invalid observations must be rejected atomically: no new snapshot.
	info := pred.Info()
	if err := pred.Observe([]Observation{{Workload: 999, Platform: 0, Seconds: 1}}); err == nil {
		t.Fatal("accepted invalid observation")
	}
	if got := pred.Info(); got != info {
		t.Fatalf("failed Observe published a snapshot: %+v -> %+v", info, got)
	}
	if err := pred.Observe(nil); err == nil {
		t.Fatal("accepted empty Observe")
	}
}

func TestTrainRejectsBadOptions(t *testing.T) {
	ds := smallDataset()
	if _, err := Train(ds, Options{HoldoutFraction: 1.5}); err == nil {
		t.Fatal("accepted bad holdout")
	}
}

// schedQueries builds a scheduler-shaped query batch: every workload scanned
// on every platform against that platform's resident set.
func schedQueries(ds *Dataset) []Query {
	var qs []Query
	for p := 0; p < ds.NumPlatforms(); p++ {
		resident := []int{p % ds.NumWorkloads(), (p + 5) % ds.NumWorkloads()}
		for w := 0; w < ds.NumWorkloads(); w++ {
			qs = append(qs, Query{Workload: w, Platform: p, Interferers: resident})
		}
	}
	return qs
}

func TestEstimateBatchMatchesLoopedEstimate(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(7, false))
	if err != nil {
		t.Fatal(err)
	}
	qs := schedQueries(ds)
	got := pred.EstimateBatch(qs)
	if len(got) != len(qs) {
		t.Fatalf("EstimateBatch returned %d results for %d queries", len(got), len(qs))
	}
	for i, q := range qs {
		want := pred.Estimate(q.Workload, q.Platform, q.Interferers)
		if math.Abs(got[i]-want) > 1e-9*want {
			t.Fatalf("query %d: batch %.12f vs looped %.12f", i, got[i], want)
		}
	}
	if out := pred.EstimateBatch(nil); len(out) != 0 {
		t.Fatal("EstimateBatch(nil) should be empty")
	}
}

func TestBoundBatchMatchesLoopedBound(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(8, true))
	if err != nil {
		t.Fatal(err)
	}
	qs := schedQueries(ds)
	got, err := pred.BoundBatch(qs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		want, err := pred.Bound(q.Workload, q.Platform, q.Interferers, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(want, 1) {
			if !math.IsInf(got[i], 1) {
				t.Fatalf("query %d: batch %v, looped +Inf", i, got[i])
			}
			continue
		}
		if math.Abs(got[i]-want) > 1e-9*want {
			t.Fatalf("query %d: batch %.12f vs looped %.12f", i, got[i], want)
		}
	}
}

func TestBoundBatchRequiresEnable(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(9, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pred.BoundBatch(schedQueries(ds)[:3], 0.1); err == nil {
		t.Fatal("BoundBatch without EnableBounds must error")
	}
}
