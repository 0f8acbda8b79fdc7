package pitot

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/sched"
)

// fastRelErr is the relative disagreement between an approximate and an
// exact score, treating matching infinities as exact agreement.
func fastRelErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	if math.IsInf(want, 0) || math.IsInf(got, 0) {
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestSetFastScoringToleranceOnRealModel pins the facade accuracy
// contract: toggling SetFastScoring on a trained predictor changes every
// ScoreBatch output by at most core.FastScoreMaxRelErr relative, +Inf
// bounds stay +Inf, and toggling back restores the exact outputs bitwise.
func TestSetFastScoringToleranceOnRealModel(t *testing.T) {
	pred, ds := enginePredictor(t)
	qs := schedQueries(ds)

	if pred.Info().FastScoring {
		t.Fatal("fast scoring on before toggle")
	}
	exactMean, exactBound, err := pred.ScoreBatch(qs, 0.1)
	if err != nil {
		t.Fatal(err)
	}

	pred.SetFastScoring(true)
	defer pred.SetFastScoring(false)
	if !pred.Info().FastScoring {
		t.Fatal("Info does not report fast scoring after toggle")
	}
	fastMean, fastBound, err := pred.ScoreBatch(qs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if e := fastRelErr(fastMean[i], exactMean[i]); e > core.FastScoreMaxRelErr {
			t.Fatalf("query %d mean: fast %.17g exact %.17g rel err %.3g", i, fastMean[i], exactMean[i], e)
		}
		if e := fastRelErr(fastBound[i], exactBound[i]); e > core.FastScoreMaxRelErr {
			t.Fatalf("query %d bound: fast %.17g exact %.17g rel err %.3g", i, fastBound[i], exactBound[i], e)
		}
	}

	pred.SetFastScoring(false)
	againMean, againBound, err := pred.ScoreBatch(qs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if againMean[i] != exactMean[i] || againBound[i] != exactBound[i] {
			t.Fatalf("query %d: exact path not restored bitwise after toggle off", i)
		}
	}
}

// TestFastScoringDecisionIdentity is the placement-level acceptance
// property on the real model: with fast scoring on, the scheduler must
// pick the identical platform for the identical job stream as the exact
// kernel — under the mixed-head dual policies and with a degraded
// platform paying its feasibility penalty — because score gaps between
// platforms dwarf the kernel's relative error and ties break by index in
// both modes. Scores may differ within tolerance; decisions may not.
func TestFastScoringDecisionIdentity(t *testing.T) {
	pred, ds := enginePredictor(t)
	defer pred.SetFastScoring(false)

	jrng := rand.New(rand.NewSource(23))
	var jobs []sched.Job
	for i := 0; i < 40; i++ {
		w := jrng.Intn(ds.NumWorkloads())
		p := jrng.Intn(ds.NumPlatforms())
		jobs = append(jobs, sched.Job{
			Workload: w,
			Deadline: pred.Estimate(w, p, nil) * (1.2 + 2*jrng.Float64()),
		})
	}
	policies := []sched.Policy{
		policy(t, "mean-bound"),
		policy(t, "padded-bound"),
		policy(t, "bound"),
	}
	run := func(pol sched.Policy) []int {
		s, err := sched.New(sched.Config{
			NumPlatforms:    ds.NumPlatforms(),
			MaxColocation:   3,
			DegradedPenalty: 1.25,
		}, pol, pred)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Degrade(1); err != nil {
			t.Fatal(err)
		}
		out := make([]int, len(jobs))
		for i, a := range s.PlaceAll(jobs) {
			out[i] = a.Platform // -1 when unplaced
		}
		return out
	}
	for _, pol := range policies {
		pred.SetFastScoring(false)
		exact := run(pol)
		pred.SetFastScoring(true)
		fast := run(pol)
		for i := range exact {
			if fast[i] != exact[i] {
				t.Fatalf("%s: job %d placed on %d (fast) vs %d (exact)",
					pol.Name(), i, fast[i], exact[i])
			}
		}
	}
}

// TestFastScoringSurvivesObserve checks the mode is part of the snapshot
// lineage: an Observe that publishes a new snapshot keeps the runtime
// fast-scoring override, and scoring stays within tolerance afterwards.
func TestFastScoringSurvivesObserve(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(31, true))
	if err != nil {
		t.Fatal(err)
	}
	pred.SetFastScoring(true)
	v := pred.Version()
	if err := pred.Observe([]Observation{{
		Workload: 0, Platform: 0, Seconds: pred.Estimate(0, 0, nil) * 1.2,
	}}); err != nil {
		t.Fatal(err)
	}
	info := pred.Info()
	if info.Version != v+1 {
		t.Fatalf("version %d -> %d", v, info.Version)
	}
	if !info.FastScoring {
		t.Fatal("Observe dropped the fast-scoring mode")
	}
	// SetFastScoring alone must not burn a version number.
	pred.SetFastScoring(false)
	pred.SetFastScoring(true)
	if got := pred.Version(); got != info.Version {
		t.Fatalf("SetFastScoring changed version %d -> %d", info.Version, got)
	}
}

// TestFastScoringPersistence checks ModelConfig.FastScoring rides through
// SaveModel/LoadPredictor: a model trained with the flag loads fast, one
// trained without loads exact, and the runtime override is not persisted.
func TestFastScoringPersistence(t *testing.T) {
	ds := smallDataset()
	opts := smallOptions(33, true)
	cfg := *opts.Model
	cfg.FastScoring = true
	opts.Model = &cfg
	pred, err := Train(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !pred.Info().FastScoring {
		t.Fatal("training with ModelConfig.FastScoring did not enable the mode")
	}

	var meanBuf, quantBuf bytes.Buffer
	if err := pred.SaveModel(&meanBuf, &quantBuf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPredictor(ds, bytes.NewReader(meanBuf.Bytes()), bytes.NewReader(quantBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Info().FastScoring {
		t.Fatal("persisted FastScoring flag lost on load")
	}

	// Runtime override on an exact-trained model must not persist.
	exact, err := Train(ds, smallOptions(33, true))
	if err != nil {
		t.Fatal(err)
	}
	exact.SetFastScoring(true)
	meanBuf.Reset()
	quantBuf.Reset()
	if err := exact.SaveModel(&meanBuf, &quantBuf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadPredictor(ds, bytes.NewReader(meanBuf.Bytes()), bytes.NewReader(quantBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Info().FastScoring {
		t.Fatal("runtime SetFastScoring override leaked into the saved model")
	}
}

// TestScoreSecondsBatchFallbackFillsInPlace is the regression for the
// error fallback: without bounds enabled, ScoreSecondsBatch must fill the
// caller's mean buffer in place with plain estimates (no reallocation)
// and mark every bound +Inf.
func TestScoreSecondsBatchFallbackFillsInPlace(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(35, false))
	if err != nil {
		t.Fatal(err)
	}
	qs := schedQueries(ds)[:8]
	meanOut := make([]float64, len(qs))
	boundOut := make([]float64, len(qs))
	for i := range meanOut {
		meanOut[i] = -1
		boundOut[i] = -1
	}
	pred.ScoreSecondsBatch(qs, 0.1, meanOut, boundOut)
	want := pred.EstimateBatch(qs)
	for i := range qs {
		if meanOut[i] != want[i] {
			t.Fatalf("query %d: fallback mean %.12f, EstimateBatch %.12f", i, meanOut[i], want[i])
		}
		if !math.IsInf(boundOut[i], 1) {
			t.Fatalf("query %d: fallback bound %v, want +Inf", i, boundOut[i])
		}
	}
}
