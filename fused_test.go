package pitot

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sched"
)

// fusedQueries builds a scheduler-shaped batch over the real dataset:
// platform-major spans sharing resident sets (degrees 0..3, hitting
// several conformal calibration pools), plus a shuffled tail of singleton
// groups so the batch path's span detection sees narrow spans too.
func fusedQueries(ds *Dataset, rng *rand.Rand) []Query {
	var qs []Query
	for p := 0; p < ds.NumPlatforms(); p++ {
		deg := p % 4
		resident := make([]int, deg)
		for i := range resident {
			resident[i] = (p + 3*i + 1) % ds.NumWorkloads()
		}
		if deg == 0 {
			resident = nil
		}
		for w := 0; w < ds.NumWorkloads(); w += 2 {
			qs = append(qs, Query{Workload: w, Platform: p, Interferers: resident})
		}
	}
	for i := 0; i < 40; i++ {
		var ks []int
		for k := 0; k < rng.Intn(4); k++ {
			ks = append(ks, rng.Intn(ds.NumWorkloads()))
		}
		qs = append(qs, Query{
			Workload:    rng.Intn(ds.NumWorkloads()),
			Platform:    rng.Intn(ds.NumPlatforms()),
			Interferers: ks,
		})
	}
	return qs
}

// scoreBoth is the two-head scheduler call into fresh buffers.
func scoreBoth(pred *Predictor, qs []Query, eps float64) (mean, bound []float64) {
	mean, bound = make([]float64, len(qs)), make([]float64, len(qs))
	pred.ScoreSecondsBatch(qs, eps, mean, bound)
	return mean, bound
}

// TestScoreBatchBitwiseIdentical pins the two-head call's guarantee:
// ScoreSecondsBatch with both buffers fills means and bounds
// bitwise-identical to the separate EstimateBatch + BoundBatch passes,
// across epsilons (distinct conformal heads/offsets).
func TestScoreBatchBitwiseIdentical(t *testing.T) {
	pred, ds := enginePredictor(t)
	qs := fusedQueries(ds, rand.New(rand.NewSource(17)))
	for _, eps := range []float64{0.05, 0.1, 0.3} {
		mean, bound := scoreBoth(pred, qs, eps)
		wantMean := pred.EstimateBatch(qs)
		wantBound, err := pred.BoundBatch(qs, eps)
		if err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			if math.Float64bits(mean[i]) != math.Float64bits(wantMean[i]) {
				t.Fatalf("eps %v query %d (%+v): two-head mean %v != EstimateBatch %v",
					eps, i, qs[i], mean[i], wantMean[i])
			}
			if math.Float64bits(bound[i]) != math.Float64bits(wantBound[i]) {
				t.Fatalf("eps %v query %d (%+v): two-head bound %v != BoundBatch %v",
					eps, i, qs[i], bound[i], wantBound[i])
			}
			if !(mean[i] > 0) || math.IsNaN(bound[i]) {
				t.Fatalf("degenerate outputs: mean %v bound %v", mean[i], bound[i])
			}
		}
	}
}

// TestScoreSecondsBatchOneHead pins the scheduler call's single-head
// contract: asked for one head (the other buffer nil), ScoreSecondsBatch
// runs exactly EstimateBatch's or BoundBatch's code, bitwise; and asked
// for none it does nothing.
func TestScoreSecondsBatchOneHead(t *testing.T) {
	pred, ds := enginePredictor(t)
	qs := fusedQueries(ds, rand.New(rand.NewSource(41)))
	mean := make([]float64, len(qs))
	bound := make([]float64, len(qs))
	pred.ScoreSecondsBatch(qs, 0.1, mean, nil)
	pred.ScoreSecondsBatch(qs, 0.1, nil, bound)
	pred.ScoreSecondsBatch(qs, 0.1, nil, nil)
	wantMean := pred.EstimateBatch(qs)
	wantBound, err := pred.BoundBatch(qs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if math.Float64bits(mean[i]) != math.Float64bits(wantMean[i]) ||
			math.Float64bits(bound[i]) != math.Float64bits(wantBound[i]) {
			t.Fatalf("query %d: one-head (%v, %v) != EstimateBatch/BoundBatch (%v, %v)",
				i, mean[i], bound[i], wantMean[i], wantBound[i])
		}
	}
}

// The shared engine predictor runs rank 16; this variant pins bitwise
// identity of the two-head call on the default rank-32 configuration,
// whose span kernel takes the fully unrolled dot32 fast path.
func TestScoreBatchBitwiseIdenticalRank32(t *testing.T) {
	ds := smallDataset()
	cfg := DefaultModelConfig(3)
	cfg.Hidden = 32
	cfg.Steps = 60
	cfg.EvalEvery = 30
	pred, err := Train(ds, Options{Seed: 3, Model: &cfg, EnableBounds: true})
	if err != nil {
		t.Fatal(err)
	}
	qs := fusedQueries(ds, rand.New(rand.NewSource(29)))
	mean, bound := scoreBoth(pred, qs, 0.1)
	wantMean := pred.EstimateBatch(qs)
	wantBound, err := pred.BoundBatch(qs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		if math.Float64bits(mean[i]) != math.Float64bits(wantMean[i]) ||
			math.Float64bits(bound[i]) != math.Float64bits(wantBound[i]) {
			t.Fatalf("rank-32 query %d: two-head (%v, %v) != separate (%v, %v)",
				i, mean[i], bound[i], wantMean[i], wantBound[i])
		}
	}
}

// boundsFreeShared lazily trains the one bounds-free predictor that the
// two fallback tests below read, so the fallback costs one Train.
var boundsFreeShared struct {
	once sync.Once
	ds   *Dataset
	pred *Predictor
	err  error
}

func boundsFreePredictor(t *testing.T) (*Predictor, *Dataset) {
	t.Helper()
	boundsFreeShared.once.Do(func() {
		boundsFreeShared.ds = smallDataset()
		boundsFreeShared.pred, boundsFreeShared.err = Train(boundsFreeShared.ds, smallOptions(31, false))
	})
	if boundsFreeShared.err != nil {
		t.Fatal(boundsFreeShared.err)
	}
	return boundsFreeShared.pred, boundsFreeShared.ds
}

// Without bounds, BoundBatch errors while ScoreSecondsBatch degrades to
// +Inf bounds with valid means — the scheduler's infeasibility convention
// (the in-place fill is TestScoreSecondsBatchFallbackFillsInPlace's).
func TestScoreBatchWithoutBounds(t *testing.T) {
	pred, _ := boundsFreePredictor(t)
	qs := []Query{{Workload: 0, Platform: 0}, {Workload: 1, Platform: 1, Interferers: []int{2}}}
	if _, err := pred.BoundBatch(qs, 0.1); err == nil {
		t.Fatal("BoundBatch without bounds did not error")
	}
	// A bad eps degrades the same way even with bounds enabled.
	predB, _ := enginePredictor(t)
	qs2 := []Query{{Workload: 0, Platform: 0}}
	pb := make([]float64, 1)
	mb := make([]float64, 1)
	predB.ScoreSecondsBatch(qs2, math.NaN(), mb, pb)
	if !math.IsInf(pb[0], 1) {
		t.Fatalf("NaN eps bound: %v, want +Inf", pb[0])
	}
}

// TestScoreSecondsBatchFallbackFillsInPlace is the regression for the
// error fallback: without bounds enabled, ScoreSecondsBatch must fill the
// caller's buffers in place (both start at −1) with means equal to
// EstimateBatch and every bound +Inf.
func TestScoreSecondsBatchFallbackFillsInPlace(t *testing.T) {
	pred, ds := boundsFreePredictor(t)
	qs := append([]Query{{Workload: 0, Platform: 0}, {Workload: 1, Platform: 1, Interferers: []int{2}}},
		schedQueries(ds)[:8]...)
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

// TestFusedWavePlacementMatchesScalar pins the mixed-policy acceptance
// property on the real model: fused-wave scoring (one two-head
// ScoreSecondsBatch pass per chunk) picks the identical platform as the
// scalar reference, including across completions and waves.
func TestFusedWavePlacementMatchesScalar(t *testing.T) {
	pred, ds := enginePredictor(t)
	for _, pol := range []sched.Policy{policy(t, "mean-bound"), policy(t, "padded-bound")} {
		for _, strat := range []sched.Strategy{sched.LeastLoaded{}, sched.BestFit{}} {
			cfg := sched.Config{NumPlatforms: ds.NumPlatforms(), MaxColocation: 3, Strategy: strat}
			sf, err := sched.New(cfg, pol, pred)
			if err != nil {
				t.Fatal(err)
			}
			ss, err := sched.New(cfg, pol, &scalarRef{p: pred})
			if err != nil {
				t.Fatal(err)
			}
			jrng := rand.New(rand.NewSource(23))
			var jobs []sched.Job
			for i := 0; i < 30; i++ {
				w := jrng.Intn(ds.NumWorkloads())
				p := jrng.Intn(ds.NumPlatforms())
				jobs = append(jobs, sched.Job{
					Workload: w,
					Deadline: boundSeconds(pred, w, p, nil, 0.1) * (0.9 + 1.5*jrng.Float64()),
				})
			}
			var live []sched.JobID
			for i, job := range jobs[:15] {
				af, as := sf.Place(job), ss.Place(job)
				if af.Platform != as.Platform || af.ID != as.ID || af.Rejected != as.Rejected {
					t.Fatalf("policy %s strategy %s job %d: fused (p=%d id=%d) != scalar (p=%d id=%d)",
						pol.Name(), strat.Name(), i, af.Platform, af.ID, as.Platform, as.ID)
				}
				if af.Placed() {
					live = append(live, af.ID)
				}
				if len(live) > 2 && i%3 == 0 {
					id := live[0]
					live = live[1:]
					if err := sf.Complete(id); err != nil {
						t.Fatal(err)
					}
					if err := ss.Complete(id); err != nil {
						t.Fatal(err)
					}
				}
			}
			wf, ws := sf.PlaceAll(jobs[15:]), ss.PlaceAll(jobs[15:])
			for i := range wf {
				if wf[i].Platform != ws[i].Platform || wf[i].ID != ws[i].ID {
					t.Fatalf("policy %s strategy %s wave job %d: fused p=%d != scalar p=%d",
						pol.Name(), strat.Name(), i, wf[i].Platform, ws[i].Platform)
				}
			}
		}
	}
}
