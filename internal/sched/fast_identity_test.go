package sched

import (
	"math"
	"math/rand"
	"testing"
)

// fastTol mirrors core.FastScoreMaxRelErr, the facade's documented
// relative-error bound for the approximate scoring kernel. The scheduler
// package deliberately doesn't import core, so the constant is restated.
const fastTol = 1e-9

// jitteredPred models an approximate scoring kernel: every score is the
// exact score perturbed by a deterministic relative error within fastTol.
// The perturbation is a pure function of the exact score's bit pattern —
// matching the real fast kernel, where two candidates with bitwise-equal
// exact scores run the identical arithmetic and stay tied — so exact ties
// survive the perturbation and break by platform index on both paths.
type jitteredPred struct {
	exact variedPred
	tol   float64
}

func (f jitteredPred) perturb(v float64) float64 {
	if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return v
	}
	bits := math.Float64bits(v)
	h := (bits ^ bits>>33) * 0x9e3779b97f4a7c15
	u := float64(h>>11) / float64(1<<53)
	return v * (1 + f.tol*(2*u-1))
}

func (f jitteredPred) EstimateSeconds(w, p int, ks []int) float64 {
	return f.perturb(f.exact.EstimateSeconds(w, p, ks))
}

func (f jitteredPred) BoundSeconds(w, p int, ks []int, eps float64) float64 {
	return f.perturb(f.exact.BoundSeconds(w, p, ks, eps))
}

// TestFastScoringDecisionIdentityProperty is the tolerance-aware decision
// identity the fast kernel must preserve: when candidate score gaps dwarf
// the kernel's relative-error bound (the real-model situation — platform
// scores differ by percents, the kernel by parts per billion), placements
// and tie-breaks must be identical to the exact path, while scores are
// allowed to differ within tolerance. Exercised under degraded-health
// penalties and the mixed-head policies across waves, completions,
// and deliberately injected exact ties.
func TestFastScoringDecisionIdentityProperty(t *testing.T) {
	policies := []Policy{
		policy("mean-bound"),
		policy("padded-bound"),
		policy("bound"),
	}
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		nP := 3 + rng.Intn(6)
		base := make([]float64, nP)
		for i := range base {
			base[i] = 0.5 + 2*rng.Float64()
		}
		// Inject an exact tie between two platforms: identical base means
		// bitwise-identical exact scores whenever their resident sets
		// match, so the index tie-break is exercised on both paths.
		if nP >= 2 {
			base[nP-1] = base[0]
		}
		pol := policies[rng.Intn(len(policies))]
		cfg := Config{
			NumPlatforms:    nP,
			MaxColocation:   1 + rng.Intn(3),
			DegradedPenalty: 1.25,
		}
		exact := variedPred{base}
		se := mustNew(t, cfg, pol, loop(exact))
		sj := mustNew(t, cfg, pol, loop(jitteredPred{exact: exact, tol: fastTol}))
		deg := rng.Intn(nP)
		if err := se.Degrade(deg); err != nil {
			t.Fatal(err)
		}
		if err := sj.Degrade(deg); err != nil {
			t.Fatal(err)
		}

		var live []JobID
		for i := 0; i < 60; i++ {
			if len(live) > 0 && rng.Float64() < 0.25 {
				id := live[rng.Intn(len(live))]
				errE, errJ := se.Complete(id), sj.Complete(id)
				if (errE == nil) != (errJ == nil) {
					t.Fatalf("seed %d: complete disagreement on id %d", seed, id)
				}
				for j, l := range live {
					if l == id {
						live = append(live[:j], live[j+1:]...)
						break
					}
				}
				continue
			}
			var jobs []Job
			n := 1
			if rng.Float64() < 0.3 {
				n = 2 + rng.Intn(4)
			}
			for j := 0; j < n; j++ {
				jobs = append(jobs, Job{Workload: rng.Intn(20), Deadline: 0.3 + 6*rng.Float64()})
			}
			ae, aj := se.PlaceAll(jobs), sj.PlaceAll(jobs)
			for j := range jobs {
				if ae[j].Platform != aj[j].Platform || ae[j].Placed() != aj[j].Placed() {
					t.Fatalf("seed %d job %d: approximate path placed on %d, exact on %d (policy %s, degraded %d)",
						seed, j, aj[j].Platform, ae[j].Platform, pol.Name(), deg)
				}
				if ae[j].Placed() {
					// Scores may differ — but only within tolerance.
					diff := math.Abs(aj[j].Budget - ae[j].Budget)
					if diff > 2*fastTol*math.Abs(ae[j].Budget) {
						t.Fatalf("seed %d job %d: budget drifted %.3g relative (exact %.17g, approx %.17g)",
							seed, j, diff/ae[j].Budget, ae[j].Budget, aj[j].Budget)
					}
					live = append(live, ae[j].ID)
				}
			}
		}
	}
}

// TestRetryBackoffDefaultCap is the regression for the uncapped retry
// exponential: with RetryBackoffMax unset, attempt k used to wait
// RetryBackoff·2^(k−1) — past any replay horizon by attempt ~30, silently
// stranding the job. The delay must now cap at
// defaultBackoffCapFactor·RetryBackoff (explicit RetryBackoffMax still
// wins when set), jitter included.
func TestRetryBackoffDefaultCap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := StreamConfig{RetryBackoff: 0.1}
	for tries := 1; tries <= 50; tries++ {
		d := cfg.backoffDelay(tries, rng)
		if max := cfg.RetryBackoff * defaultBackoffCapFactor * 1.5; d > max {
			t.Fatalf("tries=%d: delay %.4g exceeds default cap %.4g", tries, d, max)
		}
		if d <= 0 {
			t.Fatalf("tries=%d: nonpositive delay %.4g", tries, d)
		}
	}
	// Attempt 30 under the old formula: 0.1·2^29 ≈ 5.4e7 simulated
	// seconds. Now it must land within the capped jitter window.
	if d := cfg.backoffDelay(30, rng); d > cfg.RetryBackoff*defaultBackoffCapFactor*1.5 {
		t.Fatalf("attempt 30 uncapped: %.4g", d)
	}

	// An explicit cap overrides the default, even a tighter one.
	tight := StreamConfig{RetryBackoff: 0.1, RetryBackoffMax: 0.3}
	for tries := 1; tries <= 20; tries++ {
		if d := tight.backoffDelay(tries, rng); d > 0.3*1.5 {
			t.Fatalf("tries=%d: delay %.4g exceeds explicit cap", tries, d)
		}
	}
	// Below every cap the exponential is untouched: attempt 1 waits
	// base·jitter with jitter in [0.5, 1.5).
	for i := 0; i < 50; i++ {
		d := cfg.backoffDelay(1, rng)
		if d < 0.1*0.5 || d >= 0.1*1.5 {
			t.Fatalf("attempt 1 delay %.4g outside jitter window", d)
		}
	}
}
