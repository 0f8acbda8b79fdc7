package sched

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// fakePred is a deterministic predictor for unit tests: runtime = base[p]
// * (1 + 0.5*len(interferers)), bound = estimate * 1.5.
type fakePred struct{ base []float64 }

func (f fakePred) EstimateSeconds(w, p int, ks []int) float64 {
	return f.base[p] * (1 + 0.5*float64(len(ks)))
}

func (f fakePred) BoundSeconds(w, p int, ks []int, eps float64) float64 {
	return f.EstimateSeconds(w, p, ks) * 1.5
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}, policy("mean"), loop(fakePred{})); err == nil {
		t.Fatal("accepted zero platforms")
	}
	s, err := New(Config{NumPlatforms: 2}, policy("mean"), loop(fakePred{base: []float64{1, 2}}))
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.MaxColocation != 4 {
		t.Fatal("default max colocation wrong")
	}
}

func TestPlaceFeasibility(t *testing.T) {
	pred := loop(fakePred{base: []float64{1.0, 5.0}})
	s, _ := New(Config{NumPlatforms: 2}, policy("mean"), pred)
	// Deadline 2: only platform 0 feasible.
	a := s.Place(Job{Workload: 0, Deadline: 2})
	if !a.Placed() || a.Platform != 0 {
		t.Fatalf("placed on %d", a.Platform)
	}
	// Deadline 0.5: nothing feasible.
	a = s.Place(Job{Workload: 1, Deadline: 0.5})
	if a.Placed() {
		t.Fatal("placed infeasible job")
	}
}

func TestPlacePrefersLeastLoaded(t *testing.T) {
	pred := loop(fakePred{base: []float64{1.0, 1.0}})
	s, _ := New(Config{NumPlatforms: 2}, policy("mean"), pred)
	a1 := s.Place(Job{Workload: 0, Deadline: 10})
	a2 := s.Place(Job{Workload: 1, Deadline: 10})
	if a1.Platform == a2.Platform {
		t.Fatal("did not spread load")
	}
}

func TestPlaceRespectsColocationCap(t *testing.T) {
	pred := loop(fakePred{base: []float64{1.0}})
	s, _ := New(Config{NumPlatforms: 1, MaxColocation: 2}, policy("mean"), pred)
	if !s.Place(Job{Workload: 0, Deadline: 100}).Placed() {
		t.Fatal("first job unplaced")
	}
	if !s.Place(Job{Workload: 1, Deadline: 100}).Placed() {
		t.Fatal("second job unplaced")
	}
	if s.Place(Job{Workload: 2, Deadline: 100}).Placed() {
		t.Fatal("exceeded colocation cap")
	}
	if len(s.Residents(0)) != 2 {
		t.Fatal("resident bookkeeping wrong")
	}
}

func TestPlaceAccountsForInterference(t *testing.T) {
	// Platform runtime doubles with 2 residents; the third job's deadline
	// only fits an empty platform.
	pred := loop(fakePred{base: []float64{1.0, 1.2}})
	s, _ := New(Config{NumPlatforms: 2}, policy("mean"), pred)
	s.Place(Job{Workload: 0, Deadline: 10})
	s.Place(Job{Workload: 1, Deadline: 10})
	// both platforms have 1 resident; estimate = base*1.5
	a := s.Place(Job{Workload: 2, Deadline: 1.6})
	if !a.Placed() || a.Platform != 0 {
		t.Fatalf("expected platform 0, got %+v", a)
	}
}

// Each policy reads its heads from one predictor call and pads only the
// mean reads: the Budget is the feasibility facet, Rank what strategies
// order candidates by.
func TestPolicies(t *testing.T) {
	pred := loop(fakePred{base: []float64{2.0, 2.0}}) // mean 2, bound 3
	for _, tc := range []struct {
		name         string
		budget, rank float64
	}{
		{"mean", 2, 2},
		{"padded", 2 * 1.3, 2 * 1.3},
		{"bound", 3, 3},
		{"mean-bound", 3, 2},
		{"padded-bound", 3, 2 * 1.3},
	} {
		pred.batchCalls.Store(0)
		var got Candidate
		s := mustNew(t, Config{NumPlatforms: 2, Strategy: recordStrategy{&got}}, policy(tc.name), pred)
		a := s.Place(Job{Workload: 0, Deadline: 10})
		if a.Budget != tc.budget || got.Score != tc.budget || got.Rank != tc.rank {
			t.Errorf("%s: budget %v, candidate %+v; want budget %v rank %v", tc.name, a.Budget, got, tc.budget, tc.rank)
		}
		if n := pred.batchCalls.Load(); n != 1 {
			t.Errorf("%s: %d predictor calls for one placement, want 1", tc.name, n)
		}
	}
}

// recordStrategy is LeastLoaded behind the interface, recording the last
// candidate it compared.
type recordStrategy struct{ last *Candidate }

func (recordStrategy) Name() string { return "record" }

func (r recordStrategy) Better(job Job, a, b Candidate) bool {
	*r.last = a
	return LeastLoaded{}.Better(job, a, b)
}

// swapPred is a concurrency-safe Predictor whose per-platform speed table
// is swapped atomically — the same publication discipline as the snapshot-
// isolated Pitot facade. Score calls racing a swap see either the old or
// the new table, never a torn one, and every swap moves the scoring epoch.
type swapPred struct {
	base  atomic.Pointer[[]float64]
	epoch atomic.Uint64
}

func (p *swapPred) publish(base *[]float64) {
	p.base.Store(base)
	p.epoch.Add(1)
}

func (p *swapPred) ScoreSecondsBatch(qs []Query, eps float64, meanOut, boundOut []float64) {
	loopHeads(p, qs, eps, meanOut, boundOut)
}

func (p *swapPred) ScoreEpoch() uint64 { return p.epoch.Load() }

func newSwapPred(base []float64) *swapPred {
	p := &swapPred{}
	p.base.Store(&base)
	return p
}

func (p *swapPred) EstimateSeconds(w, pl int, ks []int) float64 {
	return (*p.base.Load())[pl] * (1 + 0.5*float64(len(ks)))
}

func (p *swapPred) BoundSeconds(w, pl int, ks []int, eps float64) float64 {
	return p.EstimateSeconds(w, pl, ks) * 1.5
}

// Many schedulers sharing one concurrently-updated predictor must keep
// making deadline-consistent decisions: every placement's budget respects
// the job's deadline, and with one platform always an order of magnitude
// slower than any published table, tight-deadline jobs never land on it.
// Run under `go test -race`.
func TestConcurrentSchedulersSharedPredictor(t *testing.T) {
	fast, slow := 1.0, 50.0
	tableA := []float64{fast, slow, fast * 1.2}
	tableB := []float64{fast * 2, slow * 2, fast * 1.8}
	pred := newSwapPred(tableA)

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				pred.publish(&tableB)
			} else {
				pred.publish(&tableA)
			}
		}
	}()

	const schedulers = 8
	var wg sync.WaitGroup
	for g := 0; g < schedulers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, pol := range []Policy{policy("mean"), policy("bound")} {
				s, err := New(Config{NumPlatforms: 3, MaxColocation: 2}, pol, pred)
				if err != nil {
					t.Error(err)
					return
				}
				// Deadline 20: feasible on the fast platforms under either
				// published table (max score 2*1.5*2 = 6), infeasible on the
				// slow platform under either (min score 50).
				for i := 0; i < 4; i++ {
					a := s.Place(Job{Workload: g*4 + i, Deadline: 20})
					if !a.Placed() {
						t.Errorf("scheduler %d job %d unplaced", g, i)
						return
					}
					if a.Platform == 1 {
						t.Errorf("scheduler %d placed on the slow platform (budget %.2f)", g, a.Budget)
						return
					}
					if a.Budget > 20 {
						t.Errorf("scheduler %d accepted budget %.2f over deadline", g, a.Budget)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	writer.Wait()
}

// noisyOracle returns base * lognormal noise; heavy enough that a mean
// estimate misses deadlines a conformal bound meets.
type noisyOracle struct {
	base  []float64
	sigma float64
	rng   *rand.Rand
}

func (o *noisyOracle) TrueSeconds(w, p int, ks []int) float64 {
	return o.base[p] * (1 + 0.5*float64(len(ks))) * math.Exp(o.sigma*o.rng.NormFloat64())
}

// calibratedPred mimics a predictor whose bound includes the noise
// quantile (as conformal calibration would produce).
type calibratedPred struct {
	base  []float64
	sigma float64
}

func (c calibratedPred) EstimateSeconds(w, p int, ks []int) float64 {
	return c.base[p] * (1 + 0.5*float64(len(ks)))
}

func (c calibratedPred) BoundSeconds(w, p int, ks []int, eps float64) float64 {
	// 1-eps quantile of the lognormal noise: exp(sigma * z_{1-eps}).
	z := 1.2816 // z_{0.90}
	if eps <= 0.05 {
		z = 1.6449
	}
	return c.EstimateSeconds(w, p, ks) * math.Exp(c.sigma*z)
}

func TestSimulateBoundPolicyMeetsDeadlines(t *testing.T) {
	const n = 6
	base := []float64{1, 1.1, 0.9, 1.2, 1.0, 0.95}
	pred := loop(calibratedPred{base: base, sigma: 0.4})
	var jobs []Job
	for i := 0; i < 30; i++ {
		jobs = append(jobs, Job{Workload: i, Deadline: 2.2})
	}
	run := func(pol Policy) Outcome {
		s, _ := New(Config{NumPlatforms: n, MaxColocation: 4}, pol, pred)
		as := s.PlaceAll(jobs)
		oracle := &noisyOracle{base: base, sigma: 0.4, rng: rand.New(rand.NewSource(1))}
		return Simulate(pol.Name(), as, oracle, s.Residents, 20)
	}
	mean := run(policy("mean"))
	bound := run(policy("bound"))

	if mean.Placed == 0 || bound.Placed == 0 {
		t.Fatalf("no placements: %+v %+v", mean, bound)
	}
	// The mean policy accepts placements whose tail exceeds the deadline;
	// the bound policy's misses must be much rarer.
	if bound.MissRate >= mean.MissRate {
		t.Fatalf("bound policy miss rate %.3f not below mean policy %.3f",
			bound.MissRate, mean.MissRate)
	}
	t.Logf("mean: placed %d missRate %.3f | bound: placed %d missRate %.3f",
		mean.Placed, mean.MissRate, bound.Placed, bound.MissRate)
}

func TestSimulateCountsUnplaced(t *testing.T) {
	as := []Assignment{{Job: Job{Deadline: 1}, Platform: -1}}
	out := Simulate("x", as, nil, nil, 1)
	if out.Unplaced != 1 || out.Placed != 0 || out.MissRate != 0 || out.TotalExecutions != 0 {
		t.Fatalf("outcome %+v", out)
	}
}

// With a perfectly calibrated bound, the per-execution miss rate must stay
// near eps while the mean policy's rate is far above it.
func TestBoundPolicyMissRateNearEps(t *testing.T) {
	base := []float64{1, 1, 1, 1}
	const sigma = 0.4
	const eps = 0.1
	pred := loop(calibratedPred{base: base, sigma: sigma})
	var jobs []Job
	for i := 0; i < 20; i++ {
		// Deadline exactly at the calibrated bound for an empty platform:
		// placements are feasible and the guarantee is tested at its edge.
		jobs = append(jobs, Job{Workload: i, Deadline: pred.BoundSeconds(i, 0, nil, eps) * 1.001})
	}
	bound, err := ParsePolicy("bound", eps, 0)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := New(Config{NumPlatforms: 4, MaxColocation: 1}, bound, pred)
	as := s.PlaceAll(jobs)
	oracle := &noisyOracle{base: base, sigma: sigma, rng: rand.New(rand.NewSource(3))}
	out := Simulate("bound", as, oracle, s.Residents, 200)
	if out.Placed != 4 { // MaxColocation 1 on 4 platforms
		t.Fatalf("placed %d", out.Placed)
	}
	if out.MissRate > eps+0.05 {
		t.Fatalf("miss rate %.3f well above eps %.2f", out.MissRate, eps)
	}
}
