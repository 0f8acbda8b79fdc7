package pitot

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sched"
	"repro/internal/wasmcluster"
)

// The facade must plug directly into the scheduler.
var _ sched.Predictor = (*Predictor)(nil)

// policy parses a scheduler policy by name at eps 0.1 and pad factor 1.3.
func policy(t testing.TB, name string) sched.Policy {
	t.Helper()
	p, err := sched.ParsePolicy(name, 0.1, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// boundSeconds is Bound with errors as +Inf, as the scheduler reads it.
func boundSeconds(p *Predictor, w, pl int, ks []int, eps float64) float64 {
	b, err := p.Bound(w, pl, ks, eps)
	if err != nil {
		return math.Inf(1)
	}
	return b
}

// scalarRef is the scalar reference that placement over the real model is
// checked against: it scores every query with the scalar Estimate and
// Bound, and reports a new scoring epoch on every read, so nothing it
// scores is ever served from the engine's score table.
type scalarRef struct {
	p     *Predictor
	epoch atomic.Uint64
}

func (s *scalarRef) ScoreSecondsBatch(qs []Query, eps float64, meanOut, boundOut []float64) {
	for i, q := range qs {
		if meanOut != nil {
			meanOut[i] = s.p.Estimate(q.Workload, q.Platform, q.Interferers)
		}
		if boundOut != nil {
			boundOut[i] = boundSeconds(s.p, q.Workload, q.Platform, q.Interferers, eps)
		}
	}
}

func (s *scalarRef) ScoreEpoch() uint64 { return s.epoch.Add(1) }

// clusterOracle exposes ground-truth runtimes for the simulation.
type clusterOracle struct {
	c   *wasmcluster.Cluster
	rng *rand.Rand
}

func (o *clusterOracle) TrueSeconds(w, p int, ks []int) float64 {
	return o.c.MeasureSeconds(o.rng, w, p, ks)
}

// TestEndToEndOrchestration is the full pipeline: synthetic cluster →
// trained Pitot with bounds → deadline placement → ground-truth replay.
// The bound policy's per-execution miss rate must respect its eps budget
// (with slack for the small sample) and beat the mean policy.
func TestEndToEndOrchestration(t *testing.T) {
	cluster := wasmcluster.New(wasmcluster.Config{
		Seed: 101, NumWorkloads: 30, MaxDevices: 6, SetsPerDegree: 15,
	})
	ds := cluster.Generate()
	cfg := DefaultModelConfig(101)
	cfg.Hidden = 32
	cfg.EmbeddingDim = 16
	cfg.Steps = 700
	cfg.EvalEvery = 175
	pred, err := Train(ds, Options{Seed: 101, Model: &cfg, EnableBounds: true})
	if err != nil {
		t.Fatal(err)
	}

	jrng := rand.New(rand.NewSource(7))
	var jobs []sched.Job
	for i := 0; i < 24; i++ {
		w := jrng.Intn(ds.NumWorkloads())
		p := jrng.Intn(ds.NumPlatforms())
		jobs = append(jobs, sched.Job{
			Workload: w,
			Deadline: pred.Estimate(w, p, nil) * (1.5 + 2*jrng.Float64()),
		})
	}
	run := func(pol sched.Policy) sched.Outcome {
		s, err := sched.New(sched.Config{NumPlatforms: ds.NumPlatforms(), MaxColocation: 4}, pol, pred)
		if err != nil {
			t.Fatal(err)
		}
		as := s.PlaceAll(jobs)
		oracle := &clusterOracle{cluster, rand.New(rand.NewSource(9))}
		return sched.Simulate(pol.Name(), as, oracle, s.Residents, 15)
	}
	const eps = 0.1
	bound := run(policy(t, "bound"))
	mean := run(policy(t, "mean"))
	if bound.Placed == 0 {
		t.Fatal("bound policy placed nothing")
	}
	if bound.MissRate > eps+0.1 {
		t.Fatalf("bound policy miss rate %.3f far above eps %.2f", bound.MissRate, eps)
	}
	if mean.MissRate > 0 && bound.MissRate > mean.MissRate {
		t.Fatalf("bound policy (%.3f) missed more than mean policy (%.3f)",
			bound.MissRate, mean.MissRate)
	}
	if math.IsNaN(bound.AvgHeadroom) {
		t.Fatal("NaN headroom")
	}
	t.Logf("bound: placed=%d miss=%.3f | mean: placed=%d miss=%.3f",
		bound.Placed, bound.MissRate, mean.Placed, mean.MissRate)
}

// TestConcurrentOrchestration is the serving scenario the snapshot
// isolation exists for: several schedulers place deadline jobs against one
// shared predictor from concurrent goroutines while Observe publishes new
// snapshots. Every placement must respect its deadline budget and no read
// may ever block or tear. Run under `go test -race`.
func TestConcurrentOrchestration(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(55, true))
	if err != nil {
		t.Fatal(err)
	}

	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		obs := []Observation{{
			Workload: 2, Platform: 1,
			Seconds: pred.Estimate(2, 1, nil) * 1.4,
		}}
		if err := pred.Observe(obs); err != nil {
			t.Error(err)
		}
	}()

	const schedulers = 4
	bound := policy(t, "bound")
	var wg sync.WaitGroup
	for g := 0; g < schedulers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := sched.New(sched.Config{
				NumPlatforms: ds.NumPlatforms(), MaxColocation: 4,
			}, bound, pred)
			if err != nil {
				t.Error(err)
				return
			}
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 12; i++ {
				w := rng.Intn(ds.NumWorkloads())
				p := rng.Intn(ds.NumPlatforms())
				deadline := boundSeconds(pred, w, p, nil, 0.1) * (1.2 + rng.Float64())
				a := s.Place(sched.Job{Workload: w, Deadline: deadline})
				if a.Placed() && a.Budget > a.Job.Deadline {
					t.Errorf("scheduler %d accepted budget %.4f over deadline %.4f", g, a.Budget, a.Job.Deadline)
					return
				}
				if a.Placed() && (math.IsNaN(a.Budget) || a.Budget <= 0) {
					t.Errorf("scheduler %d got budget %v", g, a.Budget)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	writer.Wait()
	if pred.Version() != 1 {
		t.Fatalf("expected one published snapshot, got version %d", pred.Version())
	}
}

// The facade satisfies the feedback surface of the orchestration engine.
var _ sched.Observer = (*Predictor)(nil)

// engineShared lazily trains one bounds-enabled predictor shared by the
// orchestration-engine tests below (training dominates their runtime, and
// under -race a per-test model pushes the package past the suite timeout).
// Tests that Observe assert version/observation deltas, never absolutes.
var engineShared struct {
	once sync.Once
	ds   *Dataset
	pred *Predictor
	err  error
}

func enginePredictor(t *testing.T) (*Predictor, *Dataset) {
	t.Helper()
	engineShared.once.Do(func() {
		engineShared.ds = smallDataset()
		engineShared.pred, engineShared.err = Train(engineShared.ds, smallOptions(77, true))
	})
	if engineShared.err != nil {
		t.Fatal(engineShared.err)
	}
	return engineShared.pred, engineShared.ds
}

// TestBatchPlacementMatchesScalar pins the acceptance property on the real
// model: batch-scored placement (one EstimateBatch or BoundBatch pass per
// chunk, served from the score table after) picks the identical platform
// as the scalar reference for the same policy and job stream, including
// across completions.
func TestBatchPlacementMatchesScalar(t *testing.T) {
	pred, ds := enginePredictor(t)
	for _, pol := range []sched.Policy{policy(t, "mean"), policy(t, "bound")} {
		cfg := sched.Config{NumPlatforms: ds.NumPlatforms(), MaxColocation: 3}
		sb, err := sched.New(cfg, pol, pred)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := sched.New(cfg, pol, &scalarRef{p: pred})
		if err != nil {
			t.Fatal(err)
		}
		jrng := rand.New(rand.NewSource(5))
		var jobs []sched.Job
		for i := 0; i < 30; i++ {
			w := jrng.Intn(ds.NumWorkloads())
			p := jrng.Intn(ds.NumPlatforms())
			jobs = append(jobs, sched.Job{
				Workload: w,
				Deadline: pred.Estimate(w, p, nil) * (1.2 + 2*jrng.Float64()),
			})
		}
		// First half as individual placements with interleaved completes,
		// second half as one wave.
		var live []sched.JobID
		for i, job := range jobs[:15] {
			ab, as := sb.Place(job), ss.Place(job)
			if ab.Platform != as.Platform || ab.ID != as.ID || ab.Rejected != as.Rejected {
				t.Fatalf("policy %s job %d: batch (p=%d id=%d) != scalar (p=%d id=%d)",
					pol.Name(), i, ab.Platform, ab.ID, as.Platform, as.ID)
			}
			if ab.Placed() {
				live = append(live, ab.ID)
			}
			if len(live) > 2 && i%3 == 0 {
				id := live[0]
				live = live[1:]
				if err := sb.Complete(id); err != nil {
					t.Fatal(err)
				}
				if err := ss.Complete(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		wb, ws := sb.PlaceAll(jobs[15:]), ss.PlaceAll(jobs[15:])
		for i := range wb {
			if wb[i].Platform != ws[i].Platform || wb[i].ID != ws[i].ID {
				t.Fatalf("policy %s wave job %d: batch p=%d != scalar p=%d",
					pol.Name(), i, wb[i].Platform, ws[i].Platform)
			}
		}
	}
}

// TestConcurrentPlaceCompleteDuringObserve drives the full engine against
// a live predictor while Observe publishes new snapshots — the event-driven
// lifecycle racing online learning. Run under -race.
func TestConcurrentPlaceCompleteDuringObserve(t *testing.T) {
	pred, ds := enginePredictor(t)
	v0 := pred.Version()
	s, err := sched.New(sched.Config{
		NumPlatforms: ds.NumPlatforms(), MaxColocation: 4, MaxInFlight: 24,
	}, policy(t, "bound"), pred)
	if err != nil {
		t.Fatal(err)
	}

	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; i < 2; i++ {
			obs := []Observation{{
				Workload: i, Platform: 1,
				Seconds: pred.Estimate(i, 1, nil) * 1.2,
			}}
			if err := pred.Observe(obs); err != nil {
				t.Error(err)
			}
		}
	}()

	const workers = 4
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var mine []sched.JobID
			for i := 0; i < 20; i++ {
				if len(mine) > 0 && rng.Float64() < 0.5 {
					id := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := s.Complete(id); err != nil {
						t.Errorf("worker %d complete: %v", g, err)
						return
					}
					continue
				}
				w := rng.Intn(ds.NumWorkloads())
				p := rng.Intn(ds.NumPlatforms())
				deadline := boundSeconds(pred, w, p, nil, 0.1) * (1.2 + rng.Float64())
				a := s.Place(sched.Job{Workload: w, Deadline: deadline})
				if a.Placed() {
					if a.Budget > a.Job.Deadline {
						t.Errorf("worker %d budget %v over deadline %v", g, a.Budget, a.Job.Deadline)
						return
					}
					mine = append(mine, a.ID)
				}
			}
			for _, id := range mine {
				if err := s.Complete(id); err != nil {
					t.Errorf("worker %d drain: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	writer.Wait()
	if got := s.InFlight(); got != 0 {
		t.Fatalf("in-flight after drain: %d", got)
	}
	if got := pred.Version() - v0; got != 2 {
		t.Fatalf("expected two published snapshots, got %d", got)
	}
}

// TestObserveSecondsFeedbackBridge checks the sched.Observer bridge: a
// measured-runtime batch publishes a new snapshot whose calibration pool
// includes the measurements, and predictions keep serving throughout.
func TestObserveSecondsFeedbackBridge(t *testing.T) {
	pred, _ := enginePredictor(t)
	before := pred.Info()
	ms := []sched.Measurement{
		{Workload: 0, Platform: 0, Seconds: pred.Estimate(0, 0, nil) * 1.1},
		{Workload: 1, Platform: 2, Interferers: []int{3}, Seconds: pred.Estimate(1, 2, []int{3}) * 0.9},
	}
	if err := pred.ObserveSeconds(ms); err != nil {
		t.Fatal(err)
	}
	after := pred.Info()
	if after.Version != before.Version+1 {
		t.Fatalf("version %d -> %d", before.Version, after.Version)
	}
	if after.Observations != before.Observations+len(ms) {
		t.Fatalf("observations %d -> %d", before.Observations, after.Observations)
	}
	if _, err := pred.Bound(0, 0, nil, 0.1); err != nil {
		t.Fatalf("bound after feedback: %v", err)
	}
	// Empty flushes (timer-driven with nothing pending) are a no-op, not
	// an error, and must not publish a new snapshot.
	if err := pred.ObserveSeconds(nil); err != nil {
		t.Fatalf("empty measurement batch: %v", err)
	}
	if got := pred.Info().Version; got != after.Version {
		t.Fatalf("empty batch published snapshot: v%d -> v%d", after.Version, got)
	}
}
