package sched

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

// flatPred scores every platform identically, so health effects (degraded
// padding, tie-breaks, quarantine exclusion) are the only thing that can
// separate candidates.
type flatPred struct{ v float64 }

func (f flatPred) EstimateSeconds(w, p int, ks []int) float64 { return f.v }
func (f flatPred) BoundSeconds(w, p int, ks []int, eps float64) float64 {
	return f.v * (1 + 0.5*(1-eps))
}

// TestHealthLifecycle walks the failure state machine through every
// documented transition and error.
func TestHealthLifecycle(t *testing.T) {
	pred := loop(variedPred{base: []float64{1, 1, 1}})
	s := mustNew(t, Config{NumPlatforms: 3, MaxColocation: 4}, policy("mean"), pred)

	// Out-of-range platforms are typed errors on every event method.
	if _, err := s.Fail(-1); !errors.Is(err, ErrPlatformOutOfRange) {
		t.Fatalf("Fail(-1): %v", err)
	}
	if err := s.Degrade(3); !errors.Is(err, ErrPlatformOutOfRange) {
		t.Fatalf("Degrade(3): %v", err)
	}
	if err := s.Recover(99); !errors.Is(err, ErrPlatformOutOfRange) {
		t.Fatalf("Recover(99): %v", err)
	}

	// Healthy → Degraded → Healthy.
	if err := s.Degrade(0); err != nil {
		t.Fatal(err)
	}
	if got := s.Health(0); got != Degraded {
		t.Fatalf("after Degrade: %v", got)
	}
	if err := s.Recover(0); err != nil {
		t.Fatal(err)
	}
	if got := s.Health(0); got != Healthy {
		t.Fatalf("after Recover from Degraded: %v", got)
	}

	// Fail orphans exactly the failed platform's residents, retiring their
	// IDs; residents elsewhere are untouched.
	var as []Assignment
	for i := 0; i < 4; i++ {
		a := s.Place(Job{Workload: i, Deadline: 100})
		if !a.Placed() {
			t.Fatalf("setup placement %d: %+v", i, a)
		}
		as = append(as, a)
	}
	target := as[0].Platform
	var want []Orphan
	for _, a := range as {
		if a.Platform == target {
			want = append(want, Orphan{ID: a.ID, Job: a.Job})
		}
	}
	orphans, err := s.Fail(target)
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != len(want) {
		t.Fatalf("orphans: got %+v, want %+v", orphans, want)
	}
	for i := range want {
		if orphans[i] != want[i] {
			t.Fatalf("orphan %d carries wrong identity: %+v vs %+v", i, orphans[i], want[i])
		}
	}
	a1 := as[0]
	if got := s.Health(a1.Platform); got != Down {
		t.Fatalf("after Fail: %v", got)
	}
	if got := s.InFlight(); got != len(as)-len(want) {
		t.Fatalf("in-flight after Fail: %d, want %d", got, len(as)-len(want))
	}
	if rs := s.Residents(a1.Platform); len(rs) != 0 {
		t.Fatalf("residents survive Fail: %v", rs)
	}
	// Orphaned IDs are retired, not unknown.
	if err := s.Complete(a1.ID); !errors.Is(err, ErrJobCompleted) {
		t.Fatalf("complete orphaned id: %v", err)
	}

	// Failing a Down platform is a no-op; degrading it is an error.
	if more, err := s.Fail(a1.Platform); err != nil || more != nil {
		t.Fatalf("re-Fail: %v %v", more, err)
	}
	if err := s.Degrade(a1.Platform); !errors.Is(err, ErrPlatformUnavailable) {
		t.Fatalf("Degrade down platform: %v", err)
	}

	// Down → Recover → half-open probation (Degraded, capped at one job).
	if err := s.Recover(a1.Platform); err != nil {
		t.Fatal(err)
	}
	if got := s.Health(a1.Platform); got != Degraded {
		t.Fatalf("after Recover from Down: %v", got)
	}

	st := s.FailureStats()
	if st.Fails != 1 || st.Orphaned != uint64(len(want)) || st.Degrades != 1 ||
		st.Recovers != 2 || st.Readmissions != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestPlacementSkipsUnavailable: Down and Quarantined platforms are never
// candidates; when no placeable platform remains, jobs shed with
// ReasonNoHealthy (not Rejected, not Infeasible).
func TestPlacementSkipsUnavailable(t *testing.T) {
	pred := loop(variedPred{base: []float64{1, 1, 1}})
	s := mustNew(t, Config{NumPlatforms: 3, MaxColocation: 4}, policy("mean"), pred)
	for p := 0; p < 3; p++ {
		if _, err := s.Fail(p); err != nil {
			t.Fatal(err)
		}
	}
	a := s.Place(Job{Workload: 0, Deadline: 100})
	if a.Placed() || a.Rejected || a.Reason != ReasonNoHealthy {
		t.Fatalf("all-down placement: %+v", a)
	}
	// Wave path sheds with the same reason.
	was := s.PlaceAll([]Job{{Workload: 0, Deadline: 100}, {Workload: 1, Deadline: 100}})
	for i, wa := range was {
		if wa.Placed() || wa.Reason != ReasonNoHealthy {
			t.Fatalf("wave job %d: %+v", i, wa)
		}
	}
	// Recover one platform: placements land only there.
	if err := s.Recover(1); err != nil {
		t.Fatal(err)
	}
	if a := s.Place(Job{Workload: 0, Deadline: 100}); !a.Placed() || a.Platform != 1 {
		t.Fatalf("post-recovery placement: %+v", a)
	}
	// Half-open probation caps the platform at one trial job, so a second
	// job finds every remaining platform unavailable.
	if a := s.Place(Job{Workload: 1, Deadline: 100}); a.Placed() || a.Reason != ReasonCapacity {
		t.Fatalf("probation colocation cap: %+v", a)
	}
}

// TestDegradedSteersPlacement: with identical scores everywhere, degrading
// a platform steers placements to healthy peers — via the score padding
// for single-head policies and the strategy tie-break in general.
func TestDegradedSteersPlacement(t *testing.T) {
	for _, strat := range []Strategy{LeastLoaded{}, BestFit{}, UtilizationAware{}} {
		s := mustNew(t, Config{NumPlatforms: 2, MaxColocation: 4, Strategy: strat},
			policy("mean"), loop(flatPred{v: 1}))
		if err := s.Degrade(0); err != nil {
			t.Fatal(err)
		}
		// Both platforms empty, identical scores: the tie must break toward
		// the healthy platform. (At unequal load the strategy's primary key
		// still rules — degradation is a tie-break, not an override.)
		if a := s.Place(Job{Workload: 0, Deadline: 100}); !a.Placed() || a.Platform != 1 {
			t.Fatalf("%s: degraded platform won the tie: %+v", strat.Name(), a)
		}
	}

	// The padding is a feasibility penalty, not just a tie-break: a job the
	// degraded platform could serve at score 1 is shed once the padded
	// score clears the deadline.
	s := mustNew(t, Config{NumPlatforms: 1, MaxColocation: 4, DegradedPenalty: 2},
		policy("mean"), loop(flatPred{v: 1}))
	if a := s.Place(Job{Workload: 0, Deadline: 1.5}); !a.Placed() {
		t.Fatalf("healthy baseline infeasible: %+v", a)
	}
	if err := s.Degrade(0); err != nil {
		t.Fatal(err)
	}
	if a := s.Place(Job{Workload: 1, Deadline: 1.5}); a.Placed() || a.Reason != ReasonInfeasible {
		t.Fatalf("padded score should miss the 1.5 deadline: %+v", a)
	}
	if a := s.Place(Job{Workload: 1, Deadline: 3}); !a.Placed() {
		t.Fatalf("padded score should clear the 3.0 deadline: %+v", a)
	}
}

// TestDegradedDecisionIdentity extends the table/scalar identity property
// to impaired clusters: random fail/degrade/recover events interleave with
// placements, and the engine over its score table and over the scalar
// reference must keep making identical decisions throughout.
func TestDegradedDecisionIdentity(t *testing.T) {
	strategies := []Strategy{LeastLoaded{}, BestFit{}, UtilizationAware{}}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(500 + seed))
		nP := 3 + rng.Intn(5)
		base := make([]float64, nP)
		for i := range base {
			base[i] = 0.5 + 2*rng.Float64()
		}
		pol := policy(policyNames[seed%int64(len(policyNames))])
		strat := strategies[rng.Intn(len(strategies))]
		cfg := Config{NumPlatforms: nP, MaxColocation: 2, Strategy: strat, DegradedPenalty: 1.3}
		sb := mustNew(t, cfg, pol, loop(variedPred{base}))
		ss := mustNew(t, cfg, pol, &scalarRef{scalarHeads: variedPred{base}})
		for i := 0; i < 80; i++ {
			p := rng.Intn(nP)
			switch r := rng.Float64(); {
			case r < 0.10:
				ob, errB := sb.Fail(p)
				os, errS := ss.Fail(p)
				if (errB == nil) != (errS == nil) || len(ob) != len(os) {
					t.Fatalf("seed %d: Fail(%d) diverged: %v/%v %v/%v", seed, p, ob, errB, os, errS)
				}
			case r < 0.20:
				errB, errS := sb.Degrade(p), ss.Degrade(p)
				if (errB == nil) != (errS == nil) {
					t.Fatalf("seed %d: Degrade(%d) diverged: %v vs %v", seed, p, errB, errS)
				}
			case r < 0.30:
				errB, errS := sb.Recover(p), ss.Recover(p)
				if (errB == nil) != (errS == nil) {
					t.Fatalf("seed %d: Recover(%d) diverged: %v vs %v", seed, p, errB, errS)
				}
			default:
				job := Job{Workload: rng.Intn(20), Deadline: 0.3 + 6*rng.Float64()}
				ab, as := sb.Place(job), ss.Place(job)
				if !sameAssignment(ab, as) || ab.Reason != as.Reason {
					t.Fatalf("seed %d job %d: table %+v != scalar %+v (policy %s, strategy %s)",
						seed, i, ab, as, pol.Name(), strat.Name())
				}
			}
		}
	}
}

// TestBreakerTripHalfOpenClose drives the circuit breaker through its full
// cycle: threshold trip → quarantine → half-open probation → re-trip on a
// probation miss → second probation → close back to healthy.
func TestBreakerTripHalfOpenClose(t *testing.T) {
	s := mustNew(t, Config{
		NumPlatforms: 1, MaxColocation: 8,
		Breaker: BreakerConfig{Window: 4, Threshold: 0.5, MinSamples: 2, Probation: 2},
	}, policy("mean"), loop(flatPred{v: 1}))

	place := func(n int) []JobID {
		t.Helper()
		ids := make([]JobID, n)
		for i := range ids {
			a := s.Place(Job{Workload: i, Deadline: 100})
			if !a.Placed() {
				t.Fatalf("setup placement %d: %+v", i, a)
			}
			ids[i] = a.ID
		}
		return ids
	}

	// Two misses out of two outcomes crosses Threshold at MinSamples.
	ids := place(3)
	if tripped, err := s.CompleteOutcome(ids[0], true); err != nil || tripped {
		t.Fatalf("first miss should not trip alone: %v %v", tripped, err)
	}
	tripped, err := s.CompleteOutcome(ids[1], true)
	if err != nil || !tripped {
		t.Fatalf("second miss should trip: %v %v", tripped, err)
	}
	if got := s.Health(0); got != Quarantined {
		t.Fatalf("after trip: %v", got)
	}
	// Quarantined platforms still retire residents; stragglers carry no
	// breaker signal.
	if tripped, err := s.CompleteOutcome(ids[2], true); err != nil || tripped {
		t.Fatalf("straggler on quarantined platform: %v %v", tripped, err)
	}
	// And they take no placements.
	if a := s.Place(Job{Workload: 0, Deadline: 100}); a.Placed() || a.Reason != ReasonNoHealthy {
		t.Fatalf("quarantined platform took a placement: %+v", a)
	}

	// Half-open: one trial job; a miss during probation re-trips.
	if err := s.Recover(0); err != nil {
		t.Fatal(err)
	}
	trial := place(1)
	if a := s.Place(Job{Workload: 9, Deadline: 100}); a.Placed() {
		t.Fatalf("probation cap leaked a second trial job: %+v", a)
	}
	if tripped, err := s.CompleteOutcome(trial[0], true); err != nil || !tripped {
		t.Fatalf("probation miss should re-trip: %v %v", tripped, err)
	}
	if got := s.Health(0); got != Quarantined {
		t.Fatalf("after probation miss: %v", got)
	}

	// Second probation: Probation consecutive successes close to Healthy.
	if err := s.Recover(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		id := place(1)[0]
		if tripped, err := s.CompleteOutcome(id, false); err != nil || tripped {
			t.Fatalf("probation success %d: %v %v", i, tripped, err)
		}
	}
	if got := s.Health(0); got != Healthy {
		t.Fatalf("after probation closes: %v", got)
	}
	// Healthy again: full colocation is back.
	if ids := place(3); len(ids) != 3 {
		t.Fatal("capacity not restored after close")
	}

	st := s.FailureStats()
	if st.Trips != 2 || st.Readmissions != 2 || st.Closes != 1 {
		t.Fatalf("breaker stats %+v", st)
	}
}

// TestBreakerWindowSlides: the miss window is a ring — old outcomes age
// out, so a burst of misses beyond the window no longer trips once enough
// successes displace them.
func TestBreakerWindowSlides(t *testing.T) {
	s := mustNew(t, Config{
		NumPlatforms: 1, MaxColocation: 16,
		Breaker: BreakerConfig{Window: 4, Threshold: 0.75, MinSamples: 4, Probation: 1},
	}, policy("mean"), loop(flatPred{v: 1}))
	outcome := func(miss bool) bool {
		t.Helper()
		a := s.Place(Job{Workload: 0, Deadline: 100})
		if !a.Placed() {
			t.Fatalf("placement: %+v", a)
		}
		tripped, err := s.CompleteOutcome(a.ID, miss)
		if err != nil {
			t.Fatal(err)
		}
		return tripped
	}
	// Two misses, then successes: 2/4 never reaches 0.75, and the misses
	// age out of the ring.
	for _, miss := range []bool{true, true, false, false, false, false, false} {
		if outcome(miss) {
			t.Fatalf("breaker tripped below threshold (state %v)", s.Health(0))
		}
	}
	if got := s.Health(0); got != Healthy {
		t.Fatalf("state after sliding window: %v", got)
	}
}

// TestStreamChaosConservation is the job-conservation property test: across
// random chaos schedules (correlated groups, degrade mixes, retry budgets,
// backoff), every arrival ends in exactly one terminal state and every
// placement is either completed or orphaned — nothing lost, nothing
// duplicated. Identical seeds must replay identically.
func TestStreamChaosConservation(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(900 + seed))
		nP := 3 + rng.Intn(4)
		base := make([]float64, nP)
		for i := range base {
			base[i] = 0.5 + 1.5*rng.Float64()
		}
		groups := [][]int{nil} // one correlated group over a random prefix, rest independent
		cut := 1 + rng.Intn(nP)
		for p := 0; p < cut; p++ {
			groups[0] = append(groups[0], p)
		}
		for p := cut; p < nP; p++ {
			groups = append(groups, []int{p})
		}
		cfg := StreamConfig{
			Jobs:          60 + rng.Intn(60),
			ArrivalRate:   2 + 3*rng.Float64(),
			RetryLimit:    rng.Intn(3),
			FeedbackEvery: 0,
			Chaos: &ChaosConfig{
				MTTF:        4 + 10*rng.Float64(),
				MTTR:        1 + 2*rng.Float64(),
				Groups:      groups,
				DegradeProb: rng.Float64() * 0.5,
				Seed:        seed * 31,
			},
		}
		if rng.Float64() < 0.5 {
			cfg.RetryBackoff = 0.2 + rng.Float64()
			cfg.RetryBackoffMax = 4
		}
		if rng.Float64() < 0.5 {
			cfg.BreakerCooldown = 2 + 4*rng.Float64()
		}
		oracle := oracleFunc(func(w, p int, ks []int) float64 {
			return 0.4 + 0.1*float64(w%3) + 0.2*float64(len(ks))
		})
		source := func(rng *rand.Rand, i int) Job {
			return Job{Workload: i % 10, Deadline: 0.6 + 2*rng.Float64()}
		}
		run := func() StreamResult {
			s := mustNew(t, Config{
				NumPlatforms: nP, MaxColocation: 2, MaxInFlight: 2 * nP,
				Breaker: BreakerConfig{Window: 6, Threshold: 0.5, MinSamples: 3},
			}, policy("bound"), loop(variedPred{base}))
			res, err := Stream(cfg, s, oracle, source, nil, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if got := s.InFlight(); got != 0 {
				t.Fatalf("seed %d: in-flight after stream: %d", seed, got)
			}
			return res
		}
		res := run()
		if res.Arrived != cfg.Jobs {
			t.Fatalf("seed %d: arrived %d of %d", seed, res.Arrived, cfg.Jobs)
		}
		if res.Arrived != res.Completed+res.Unplaced+res.Rejected {
			t.Fatalf("seed %d: arrival conservation broken: %+v", seed, res)
		}
		if res.Placed != res.Completed+res.Orphaned {
			t.Fatalf("seed %d: placement conservation broken: %+v", seed, res)
		}
		if res.Orphaned != res.OrphanReplaced+res.OrphanLost+inRetryOrphans(res) {
			t.Fatalf("seed %d: orphan accounting broken: %+v", seed, res)
		}
		if res2 := run(); res != res2 {
			t.Fatalf("seed %d: replay not deterministic:\n%+v\n%+v", seed, res, res2)
		}
	}
}

// inRetryOrphans counts orphans re-placed and later orphaned again: each
// re-orphaning increments Orphaned without a matching OrphanReplaced or
// OrphanLost for the *first* orphaning, so the residual is the number of
// extra orphan → replace cycles. (Replacement and loss are terminal per
// orphaning event; the identity below makes the residual explicit.)
func inRetryOrphans(res StreamResult) int {
	return res.Orphaned - res.OrphanReplaced - res.OrphanLost
}

// TestChaosOffIsBitIdentical: a chaos schedule whose first failure lands
// after the last completion must reproduce the failure-free replay exactly
// — the injector draws from its own rng and must not perturb the
// arrival/placement stream.
func TestChaosOffIsBitIdentical(t *testing.T) {
	base := []float64{1, 1.2, 0.8}
	oracle := oracleFunc(func(w, p int, ks []int) float64 { return 0.3 + 0.2*float64(len(ks)) })
	source := func(rng *rand.Rand, i int) Job {
		return Job{Workload: i % 10, Deadline: 0.8 + 4*rng.Float64()}
	}
	run := func(chaos *ChaosConfig) StreamResult {
		s := mustNew(t, Config{NumPlatforms: 3, MaxColocation: 2},
			policy("bound"), loop(variedPred{base}))
		res, err := Stream(StreamConfig{Jobs: 50, ArrivalRate: 3, Chaos: chaos},
			s, oracle, source, nil, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	// MTTF so large that no failure fires inside the replay horizon.
	quiet := run(&ChaosConfig{MTTF: 1e12, Seed: 5})
	if plain != quiet {
		t.Fatalf("dormant chaos perturbed the replay:\n%+v\n%+v", plain, quiet)
	}
}

// TestFailRacesPlaceAllAndComplete exercises Fail/Recover/Complete racing a
// chunked PlaceAll (run under -race): failures land between chunks and
// inside them, where the reservations they stale conflict and retry, and
// the exactly-once contract holds — every placed job is completed once or
// orphaned once, never both, never lost.
func TestFailRacesPlaceAllAndComplete(t *testing.T) {
	pred := loop(variedPred{base: []float64{1, 1.2, 0.8, 1.5, 0.9}})
	s := mustNew(t, Config{NumPlatforms: 5, MaxColocation: 16, WaveChunk: 3},
		policy("bound"), pred)

	var (
		mu        sync.Mutex
		orphaned  = make(map[JobID]int)
		completed = make(map[JobID]int)
	)
	gap := make(chan struct{}, 64)
	s.chunkGap = func() {
		select {
		case gap <- struct{}{}:
		default:
		}
	}
	var chaosWG sync.WaitGroup
	chaosWG.Add(1)
	go func() {
		defer chaosWG.Done()
		rng := rand.New(rand.NewSource(7))
		for range gap {
			p := rng.Intn(5)
			os, err := s.Fail(p)
			if err != nil {
				t.Errorf("Fail(%d): %v", p, err)
				return
			}
			mu.Lock()
			for _, o := range os {
				orphaned[o.ID]++
			}
			mu.Unlock()
			if err := s.Recover(p); err != nil { // down → half-open
				t.Errorf("Recover(%d): %v", p, err)
				return
			}
			if err := s.Recover(p); err != nil { // half-open → healthy
				t.Errorf("re-Recover(%d): %v", p, err)
				return
			}
		}
	}()

	const waves, perWave = 4, 30
	var placeWG sync.WaitGroup
	for g := 0; g < waves; g++ {
		placeWG.Add(1)
		go func(g int) {
			defer placeWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			jobs := make([]Job, perWave)
			for i := range jobs {
				jobs[i] = Job{Workload: rng.Intn(10), Deadline: 0.5 + 5*rng.Float64()}
			}
			as := s.PlaceAll(jobs)
			// Complete this wave's survivors while other waves still place:
			// Complete races PlaceAll chunks and the failure injector.
			for _, a := range as {
				if !a.Placed() {
					continue
				}
				err := s.Complete(a.ID)
				switch {
				case err == nil:
					mu.Lock()
					completed[a.ID]++
					mu.Unlock()
				case errors.Is(err, ErrJobCompleted):
					// Orphaned by the injector before we completed it.
				default:
					t.Errorf("complete %d: %v", a.ID, err)
					return
				}
			}
		}(g)
	}
	placeWG.Wait()
	close(gap)
	chaosWG.Wait()
	if t.Failed() {
		return
	}

	// Exactly-once: completed and orphaned partition the placed IDs.
	for id, n := range orphaned {
		if n != 1 {
			t.Fatalf("job %d orphaned %d times", id, n)
		}
		if completed[id] != 0 {
			t.Fatalf("job %d both completed and orphaned", id)
		}
	}
	if got := s.InFlight(); got != 0 {
		t.Fatalf("in-flight after drain: %d", got)
	}
	for p := 0; p < 5; p++ {
		if rs := s.Residents(p); len(rs) != 0 {
			t.Fatalf("platform %d residents after drain: %v", p, rs)
		}
	}
	st := s.FailureStats()
	if int(st.Orphaned) != len(orphaned) {
		t.Fatalf("stats count %d orphans, injector saw %d", st.Orphaned, len(orphaned))
	}
}

// TestCompleteErrors: the Complete surface distinguishes never-issued IDs
// from already-retired ones with typed errors.
func TestCompleteErrors(t *testing.T) {
	s := mustNew(t, Config{NumPlatforms: 1}, policy("mean"), loop(flatPred{v: 1}))
	if err := s.Complete(1); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("never-issued id: %v", err)
	}
	a := s.Place(Job{Workload: 0, Deadline: 100})
	if !a.Placed() {
		t.Fatalf("placement: %+v", a)
	}
	if err := s.Complete(a.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Complete(a.ID); !errors.Is(err, ErrJobCompleted) {
		t.Fatalf("double complete: %v", err)
	}
	if _, err := s.CompleteOutcome(a.ID, true); !errors.Is(err, ErrJobCompleted) {
		t.Fatalf("CompleteOutcome on retired id: %v", err)
	}
	if _, err := s.CompleteOutcome(999, false); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("CompleteOutcome on unknown id: %v", err)
	}
}
