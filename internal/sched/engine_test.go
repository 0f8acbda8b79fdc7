package sched

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// scalarHeads is what the package's fake predictors implement: the two
// heads, one query at a time.
type scalarHeads interface {
	EstimateSeconds(w, p int, ks []int) float64
	BoundSeconds(w, p int, ks []int, eps float64) float64
}

// loopHeads fills the heads asked for (non-nil buffers) from h, one query
// at a time.
func loopHeads(h scalarHeads, qs []Query, eps float64, meanOut, boundOut []float64) {
	for i, q := range qs {
		if meanOut != nil {
			meanOut[i] = h.EstimateSeconds(q.Workload, q.Platform, q.Interferers)
		}
		if boundOut != nil {
			boundOut[i] = h.BoundSeconds(q.Workload, q.Platform, q.Interferers, eps)
		}
	}
}

// batchPred adapts scalar fake heads to Predictor by looping them at a
// constant scoring epoch, so every score is the scalar value bitwise —
// isolating the engine's decision logic from a real predictor's
// batch-vs-scalar float reassociation. Counters record call shapes.
type batchPred struct {
	scalarHeads
	batchCalls   atomic.Int64
	batchQueries atomic.Int64
}

func (b *batchPred) ScoreSecondsBatch(qs []Query, eps float64, meanOut, boundOut []float64) {
	b.batchCalls.Add(1)
	b.batchQueries.Add(int64(len(qs)))
	loopHeads(b.scalarHeads, qs, eps, meanOut, boundOut)
}

func (b *batchPred) ScoreEpoch() uint64 { return 0 }

// loop adapts scalar fake heads to Predictor (see batchPred).
func loop(h scalarHeads) *batchPred { return &batchPred{scalarHeads: h} }

// scalarRef is the scalar reference the engine's decisions are checked
// against: it loops the scalar heads like batchPred, but reports a new
// scoring epoch on every read, so every chunk starts from an unstamped
// table and nothing it scores is ever served from the table.
type scalarRef struct {
	scalarHeads
	epoch atomic.Uint64
}

func (s *scalarRef) ScoreSecondsBatch(qs []Query, eps float64, meanOut, boundOut []float64) {
	loopHeads(s.scalarHeads, qs, eps, meanOut, boundOut)
}

func (s *scalarRef) ScoreEpoch() uint64 { return s.epoch.Add(1) }

// policy parses a policy by name at eps 0.1 and pad factor 1.3, the
// defaults the package's tests use.
func policy(name string) Policy {
	p, err := ParsePolicy(name, 0.1, 1.3)
	if err != nil {
		panic(err)
	}
	return p
}

// policyNames are the five policies ParsePolicy knows.
var policyNames = []string{"mean", "padded", "bound", "mean-bound", "padded-bound"}

// variedPred is a scalar predictor with enough structure that different
// platforms, workloads, and interference levels all score differently.
type variedPred struct{ base []float64 }

func (f variedPred) EstimateSeconds(w, p int, ks []int) float64 {
	v := f.base[p] * (1 + 0.21*float64(w%5)) * (1 + 0.37*float64(len(ks)))
	for _, k := range ks {
		v *= 1 + 0.013*float64(k%7)
	}
	return v
}

func (f variedPred) BoundSeconds(w, p int, ks []int, eps float64) float64 {
	return f.EstimateSeconds(w, p, ks) * (1 + 0.5*(1-eps))
}

func mustNew(t *testing.T, cfg Config, pol Policy, pred Predictor) *Scheduler {
	t.Helper()
	s, err := New(cfg, pol, pred)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func sameAssignment(a, b Assignment) bool {
	return a.ID == b.ID && a.Platform == b.Platform && a.Budget == b.Budget &&
		a.Rejected == b.Rejected && a.Job == b.Job
}

// The core decision-identity property: for any policy, strategy, and
// sequence of placements, waves and completions, the engine over its score
// table picks the identical platform (and budget, and job ID) as over the
// scalar reference, whose scores are never served from the table.
func TestBatchScalarDecisionIdentical(t *testing.T) {
	strategies := []Strategy{LeastLoaded{}, BestFit{}, UtilizationAware{}}
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nP := 3 + rng.Intn(6)
		base := make([]float64, nP)
		for i := range base {
			base[i] = 0.5 + 2*rng.Float64()
		}
		pol, err := ParsePolicy(policyNames[seed%int64(len(policyNames))], 0.1+0.1*float64(rng.Intn(2)), 1.3)
		if err != nil {
			t.Fatal(err)
		}
		strat := strategies[rng.Intn(len(strategies))]
		cfg := Config{NumPlatforms: nP, MaxColocation: 1 + rng.Intn(3), MaxInFlight: 2 + rng.Intn(8), Strategy: strat}
		sb := mustNew(t, cfg, pol, loop(variedPred{base}))
		ss := mustNew(t, cfg, pol, &scalarRef{scalarHeads: variedPred{base}})
		var live []JobID
		for i := 0; i < 60; i++ {
			if len(live) > 0 && rng.Float64() < 0.3 {
				id := live[rng.Intn(len(live))]
				errB, errS := sb.Complete(id), ss.Complete(id)
				if (errB == nil) != (errS == nil) {
					t.Fatalf("seed %d: complete disagreement on id %d: %v vs %v", seed, id, errB, errS)
				}
				if errB == nil {
					for j, l := range live {
						if l == id {
							live = append(live[:j], live[j+1:]...)
							break
						}
					}
				}
				continue
			}
			jobs := []Job{{Workload: rng.Intn(20), Deadline: 0.3 + 6*rng.Float64()}}
			if rng.Float64() < 0.3 {
				// A small wave instead of a single placement.
				for n := 1 + rng.Intn(4); n > 0; n-- {
					jobs = append(jobs, Job{Workload: rng.Intn(20), Deadline: 0.3 + 6*rng.Float64()})
				}
			}
			wb, ws := sb.PlaceAll(jobs), ss.PlaceAll(jobs)
			for j := range jobs {
				if !sameAssignment(wb[j], ws[j]) {
					t.Fatalf("seed %d op %d job %d: table %+v != scalar %+v (policy %s, strategy %s)",
						seed, i, j, wb[j], ws[j], pol.Name(), strat.Name())
				}
				if wb[j].Placed() {
					live = append(live, wb[j].ID)
				}
			}
		}
		if st := ss.ScoreTableStats(); st.Hits != 0 {
			t.Fatalf("seed %d: the scalar reference was served %d cells from the table", seed, st.Hits)
		}
	}
}

// PlaceAll's wave path (pre-score + dirty-platform refresh) must make the
// same decisions as placing each job individually.
func TestPlaceAllMatchesSequentialPlace(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		nP := 4 + rng.Intn(5)
		base := make([]float64, nP)
		for i := range base {
			base[i] = 0.5 + 2*rng.Float64()
		}
		cfg := Config{NumPlatforms: nP, MaxColocation: 2, MaxInFlight: nP}
		wave := mustNew(t, cfg, policy("bound"), loop(variedPred{base}))
		seq := mustNew(t, cfg, policy("bound"), loop(variedPred{base}))
		jobs := make([]Job, 25)
		for i := range jobs {
			jobs[i] = Job{Workload: rng.Intn(15), Deadline: 0.3 + 6*rng.Float64()}
		}
		wa := wave.PlaceAll(jobs)
		for i, job := range jobs {
			sa := seq.Place(job)
			if !sameAssignment(wa[i], sa) {
				t.Fatalf("seed %d job %d: wave %+v != sequential %+v", seed, i, wa[i], sa)
			}
		}
	}
}

// The wave path must pre-score the whole wave in one predictor call, with
// only dirty-platform refreshes on top — not one call per (job, platform).
func TestPlaceAllBatchesWave(t *testing.T) {
	const nP = 8
	base := make([]float64, nP)
	for i := range base {
		base[i] = 1
	}
	bp := loop(variedPred{base})
	s := mustNew(t, Config{NumPlatforms: nP, MaxColocation: 4}, policy("mean"), bp)
	jobs := make([]Job, 12)
	for i := range jobs {
		jobs[i] = Job{Workload: i, Deadline: 1000}
	}
	s.PlaceAll(jobs)
	calls := bp.batchCalls.Load()
	// 1 wave pre-score + at most one refresh call per job.
	if calls < 1 || calls > int64(1+len(jobs)) {
		t.Fatalf("wave of %d jobs issued %d batch calls", len(jobs), calls)
	}
	if bp.batchQueries.Load() < int64(nP*len(jobs)) {
		t.Fatalf("pre-score missing: only %d queries", bp.batchQueries.Load())
	}
}

func TestCompleteFreesSlot(t *testing.T) {
	pred := loop(variedPred{base: []float64{1.0}})
	s := mustNew(t, Config{NumPlatforms: 1, MaxColocation: 2}, policy("mean"), pred)
	a1 := s.Place(Job{Workload: 0, Deadline: 100})
	a2 := s.Place(Job{Workload: 1, Deadline: 100})
	if !a1.Placed() || !a2.Placed() {
		t.Fatal("setup placements failed")
	}
	if a := s.Place(Job{Workload: 2, Deadline: 100}); a.Placed() {
		t.Fatal("exceeded colocation cap")
	}
	if err := s.Complete(a1.ID); err != nil {
		t.Fatal(err)
	}
	a3 := s.Place(Job{Workload: 2, Deadline: 100})
	if !a3.Placed() {
		t.Fatal("slot not freed by completion")
	}
	// The freed job is gone from the resident set; the survivor remains.
	res := s.Residents(0)
	if len(res) != 2 || res[0] != 1 || res[1] != 2 {
		t.Fatalf("residents after completion: %v", res)
	}
	if err := s.Complete(a1.ID); err != ErrJobCompleted {
		t.Fatalf("double complete: %v", err)
	}
	if err := s.Complete(9999); err != ErrUnknownJob {
		t.Fatalf("unknown id: %v", err)
	}
	if s.InFlight() != 2 {
		t.Fatalf("in-flight %d", s.InFlight())
	}
}

func TestAdmissionBound(t *testing.T) {
	pred := loop(variedPred{base: []float64{1, 1, 1, 1}})
	s := mustNew(t, Config{NumPlatforms: 4, MaxColocation: 4, MaxInFlight: 2}, policy("mean"), pred)
	a1 := s.Place(Job{Workload: 0, Deadline: 100})
	a2 := s.Place(Job{Workload: 1, Deadline: 100})
	if !a1.Placed() || !a2.Placed() {
		t.Fatal("under-bound placements failed")
	}
	a3 := s.Place(Job{Workload: 2, Deadline: 100})
	if a3.Placed() || !a3.Rejected {
		t.Fatalf("expected admission rejection, got %+v", a3)
	}
	if err := s.Complete(a2.ID); err != nil {
		t.Fatal(err)
	}
	a4 := s.Place(Job{Workload: 2, Deadline: 100})
	if !a4.Placed() {
		t.Fatal("admission slot not freed by completion")
	}
	// Infeasible is not Rejected: distinguishable failure modes (free an
	// admission slot first so feasibility is what gets exercised).
	if err := s.Complete(a4.ID); err != nil {
		t.Fatal(err)
	}
	if a := s.Place(Job{Workload: 0, Deadline: 1e-9}); a.Placed() || a.Rejected {
		t.Fatalf("infeasible job misreported: %+v", a)
	}
}

// Callers mutating returned slices must never corrupt scheduler state.
func TestResidentsNoAliasing(t *testing.T) {
	pred := loop(variedPred{base: []float64{1.0}})
	s := mustNew(t, Config{NumPlatforms: 1, MaxColocation: 3}, policy("mean"), pred)
	s.Place(Job{Workload: 7, Deadline: 100})
	a := s.Place(Job{Workload: 8, Deadline: 100})
	res := s.Residents(0)
	res[0] = 999
	for i := range a.Interferers {
		a.Interferers[i] = -5
	}
	got := s.Residents(0)
	if got[0] != 7 || got[1] != 8 {
		t.Fatalf("internal state mutated through returned slices: %v", got)
	}
}

func TestSimulateSkipsNonFiniteDeadlineHeadroom(t *testing.T) {
	as := []Assignment{
		{Job: Job{Workload: 0, Deadline: math.Inf(1)}, Platform: 0},
		{Job: Job{Workload: 1, Deadline: math.NaN()}, Platform: 0},
		{Job: Job{Workload: 2, Deadline: 2}, Platform: 0},
	}
	oracle := oracleFunc(func(w, p int, ks []int) float64 { return 1 })
	out := Simulate("x", as, oracle, func(p int) []int { return nil }, 4)
	if out.Placed != 3 || out.TotalExecutions != 12 {
		t.Fatalf("outcome %+v", out)
	}
	if math.IsNaN(out.AvgHeadroom) || math.IsInf(out.AvgHeadroom, 0) {
		t.Fatalf("headroom poisoned by non-finite deadlines: %v", out.AvgHeadroom)
	}
	if math.Abs(out.AvgHeadroom-0.5) > 1e-12 {
		t.Fatalf("headroom %v, want 0.5 from the one finite-deadline job", out.AvgHeadroom)
	}
}

type oracleFunc func(w, p int, ks []int) float64

func (f oracleFunc) TrueSeconds(w, p int, ks []int) float64 { return f(w, p, ks) }

func TestStrategySelection(t *testing.T) {
	// Platform speeds: 0 fast, 1 medium, 2 slow; all empty.
	pred := loop(variedPred{base: []float64{0.5, 1.0, 1.8}})
	job := Job{Workload: 0, Deadline: 2.0}

	ll := mustNew(t, Config{NumPlatforms: 3, Strategy: LeastLoaded{}}, policy("mean"), pred)
	ll.Place(Job{Workload: 0, Deadline: 100}) // occupy the fast platform
	if a := ll.Place(job); a.Platform == 0 {
		t.Fatalf("least-loaded picked the loaded platform: %+v", a)
	}

	bf := mustNew(t, Config{NumPlatforms: 3, Strategy: BestFit{}}, policy("mean"), pred)
	if a := bf.Place(job); a.Platform != 2 {
		t.Fatalf("best-fit should pick the tightest feasible platform 2, got %+v", a)
	}

	ua := mustNew(t, Config{NumPlatforms: 3, Strategy: UtilizationAware{}}, policy("mean"), pred)
	ua.Place(Job{Workload: 0, Deadline: 100}) // platform 0 now loaded
	// Occupancy: p0 = 0.5*(1+0.37)*2 ≈ 1.37, p1 = 1.0, p2 = 1.8 → p1 wins.
	if a := ua.Place(job); a.Platform != 1 {
		t.Fatalf("utilization-aware should pick platform 1, got %+v", a)
	}
}

func TestParseHelpers(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		bounds     bool
	}{
		{"mean", "mean", false},
		{"padded", "mean*1.3", false},
		{"bound", "bound(eps=0.10)", true},
		{"mean-bound", "mean|bound(eps=0.10)", true},
		{"padded-bound", "padded*1.3|bound(eps=0.10)", true},
	} {
		pol, err := ParsePolicy(tc.name, 0.1, 1.3)
		if err != nil {
			t.Fatal(err)
		}
		if pol.Name() != tc.want || pol.NeedsBounds() != tc.bounds {
			t.Fatalf("%s: Name %q NeedsBounds %v, want %q %v", tc.name, pol.Name(), pol.NeedsBounds(), tc.want, tc.bounds)
		}
		if tc.bounds {
			for _, eps := range []float64{0, 1, 2, -0.1, math.NaN()} {
				if _, err := ParsePolicy(tc.name, eps, 1.3); err == nil {
					t.Fatalf("%s accepted eps %v", tc.name, eps)
				}
			}
		}
	}
	if _, err := ParsePolicy("bogus", 0.1, 1.3); err == nil {
		t.Fatal("accepted unknown policy")
	}
	// A factor of 0 means the default; it is not a policy of its own.
	if pol, err := ParsePolicy("padded", 0.1, 0); err != nil || pol.Name() != "mean*1.3" {
		t.Fatalf("factor 0: %v %v", pol.Name(), err)
	}
	if _, err := New(Config{NumPlatforms: 1}, Policy{}, loop(flatPred{v: 1})); err == nil {
		t.Fatal("New accepted the zero Policy")
	}
	for _, n := range []string{"", "least-loaded", "best-fit", "utilization"} {
		if _, err := ParseStrategy(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Fatal("accepted unknown strategy")
	}
}

// Pad factors and degraded penalties arrive from flags and configs: a
// value that is not a finite number in range must be refused, not turned
// into a cluster on which every placement is infeasible.
func TestRejectsNonFiniteFactorAndPenalty(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -0.5} {
		for _, n := range []string{"padded", "padded-bound"} {
			if _, err := ParsePolicy(n, 0.1, f); err == nil {
				t.Errorf("ParsePolicy(%q, 0.1, %v) accepted the factor", n, f)
			}
		}
	}
	for _, f := range []float64{1, 1.3, 1e6} {
		if _, err := ParsePolicy("padded", 0.1, f); err != nil {
			t.Errorf("ParsePolicy(padded, 0.1, %v): %v", f, err)
		}
	}
	for _, tc := range []struct {
		penalty float64
		ok      bool
	}{
		{0, true}, {1, true}, {1.25, true}, {1e9, true},
		{0.99, false}, {-1, false}, {math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
	} {
		_, err := New(Config{NumPlatforms: 2, DegradedPenalty: tc.penalty}, policy("mean"), loop(flatPred{v: 1}))
		if (err == nil) != tc.ok {
			t.Errorf("DegradedPenalty %v: err %v, want ok %v", tc.penalty, err, tc.ok)
		}
	}
}

// Concurrent Place/Complete from many goroutines must keep the bookkeeping
// consistent (run under -race).
func TestConcurrentPlaceComplete(t *testing.T) {
	pred := loop(variedPred{base: []float64{1, 1.2, 0.8, 1.5}})
	s := mustNew(t, Config{NumPlatforms: 4, MaxColocation: 4}, policy("bound"), pred)
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var mine []JobID
			for i := 0; i < 50; i++ {
				if len(mine) > 0 && rng.Float64() < 0.5 {
					id := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := s.Complete(id); err != nil {
						t.Errorf("complete own job: %v", err)
						return
					}
					continue
				}
				a := s.Place(Job{Workload: rng.Intn(10), Deadline: 0.5 + 5*rng.Float64()})
				if a.Placed() {
					if a.Budget > a.Job.Deadline {
						t.Errorf("budget %v over deadline %v", a.Budget, a.Job.Deadline)
						return
					}
					mine = append(mine, a.ID)
				}
			}
			for _, id := range mine {
				if err := s.Complete(id); err != nil {
					t.Errorf("drain: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.InFlight(); got != 0 {
		t.Fatalf("in-flight after drain: %d", got)
	}
	for p := 0; p < 4; p++ {
		if rs := s.Residents(p); len(rs) != 0 {
			t.Fatalf("platform %d residents after drain: %v", p, rs)
		}
	}
}

// feedbackObserver records flushed measurements.
type feedbackObserver struct {
	mu sync.Mutex
	ms []Measurement
}

func (o *feedbackObserver) ObserveSeconds(ms []Measurement) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ms = append(o.ms, ms...)
	return nil
}

// The streaming harness conserves jobs (arrived = placed+unplaced+rejected,
// placed = completed once the event queue drains) and drives the feedback
// observer on the configured cadence.
func TestStreamConservation(t *testing.T) {
	pred := loop(variedPred{base: []float64{1, 1.2, 0.8}})
	s := mustNew(t, Config{NumPlatforms: 3, MaxColocation: 2, MaxInFlight: 5}, policy("bound"), pred)
	obs := &feedbackObserver{}
	rng := rand.New(rand.NewSource(42))
	source := func(rng *rand.Rand, i int) Job {
		return Job{Workload: i % 10, Deadline: 0.8 + 4*rng.Float64()}
	}
	oracle := oracleFunc(func(w, p int, ks []int) float64 {
		return 0.5 + 0.1*float64(w%3) + 0.3*float64(len(ks))
	})
	res, err := Stream(StreamConfig{Jobs: 80, ArrivalRate: 3, FeedbackEvery: 10}, s, oracle, source, obs, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived != 80 {
		t.Fatalf("arrived %d", res.Arrived)
	}
	if res.Placed+res.Unplaced+res.Rejected != res.Arrived {
		t.Fatalf("job conservation: %+v", res)
	}
	if res.Completed != res.Placed {
		t.Fatalf("placed %d but completed %d", res.Placed, res.Completed)
	}
	if s.InFlight() != 0 {
		t.Fatalf("in-flight after stream: %d", s.InFlight())
	}
	if res.Placed < 10 {
		t.Fatalf("degenerate stream, placed %d", res.Placed)
	}
	wantObserved := (res.Completed / 10) * 10
	if res.Observed != wantObserved || len(obs.ms) != wantObserved {
		t.Fatalf("observed %d (observer saw %d), want %d", res.Observed, len(obs.ms), wantObserved)
	}
	if res.Observed > 0 && res.PostPlaced == 0 {
		t.Fatal("no post-update placements recorded despite feedback")
	}
	// Aggregation over two identical replays doubles counts, keeps rates.
	agg := AggregateStream([]StreamResult{res, res})
	if agg.Placed != 2*res.Placed || math.Abs(agg.MissRate-res.MissRate) > 1e-12 {
		t.Fatalf("aggregate mismatch: %+v vs %+v", agg, res)
	}
}
