package pitot

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/sched"
)

// equalAssignment compares everything a placement decision carries,
// including the interference set the job was scored under.
func equalAssignment(a, b sched.Assignment) bool {
	if a.ID != b.ID || a.Platform != b.Platform || a.Budget != b.Budget ||
		a.Rejected != b.Rejected || a.Reason != b.Reason || a.Job != b.Job ||
		len(a.Interferers) != len(b.Interferers) {
		return false
	}
	for i := range a.Interferers {
		if a.Interferers[i] != b.Interferers[i] {
			return false
		}
	}
	return true
}

// coldPredictor serves the trained model but reports a new scoring epoch
// on every read, so an engine built on it serves nothing from its score
// table across chunks: the no-reuse reference for the warm table.
type coldPredictor struct {
	*Predictor
	n uint64
}

func (c *coldPredictor) ScoreEpoch() uint64 {
	c.n++
	return c.n
}

// TestScoreCacheRealPredictorDecisionIdentity is the reuse property on the
// trained model with the exact kernel: under dup-heavy waves, completions,
// and platform Fail/Degrade/Recover churn, the warm-table engine produces
// assignments bitwise identical to a cold-table engine — same platforms,
// same budgets, same unplaced reasons.
func TestScoreCacheRealPredictorDecisionIdentity(t *testing.T) {
	pred, ds := enginePredictor(t)
	nP := ds.NumPlatforms()

	for _, pol := range []sched.Policy{
		policy(t, "mean-bound"),
		policy(t, "bound"),
	} {
		cfg := sched.Config{
			NumPlatforms:    nP,
			MaxColocation:   3,
			WaveChunk:       8,
			DegradedPenalty: 1.25,
		}
		ref, err := sched.New(cfg, pol, &coldPredictor{Predictor: pred})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := sched.New(cfg, pol, pred)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(41))
		var live []sched.JobID
		for op := 0; op < 60; op++ {
			switch k := rng.Intn(100); {
			case k < 55: // wave drawn from a small workload pool (heavy duplication)
				nJ := 1 + rng.Intn(12)
				jobs := make([]sched.Job, nJ)
				for i := range jobs {
					w := rng.Intn(6)
					jobs[i] = sched.Job{
						Workload: w,
						Deadline: pred.Estimate(w, rng.Intn(nP), nil) * (0.8 + 2*rng.Float64()),
					}
				}
				want, got := ref.PlaceAll(jobs), warm.PlaceAll(jobs)
				for i := range want {
					if !equalAssignment(got[i], want[i]) {
						t.Fatalf("%s op %d: job %d got %+v want %+v", pol.Name(), op, i, got[i], want[i])
					}
				}
				for _, a := range want {
					if a.Placed() {
						live = append(live, a.ID)
					}
				}
			case k < 75 && len(live) > 0:
				i := rng.Intn(len(live))
				id := live[i]
				live = append(live[:i], live[i+1:]...)
				if err, wantErr := warm.Complete(id), ref.Complete(id); (err == nil) != (wantErr == nil) {
					t.Fatalf("%s op %d: Complete(%d) = %v want %v", pol.Name(), op, id, err, wantErr)
				}
			case k < 85:
				p := rng.Intn(nP)
				want, wantErr := ref.Fail(p)
				if got, err := warm.Fail(p); (err == nil) != (wantErr == nil) || len(got) != len(want) {
					t.Fatalf("%s op %d: Fail(%d) = (%d, %v) want (%d, %v)",
						pol.Name(), op, p, len(got), err, len(want), wantErr)
				}
				for _, o := range want {
					for i, id := range live {
						if id == o.ID {
							live = append(live[:i], live[i+1:]...)
							break
						}
					}
				}
			case k < 93:
				p := rng.Intn(nP)
				if err, wantErr := warm.Degrade(p), ref.Degrade(p); (err == nil) != (wantErr == nil) {
					t.Fatalf("%s op %d: Degrade(%d) = %v want %v", pol.Name(), op, p, err, wantErr)
				}
			default:
				p := rng.Intn(nP)
				if err, wantErr := warm.Recover(p), ref.Recover(p); (err == nil) != (wantErr == nil) {
					t.Fatalf("%s op %d: Recover(%d) = %v want %v", pol.Name(), op, p, err, wantErr)
				}
			}
		}
		if st := warm.ScoreTableStats(); st.Hits == 0 {
			t.Errorf("%s: warm engine served no cells: %+v", pol.Name(), st)
		}
	}
}

// TestScoreCacheIdentityAcrossObserve pins the epoch input on the real
// model: an Observe that publishes a fresh snapshot must stale every cell,
// and the warm scheduler stays bitwise identical to a cold one through the
// publish. A private predictor keeps the shared engine fixture's snapshot
// lineage untouched.
func TestScoreCacheIdentityAcrossObserve(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(59, true))
	if err != nil {
		t.Fatal(err)
	}
	nP := ds.NumPlatforms()
	pol := policy(t, "mean-bound")
	cfg := sched.Config{NumPlatforms: nP, MaxColocation: 3}
	ref, err := sched.New(cfg, pol, &coldPredictor{Predictor: pred})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := sched.New(cfg, pol, pred)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	run := func(stage string) {
		t.Helper()
		jobs := make([]sched.Job, 8)
		for i := range jobs {
			w := rng.Intn(5)
			jobs[i] = sched.Job{
				Workload: w,
				Deadline: pred.Estimate(w, rng.Intn(nP), nil) * (0.8 + 2*rng.Float64()),
			}
		}
		want := ref.PlaceAll(jobs)
		got := warm.PlaceAll(jobs)
		for i := range want {
			if !equalAssignment(got[i], want[i]) {
				t.Fatalf("%s: job %d got %+v want %+v", stage, i, got[i], want[i])
			}
		}
		for _, a := range want {
			if a.Placed() {
				if err := ref.Complete(a.ID); err != nil {
					t.Fatal(err)
				}
				if err := warm.Complete(a.ID); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// hitsIn reports the cells the warm scheduler served during f.
	hitsIn := func(f func()) uint64 {
		h0 := warm.ScoreTableStats().Hits
		f()
		return warm.ScoreTableStats().Hits - h0
	}

	run("cold")
	if hitsIn(func() { run("warm") }) == 0 {
		t.Fatal("warm wave served no cells")
	}

	// Snapshot publish: scores for the same (workload, platform) move.
	if err := pred.ObserveSeconds([]sched.Measurement{
		{Workload: 0, Platform: 0, Seconds: pred.Estimate(0, 0, nil) * 1.5},
		{Workload: 1, Platform: 1, Seconds: pred.Estimate(1, 1, nil) * 0.7},
	}); err != nil {
		t.Fatal(err)
	}
	if hitsIn(func() { run("post-observe") }) != 0 {
		t.Fatal("cells from the previous snapshot were served after Observe")
	}
	run("post-observe-2")
}

// TestScoreCacheReplicaConcurrentSmoke drives the one engine from two
// concurrent goroutines against the real model — its score table under
// the placement mutex while the other caller's completions land, checked
// by the race detector — and checks job conservation: everything placed
// completes exactly once.
func TestScoreCacheReplicaConcurrentSmoke(t *testing.T) {
	pred, ds := enginePredictor(t)
	nP := ds.NumPlatforms()
	rs, err := sched.New(
		sched.Config{NumPlatforms: nP, MaxColocation: 3},
		policy(t, "mean-bound"), pred)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for round := 0; round < 10; round++ {
				jobs := make([]sched.Job, 6)
				for i := range jobs {
					w := rng.Intn(4)
					jobs[i] = sched.Job{
						Workload: w,
						Deadline: pred.Estimate(w, rng.Intn(nP), nil) * 3,
					}
				}
				for _, a := range rs.PlaceAll(jobs) {
					if a.Placed() {
						if err := rs.Complete(a.ID); err != nil {
							t.Errorf("goroutine %d: Complete(%d): %v", g, a.ID, err)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := rs.InFlight(); n != 0 {
		t.Fatalf("%d jobs still in flight after all completions", n)
	}
	if st := rs.ScoreTableStats(); st.Hits == 0 {
		t.Fatalf("score table unexercised: %+v", st)
	}
}
