package sched

import (
	"sync"
	"testing"

	"repro/internal/obs"
)

// obsTestScheduler builds a small chunked-wave scheduler with observability
// attached (or not), over the deterministic fakePred.
func obsTestScheduler(t *testing.T, attach bool) (*Scheduler, *obs.Recorder, *obs.SchedMetrics) {
	t.Helper()
	cfg := Config{NumPlatforms: 4, MaxColocation: 4, WaveChunk: 2}
	var rec *obs.Recorder
	var met *obs.SchedMetrics
	if attach {
		rec = obs.NewRecorder(1 << 14)
		met = obs.NewSchedMetrics("test_place_")
		cfg.Recorder = rec
		cfg.Metrics = met
	}
	pred := loop(fakePred{base: []float64{1, 1.1, 1.2, 1.3}})
	s, err := New(cfg, policy("mean"), pred)
	if err != nil {
		t.Fatal(err)
	}
	return s, rec, met
}

func obsWave(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Workload: i % 3, Deadline: 100}
	}
	return jobs
}

// TestScoreHistogramCountsEveryCall pins the attribution contract: every
// predictor call of a wave — the chunk's prescore and each post-commit
// rescore — is one ScoreBatch observation, so a profile that subtracts the
// histogram's time from the wave's charges no predictor time to the
// engine.
func TestScoreHistogramCountsEveryCall(t *testing.T) {
	met := obs.NewSchedMetrics("test_place_")
	pred := loop(fakePred{base: []float64{1, 1.1, 1.2, 1.3}})
	s := mustNew(t, Config{NumPlatforms: 4, MaxColocation: 4, Metrics: met}, policy("mean"), pred)
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{Workload: i, Deadline: 100}
	}
	s.PlaceAll(jobs)
	calls := pred.batchCalls.Load()
	if calls < 2 {
		t.Fatalf("a wave of %d distinct jobs made %d predictor calls; its commits must force rescores", len(jobs), calls)
	}
	if got := met.ScoreBatch.Count(); got != uint64(calls) {
		t.Fatalf("score histogram counted %d calls, the predictor saw %d", got, calls)
	}
}

// TestFlightRecorderConcurrentChunkedWave races chunked PlaceAll waves
// against Complete and Fail/Recover churn with the recorder and histograms
// attached — under -race this pins the recorder's locking protocol at
// every instrumentation site (place, complete, shed, orphan, readmit).
func TestFlightRecorderConcurrentChunkedWave(t *testing.T) {
	s, rec, met := obsTestScheduler(t, true)
	const waves = 30
	ids := make(chan JobID, 1024)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		defer close(ids)
		for w := 0; w < waves; w++ {
			for _, a := range s.PlaceAll(obsWave(8)) {
				if a.Placed() {
					ids <- a.ID
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		for id := range ids {
			// Duplicate/orphaned completions are expected under Fail churn.
			_ = s.Complete(id)
		}
	}()
	go func() {
		defer wg.Done()
		// Churn only platform 3, so placements keep landing (and
		// completing) on 0–2 while orphan/readmit paths run on 3.
		for i := 0; i < 20; i++ {
			_, _ = s.Fail(3)
			_ = s.Recover(3)
			_ = s.Recover(3) // close probation paths too
		}
	}()
	wg.Wait()

	evs := rec.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	counts := map[obs.EventKind]int{}
	for _, e := range evs {
		counts[e.Kind]++
	}
	if counts[obs.EvPlace] == 0 || counts[obs.EvScore] == 0 {
		t.Fatalf("missing place/score events: %v", counts)
	}
	if rec.Dropped() > 0 {
		t.Fatalf("ring overflowed (%d dropped) despite generous capacity", rec.Dropped())
	}
	// Conservation over the recorded lifecycle: every placement either
	// completed or was orphaned (the completer goroutine drains everything,
	// and orphans are never re-placed in this test).
	if got, want := counts[obs.EvComplete]+counts[obs.EvOrphan], counts[obs.EvPlace]; got != want {
		t.Fatalf("complete+orphan = %d, place = %d", got, want)
	}
	if met.WavePlace.Count() != waves || met.WaveSize.Count() != waves {
		t.Fatalf("wave histograms: place=%d size=%d, want %d", met.WavePlace.Count(), met.WaveSize.Count(), waves)
	}
	if met.ChunkHold.Count() == 0 {
		t.Fatal("no chunk-hold observations")
	}
}

// TestObsDecisionIdentity: attaching the recorder and histograms must not
// perturb a single placement decision — the instrumented scheduler's
// assignments are identical to the bare one's.
func TestObsDecisionIdentity(t *testing.T) {
	plain, _, _ := obsTestScheduler(t, false)
	wired, _, _ := obsTestScheduler(t, true)
	jobs := obsWave(32)
	a := plain.PlaceAll(jobs)
	b := wired.PlaceAll(jobs)
	for i := range a {
		if a[i].Platform != b[i].Platform || a[i].Budget != b[i].Budget || a[i].Reason != b[i].Reason {
			t.Fatalf("decision diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestDisabledObsAllocParity pins the disabled-path cost: a PlaceAll +
// Complete cycle allocates exactly as much with observability attached as
// without — the recorder ring is pre-sized and the histograms are atomic
// counters, so neither path allocates per event.
func TestDisabledObsAllocParity(t *testing.T) {
	measure := func(attach bool) float64 {
		s, _, _ := obsTestScheduler(t, attach)
		jobs := obsWave(8)
		return testing.AllocsPerRun(200, func() {
			for _, a := range s.PlaceAll(jobs) {
				if a.Placed() {
					if err := s.Complete(a.ID); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
	off, on := measure(false), measure(true)
	if off != on {
		t.Fatalf("alloc parity broken: obs off %v allocs/op, obs on %v allocs/op", off, on)
	}
}

func benchPlaceAll(b *testing.B, attach bool) {
	cfg := Config{NumPlatforms: 8, MaxColocation: 4}
	if attach {
		cfg.Recorder = obs.NewRecorder(1 << 12)
		cfg.Metrics = obs.NewSchedMetrics("bench_place_")
	}
	s, err := New(cfg, policy("mean"), loop(fakePred{base: []float64{1, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7}}))
	if err != nil {
		b.Fatal(err)
	}
	jobs := obsWave(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range s.PlaceAll(jobs) {
			if a.Placed() {
				_ = s.Complete(a.ID)
			}
		}
	}
}

// BenchmarkPlaceAllObsOff / BenchmarkPlaceAllObsOn measure the wave path
// with observability disabled and enabled — the CI overhead gate compares
// them (the disabled side must match the pre-observability baseline).
func BenchmarkPlaceAllObsOff(b *testing.B) { benchPlaceAll(b, false) }
func BenchmarkPlaceAllObsOn(b *testing.B)  { benchPlaceAll(b, true) }
