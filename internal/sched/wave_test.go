package sched

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A mixed-head policy's Budget must be the feasibility facet (the bound),
// never the ranking mean, and BestFit must rank on the mean.
func TestMixedPolicyBudgetIsBound(t *testing.T) {
	pred := loop(variedPred{base: []float64{1, 1}})
	s := mustNew(t, Config{NumPlatforms: 2, Strategy: BestFit{}}, policy("mean-bound"), pred)
	job := Job{Workload: 0, Deadline: 50}
	a := s.Place(job)
	if !a.Placed() {
		t.Fatal("unplaced")
	}
	vp := variedPred{base: []float64{1, 1}}
	wantBound := vp.BoundSeconds(job.Workload, a.Platform, nil, 0.1)
	if a.Budget != wantBound {
		t.Fatalf("budget %v, want the bound %v", a.Budget, wantBound)
	}
}

// Chunked PlaceAll must be decision-identical to the unchunked wave when no
// concurrent events interleave, for every chunk size, including across
// completions between waves.
func TestChunkedPlaceAllMatchesUnchunked(t *testing.T) {
	for _, chunk := range []int{1, 2, 5, 64} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(700 + seed))
			nP := 4 + rng.Intn(5)
			base := make([]float64, nP)
			for i := range base {
				base[i] = 0.5 + 2*rng.Float64()
			}
			cfg := Config{NumPlatforms: nP, MaxColocation: 2, MaxInFlight: 2 * nP, WaveChunk: chunk}
			uncfg := cfg
			uncfg.WaveChunk = -1
			sc := mustNew(t, cfg, policy("mean-bound"), loop(variedPred{base}))
			su := mustNew(t, uncfg, policy("mean-bound"), loop(variedPred{base}))
			for wave := 0; wave < 3; wave++ {
				jobs := make([]Job, 5+rng.Intn(20))
				for i := range jobs {
					jobs[i] = Job{Workload: rng.Intn(15), Deadline: 0.3 + 6*rng.Float64()}
				}
				ac, au := sc.PlaceAll(jobs), su.PlaceAll(jobs)
				var placed []JobID
				for i := range jobs {
					if !sameAssignment(ac[i], au[i]) {
						t.Fatalf("chunk %d seed %d wave %d job %d: chunked %+v != unchunked %+v",
							chunk, seed, wave, i, ac[i], au[i])
					}
					if ac[i].Placed() {
						placed = append(placed, ac[i].ID)
					}
				}
				// Free roughly half the slots before the next wave.
				for i, id := range placed {
					if i%2 == 0 {
						continue
					}
					if err := sc.Complete(id); err != nil {
						t.Fatal(err)
					}
					if err := su.Complete(id); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// A completion landing between chunks must be visible to the rest of the
// wave: with the single platform full at wave start, the unchunked wave
// places nothing, while the chunked wave places the job scored after the
// mid-wave completion freed the slot. Deterministic via the chunk-boundary
// hook.
func TestChunkedWaveMidWaveComplete(t *testing.T) {
	pred := loop(variedPred{base: []float64{1}})
	wave := []Job{{Workload: 1, Deadline: 100}, {Workload: 2, Deadline: 100}}

	// Unchunked control: the resident occupies the only slot for the whole
	// wave; both jobs are unplaced.
	su := mustNew(t, Config{NumPlatforms: 1, MaxColocation: 1, WaveChunk: -1}, policy("mean"), pred)
	r := su.Place(Job{Workload: 0, Deadline: 100})
	if !r.Placed() {
		t.Fatal("resident unplaced")
	}
	// An unchunked wave copies the cluster state once, at its start: a
	// completion landing mid-wave frees the slot in the store but not in
	// the wave's views, so the rest of the wave still sees a full platform.
	// (Complete here runs after the wave to show the wave itself saw it.)
	au := su.PlaceAll(wave)
	if au[0].Placed() || au[1].Placed() {
		t.Fatalf("unchunked wave placed through a full platform: %+v", au)
	}

	// Chunked: the hook completes the resident between chunk 1 and chunk 2;
	// job B's chunk pre-scores against the freed platform.
	sc := mustNew(t, Config{NumPlatforms: 1, MaxColocation: 1, WaveChunk: 1}, policy("mean"), pred)
	r = sc.Place(Job{Workload: 0, Deadline: 100})
	if !r.Placed() {
		t.Fatal("resident unplaced")
	}
	gaps := 0
	sc.chunkGap = func() {
		gaps++
		if err := sc.Complete(r.ID); err != nil {
			t.Errorf("mid-wave complete: %v", err)
		}
	}
	ac := sc.PlaceAll(wave)
	if gaps != 1 {
		t.Fatalf("expected one chunk gap, got %d", gaps)
	}
	if ac[0].Placed() {
		t.Fatalf("job A placed while the platform was full: %+v", ac[0])
	}
	if !ac[1].Placed() {
		t.Fatalf("job B not placed after the mid-wave completion: %+v", ac[1])
	}
	if got := sc.Residents(0); len(got) != 1 || got[0] != 2 {
		t.Fatalf("residents after mid-wave interleave: %v", got)
	}
}

// parkPred parks the first batched scoring call after it is armed until
// release is closed, announcing on parked that a chunk is mid-scoring.
type parkPred struct {
	*batchPred
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
}

func (p *parkPred) ScoreSecondsBatch(qs []Query, eps float64, meanOut, boundOut []float64) {
	if p.armed.CompareAndSwap(true, false) {
		close(p.parked)
		<-p.release
	}
	p.batchPred.ScoreSecondsBatch(qs, eps, meanOut, boundOut)
}

// Lifecycle events never wait for a chunk: with the chunk parked inside
// its batched scoring call, Complete and Fail return at once, and the
// chunk's commits then conflict on the platforms they touched, retry, and
// place the wave, every job accounted for.
func TestMidWaveLifecycleDoesNotWaitForChunk(t *testing.T) {
	pred := &parkPred{
		batchPred: loop(variedPred{base: []float64{1, 2, 3}}),
		parked:    make(chan struct{}),
		release:   make(chan struct{}),
	}
	s := mustNew(t, Config{NumPlatforms: 3, MaxColocation: 4}, policy("mean"), pred)
	var residents []Assignment
	for w := 0; w < 2; w++ {
		a := s.Place(Job{Workload: w, Deadline: 1e9})
		if !a.Placed() {
			t.Fatalf("setup placement %d: %+v", w, a)
		}
		residents = append(residents, a)
	}
	pred.armed.Store(true)
	wave := make(chan []Assignment, 1)
	go func() { wave <- s.PlaceAll([]Job{{Workload: 5, Deadline: 1e9}, {Workload: 6, Deadline: 1e9}}) }()
	<-pred.parked

	events := make(chan error, 1)
	go func() {
		if err := s.Complete(residents[0].ID); err != nil {
			events <- err
			return
		}
		orphans, err := s.Fail(residents[1].Platform)
		if err == nil && len(orphans) != 1 {
			err = fmt.Errorf("Fail orphaned %d jobs, want 1", len(orphans))
		}
		events <- err
	}()
	select {
	case err := <-events:
		if err != nil {
			close(pred.release)
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		close(pred.release)
		t.Fatal("Complete and Fail waited for the chunk's scoring")
	}
	close(pred.release)
	as := <-wave
	for i, a := range as {
		if !a.Placed() {
			t.Fatalf("wave job %d unplaced: %+v", i, a)
		}
		if a.Platform == residents[1].Platform {
			t.Fatalf("wave job %d placed on the failed platform: %+v", i, a)
		}
	}
	// Placed: 2 residents + 2 wave jobs; retired: 1 completed, 1 orphaned.
	if got := s.InFlight(); got != 2 {
		t.Fatalf("in flight %d, want 2", got)
	}
	if cs := s.ConflictStats(); cs.Conflicts == 0 || cs.Shed != 0 {
		t.Fatalf("want a conflict retry and no shed, got %+v", cs)
	}
}

// Concurrent Complete/Place calls racing a long chunked wave must keep the
// bookkeeping consistent and drain cleanly. Run under -race.
func TestConcurrentCompleteDuringChunkedWave(t *testing.T) {
	pred := loop(variedPred{base: []float64{1, 1.2, 0.8, 1.5}})
	s := mustNew(t, Config{NumPlatforms: 4, MaxColocation: 8, WaveChunk: 4}, policy("mean-bound"), pred)

	wave := make([]Job, 64)
	for i := range wave {
		wave[i] = Job{Workload: i % 10, Deadline: 1000}
	}
	stop := make(chan struct{})
	var pump sync.WaitGroup
	pump.Add(1)
	go func() {
		defer pump.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			as := s.PlaceAll(wave)
			for _, a := range as {
				if a.Placed() {
					if err := s.Complete(a.ID); err != nil {
						t.Errorf("pump complete: %v", err)
						return
					}
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var mine []JobID
			for i := 0; i < 200; i++ {
				if len(mine) > 0 && rng.Float64() < 0.5 {
					id := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := s.Complete(id); err != nil {
						t.Errorf("worker %d complete: %v", g, err)
						return
					}
					continue
				}
				a := s.Place(Job{Workload: rng.Intn(10), Deadline: 1000})
				if a.Placed() {
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
	close(stop)
	pump.Wait()
	if got := s.InFlight(); got != 0 {
		t.Fatalf("in-flight after drain: %d", got)
	}
	total := 0
	for p := 0; p < 4; p++ {
		total += len(s.Residents(p))
	}
	if total != 0 {
		t.Fatalf("residents left after drain: %d", total)
	}
}

// Failed placements with RetryLimit set must re-enter after completions
// instead of dropping, conserve job accounting, and report the retry
// success rate.
func TestStreamRetryQueue(t *testing.T) {
	run := func(retryLimit int) StreamResult {
		pred := loop(variedPred{base: []float64{1}})
		// One slot total: under rate 5 with ~1s runtimes most arrivals find
		// the platform busy.
		s := mustNew(t, Config{NumPlatforms: 1, MaxColocation: 1}, policy("mean"), pred)
		oracle := oracleFunc(func(w, p int, ks []int) float64 { return 0.9 })
		source := func(rng *rand.Rand, i int) Job {
			return Job{Workload: i % 5, Deadline: 100}
		}
		res, err := Stream(StreamConfig{Jobs: 40, ArrivalRate: 5, RetryLimit: retryLimit},
			s, oracle, source, nil, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Arrived != 40 {
			t.Fatalf("arrived %d", res.Arrived)
		}
		if res.Placed+res.Unplaced+res.Rejected != res.Arrived {
			t.Fatalf("job conservation broken: %+v", res)
		}
		if res.Completed != res.Placed {
			t.Fatalf("placed %d completed %d", res.Placed, res.Completed)
		}
		if s.InFlight() != 0 {
			t.Fatalf("in-flight after stream: %d", s.InFlight())
		}
		return res
	}
	without := run(0)
	if without.RetryQueued != 0 || without.Retries != 0 || without.RetryPlaced != 0 {
		t.Fatalf("retry counters without retry: %+v", without)
	}
	if without.Unplaced == 0 {
		t.Fatal("degenerate setup: nothing unplaced without retries")
	}
	with := run(5)
	if with.RetryQueued == 0 || with.Retries == 0 {
		t.Fatalf("retry queue never engaged: %+v", with)
	}
	if with.RetryPlaced == 0 {
		t.Fatalf("no retried job ever placed: %+v", with)
	}
	if with.Placed <= without.Placed {
		t.Fatalf("retries placed %d jobs, no better than %d without", with.Placed, without.Placed)
	}
	if want := float64(with.RetryPlaced) / float64(with.RetryQueued); with.RetryRate != want {
		t.Fatalf("retry rate %v, want %v", with.RetryRate, want)
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

// The time trigger must flush buffered measurements on its own, without
// the count trigger, and cooperate with it when both are armed.
func TestStreamFeedbackInterval(t *testing.T) {
	newSched := func() *Scheduler {
		pred := loop(variedPred{base: []float64{1, 1.2, 0.8}})
		return mustNew(t, Config{NumPlatforms: 3, MaxColocation: 2}, policy("mean"), pred)
	}
	oracle := oracleFunc(func(w, p int, ks []int) float64 { return 0.4 + 0.1*float64(w%3) })
	source := func(rng *rand.Rand, i int) Job { return Job{Workload: i % 9, Deadline: 100} }

	// Time trigger only: FeedbackEvery 0 used to disable feedback outright.
	obs := &feedbackObserver{}
	res, err := Stream(StreamConfig{Jobs: 60, ArrivalRate: 4, FeedbackInterval: 2},
		newSched(), oracle, source, obs, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Observed == 0 {
		t.Fatalf("time-based feedback never flushed: %+v", res)
	}
	if len(obs.ms) != res.Observed {
		t.Fatalf("observer saw %d, result says %d", len(obs.ms), res.Observed)
	}
	if res.Observed == res.Completed {
		// ~15 sim-seconds of completions flushed every 2: several flushes,
		// but the tail after the last flush stays buffered.
		t.Logf("note: all completions happened to flush (%d)", res.Observed)
	}

	// Both triggers: at least as many measurements flushed as with the
	// count trigger alone.
	obsBoth := &feedbackObserver{}
	resBoth, err := Stream(StreamConfig{Jobs: 60, ArrivalRate: 4, FeedbackEvery: 25, FeedbackInterval: 2},
		newSched(), oracle, source, obsBoth, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	obsCount := &feedbackObserver{}
	resCount, err := Stream(StreamConfig{Jobs: 60, ArrivalRate: 4, FeedbackEvery: 25},
		newSched(), oracle, source, obsCount, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	if resBoth.Observed < resCount.Observed {
		t.Fatalf("combined triggers flushed %d < count-only %d", resBoth.Observed, resCount.Observed)
	}
}
