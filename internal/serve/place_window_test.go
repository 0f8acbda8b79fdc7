package serve

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pitot "repro"
	"repro/internal/sched"
)

// Concurrent single-job PlaceJobs calls arriving while a wave is in flight
// must fuse into one scheduler wave. Deterministic via the backend gate:
// the first (inline) placement blocks mid-score, the next five queue
// behind it and flush together when the wave cap is reached.
func TestPlaceWindowFusesConcurrentCalls(t *testing.T) {
	be := newFakeBackend()
	s := New(be, Config{})
	defer s.Close()
	if err := s.EnablePlacement(PlacementConfig{
		Policy: "mean", Window: 2 * time.Second, MaxWave: 5,
	}); err != nil {
		t.Fatal(err)
	}
	be.gate = make(chan struct{})

	type result struct {
		as  []sched.Assignment
		err error
	}
	results := make(chan result, 6)
	placeOne := func(w int) {
		as, err := s.PlaceJobs([]sched.Job{{Workload: w, Deadline: 1e9}})
		results <- result{as, err}
	}
	// First call takes the inline path and blocks on the gate inside the
	// scheduler's pre-score, holding a wave in flight.
	go placeOne(0)
	waitFor(t, "gated inline placement to start", be.flushInFlight)

	// Five more: the inline check sees the in-flight wave, so they queue;
	// the collector flushes exactly when the MaxWave-th arrives (the
	// window timer is far away).
	for w := 1; w <= 5; w++ {
		go placeOne(w)
	}
	waitFor(t, "fused wave to start", func() bool { return s.placeInFlight.Load() >= 2 })

	close(be.gate)
	seen := map[sched.JobID]bool{}
	for i := 0; i < 6; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.as) != 1 || !r.as[0].Placed() {
			t.Fatalf("assignment %d: %+v", i, r.as)
		}
		if seen[r.as[0].ID] {
			t.Fatalf("duplicate job ID %d", r.as[0].ID)
		}
		seen[r.as[0].ID] = true
	}
	m := s.Metrics()
	if m.PlaceInline != 1 {
		t.Fatalf("inline placements %d, want 1", m.PlaceInline)
	}
	if m.PlaceWaves != 1 || m.PlaceWaveJobs != 5 {
		t.Fatalf("fused waves %d / jobs %d, want 1 / 5", m.PlaceWaves, m.PlaceWaveJobs)
	}
	if m.Placed != 6 {
		t.Fatalf("placed %d, want 6", m.Placed)
	}
}

// A single-job call arriving with the accumulation queue full must shed to
// the direct path — placed, not rejected — and be counted in PlaceShed so
// overload traffic doesn't silently vanish from the fusion metrics.
// Deterministic via the backend gate: the inline first placement blocks
// mid-score holding the scheduler, the collector blocks flushing behind
// it (MaxWave 1 → queue capacity 4), four more calls fill the queue, and
// the next one finds it full.
func TestPlaceWindowQueueFullSheds(t *testing.T) {
	be := newFakeBackend()
	s := New(be, Config{})
	defer s.Close()
	if err := s.EnablePlacement(PlacementConfig{
		Policy: "mean", Window: time.Hour, MaxWave: 1,
	}); err != nil {
		t.Fatal(err)
	}
	be.gate = make(chan struct{})

	errUnplaced := errors.New("assignment not placed")
	results := make(chan error, 7)
	placeOne := func(w int) {
		as, err := s.PlaceJobs([]sched.Job{{Workload: w, Deadline: 1e9}})
		if err == nil && (len(as) != 1 || !as[0].Placed()) {
			err = errUnplaced
		}
		results <- err
	}
	// Inline placement blocks on the gate, holding the scheduler.
	go placeOne(0)
	waitFor(t, "gated inline placement to start", be.flushInFlight)
	// The collector drains exactly one job and blocks flushing it (the
	// scheduler is held); with MaxWave 1 it cannot batch further.
	go placeOne(1)
	waitFor(t, "collector flush to start", func() bool { return s.placeInFlight.Load() >= 2 })
	// Fill the queue to capacity while the collector is stuck.
	for w := 2; w <= 5; w++ {
		go placeOne(w)
	}
	waitFor(t, "queue to fill", func() bool { return len(s.placeQueue) == cap(s.placeQueue) })
	// Queue full: this call must shed to the direct path. Poll the raw
	// counter.
	go placeOne(6)
	waitFor(t, "shed placement", func() bool { return s.metrics.placeShed.Load() == 1 })

	close(be.gate)
	for i := 0; i < 7; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	if m.PlaceShed != 1 {
		t.Fatalf("shed %d, want 1", m.PlaceShed)
	}
	if m.Placed != 7 {
		t.Fatalf("placed %d, want 7", m.Placed)
	}
	if m.PlaceInline != 1 {
		t.Fatalf("inline %d, want 1", m.PlaceInline)
	}
	// Shed placements bypass the wave counters by design.
	if m.PlaceWaves != 5 || m.PlaceWaveJobs != 5 {
		t.Fatalf("waves %d / jobs %d, want 5 / 5", m.PlaceWaves, m.PlaceWaveJobs)
	}
	var sb strings.Builder
	if err := s.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "pitot_place_shed_total 1") {
		t.Fatal("pitot_place_shed_total missing from the Prometheus exposition")
	}
}

// With nothing in flight, a single-job call must place inline — the window
// never taxes an idle pipeline.
func TestPlaceWindowInlineWhenIdle(t *testing.T) {
	be := newFakeBackend()
	s := New(be, Config{})
	defer s.Close()
	if err := s.EnablePlacement(PlacementConfig{
		Policy: "mean", Window: time.Minute, MaxWave: 8,
	}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	as, err := s.PlaceJobs([]sched.Job{{Workload: 1, Deadline: 1e9}})
	if err != nil || len(as) != 1 || !as[0].Placed() {
		t.Fatalf("inline placement failed: %v %+v", err, as)
	}
	if since := time.Since(start); since > 5*time.Second {
		t.Fatalf("inline placement waited %v", since)
	}
	m := s.Metrics()
	if m.PlaceInline != 1 || m.PlaceWaves != 0 {
		t.Fatalf("inline %d waves %d, want 1 / 0", m.PlaceInline, m.PlaceWaves)
	}
	// Multi-job calls are already waves: direct path, no fusion counters.
	if _, err := s.PlaceJobs([]sched.Job{
		{Workload: 2, Deadline: 1e9}, {Workload: 3, Deadline: 1e9},
	}); err != nil {
		t.Fatal(err)
	}
	if m := s.Metrics(); m.PlaceWaves != 0 || m.PlaceWaveJobs != 0 {
		t.Fatalf("multi-job wave counted as fused: %+v", m)
	}
}

// Close must flush accumulated single-job placements (they get answers,
// not hangs) and stop the collector.
func TestPlaceWindowCloseFlushesPending(t *testing.T) {
	be := newFakeBackend()
	s := New(be, Config{})
	if err := s.EnablePlacement(PlacementConfig{
		Policy: "mean", Window: time.Hour, MaxWave: 64,
	}); err != nil {
		t.Fatal(err)
	}
	be.gate = make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.PlaceJobs([]sched.Job{{Workload: 0, Deadline: 1e9}}) // gated inline
	}()
	waitFor(t, "gated inline placement", be.flushInFlight)
	answered := make(chan error, 2)
	for w := 1; w <= 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			_, err := s.PlaceJobs([]sched.Job{{Workload: w, Deadline: 1e9}})
			answered <- err
		}(w)
	}
	// Give the two calls a moment to enqueue behind the gated wave (any
	// interleaving is acceptable: a call racing Close gets ErrClosed, an
	// enqueued one is answered by the final flush).
	time.Sleep(20 * time.Millisecond)
	close(be.gate)
	s.Close()
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-answered; err != nil && err != ErrClosed {
			t.Fatalf("queued placement got %v, want an answer or ErrClosed", err)
		}
	}
}

// The per-platform calibration staleness gauge: a platform's lag drops to
// zero when an Observe carries its measurements and grows by one with
// every snapshot published without them.
func TestCalibrationLagGauge(t *testing.T) {
	be := newFakeBackend() // 10 platforms, version bumps per Observe
	s := New(be, Config{})
	defer s.Close()
	if err := s.EnablePlacement(PlacementConfig{Policy: "mean"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe([]pitot.Observation{{Workload: 1, Platform: 2, Seconds: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe([]pitot.Observation{
		{Workload: 1, Platform: 5, Seconds: 1},
		{Workload: 2, Platform: 5, Interferers: []int{1}, Seconds: 2},
	}); err != nil {
		t.Fatal(err)
	}
	lag := s.PlatformCalibrationLag()
	if len(lag) != 10 {
		t.Fatalf("lag for %d platforms, want 10", len(lag))
	}
	if lag[2] != 1 || lag[5] != 0 {
		t.Fatalf("lag[2]=%d lag[5]=%d, want 1 and 0", lag[2], lag[5])
	}
	// Never-observed platforms lag the whole version history (2 Observes).
	if lag[0] != 2 || lag[9] != 2 {
		t.Fatalf("unobserved platform lag %d/%d, want 2", lag[0], lag[9])
	}
	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE pitot_platform_calibration_lag gauge",
		"pitot_platform_calibration_lag{platform=\"5\"} 0",
		"pitot_platform_calibration_lag{platform=\"2\"} 1",
		"pitot_platform_calibration_lag{platform=\"0\"} 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// fusedCounter is the real predictor counting its fused two-head passes.
type fusedCounter struct {
	*pitot.Predictor
	fused atomic.Int64
}

func (c *fusedCounter) ScoreSecondsBatch(qs []pitot.Query, eps float64, meanOut, boundOut []float64) {
	c.fused.Add(1)
	c.Predictor.ScoreSecondsBatch(qs, eps, meanOut, boundOut)
}

// The real predictor's fused two-head surface reaches the placement engine
// through the backend adapter: mixed policies score through one pass.
func TestPlacementFusedThroughBackend(t *testing.T) {
	pred, _ := testPredictor(t)
	fc := &fusedCounter{Predictor: pred}
	s := New(fc, Config{})
	defer s.Close()
	if err := s.EnablePlacement(PlacementConfig{Policy: "mean-bound", Eps: 0.1}); err != nil {
		t.Fatal(err)
	}
	as, err := s.PlaceJobs([]sched.Job{{Workload: 0, Deadline: 1e9}})
	if err != nil || !as[0].Placed() {
		t.Fatalf("fused placement failed: %v %+v", err, as)
	}
	if fc.fused.Load() == 0 {
		t.Fatal("mean-bound placement over the real predictor is not fused")
	}
	// Budget must be the conservative bound head, not the mean.
	mean := pred.Estimate(0, as[0].Platform, as[0].Interferers)
	if as[0].Budget <= mean {
		t.Fatalf("budget %v not above mean %v — fused policy served the wrong head", as[0].Budget, mean)
	}
}
