package serve

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sched"
)

// TestReplicatedPlacementConcurrent drives the /place engine the way
// parallel frontends would: goroutines placing and completing against the
// one engine, their completions racing the other callers' chunks.
// Placement accounting must conserve jobs, in-flight must drain, and the
// commit-protocol metrics must surface.
func TestReplicatedPlacementConcurrent(t *testing.T) {
	pred, ds := testPredictor(t)
	s := New(pred, Config{})
	defer s.Close()
	if err := s.EnablePlacement(PlacementConfig{
		Policy: "bound", Eps: 0.1, MaxColocation: 4,
	}); err != nil {
		t.Fatal(err)
	}

	const workers = 4
	var placed, other, completed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				w := (g*10 + i) % ds.NumWorkloads()
				b, err := pred.Bound(w, 0, nil, 0.1)
				if err != nil {
					t.Errorf("bound: %v", err)
					return
				}
				as, err := s.PlaceJobs([]sched.Job{{Workload: w, Deadline: b * 4}})
				if err != nil {
					t.Errorf("place: %v", err)
					return
				}
				for _, a := range as {
					if !a.Placed() {
						other.Add(1)
						continue
					}
					placed.Add(1)
					n, _, _, err := s.CompleteJobs([]sched.JobID{a.ID}, []bool{false})
					if err != nil {
						t.Errorf("complete: %v", err)
						return
					}
					completed.Add(int64(n))
				}
			}
		}(g)
	}
	wg.Wait()

	if got := placed.Load() + other.Load(); got != workers*10 {
		t.Fatalf("accounted %d of %d jobs", got, workers*10)
	}
	if completed.Load() != placed.Load() {
		t.Fatalf("completed %d of %d placements", completed.Load(), placed.Load())
	}
	if got := s.Placer().InFlight(); got != 0 {
		t.Fatalf("in-flight after drain: %d", got)
	}
	m := s.Metrics()
	if m.ReserveAttempts < uint64(placed.Load()) {
		t.Fatalf("reserve attempts %d < placements %d", m.ReserveAttempts, placed.Load())
	}
	if m.Placed != placed.Load() || m.Completed != completed.Load() {
		t.Fatalf("metrics placed=%d completed=%d, counted %d/%d",
			m.Placed, m.Completed, placed.Load(), completed.Load())
	}
}

// TestEnablePlacementRejectsReplicas: there is one placement engine, so
// PlacementConfig.Replicas accepts only 0 and 1.
func TestEnablePlacementRejectsReplicas(t *testing.T) {
	pred, _ := testPredictor(t)
	for _, replicas := range []int{2, -1} {
		s := New(pred, Config{})
		err := s.EnablePlacement(PlacementConfig{Policy: "bound", Replicas: replicas})
		s.Close()
		if err == nil || !strings.Contains(err.Error(), "one placement engine") {
			t.Fatalf("Replicas %d: EnablePlacement error %v, want a one-engine error", replicas, err)
		}
		if s.Placer() != nil {
			t.Fatalf("Replicas %d: placement enabled despite the error", replicas)
		}
	}
}
