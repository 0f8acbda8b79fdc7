package serve

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pitot "repro"
)

// fakeBackend is a deterministic Backend recording every batched call.
// With gate non-nil, every EstimateBatch call (and so every scalar
// Estimate) blocks until the gate is closed — the deterministic way to
// hold calls in flight; held counts the calls that reached the gate.
type fakeBackend struct {
	mu         sync.Mutex
	estBatches [][]pitot.Query
	boundCalls map[float64][]int // eps -> batch sizes
	obs        int
	version    atomic.Uint64
	boundErr   error

	gate chan struct{}
	held atomic.Int64
}

func newFakeBackend() *fakeBackend {
	return &fakeBackend{boundCalls: map[float64][]int{}}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func (f *fakeBackend) estimate(q pitot.Query) float64 {
	return float64(q.Workload+1) + 0.001*float64(q.Platform)
}

// Estimate is the scalar call behind /estimate; it records as a batch of
// one and honors the gate exactly like EstimateBatch.
func (f *fakeBackend) Estimate(w, pl int, interferers []int) float64 {
	q := pitot.Query{Workload: w, Platform: pl, Interferers: interferers}
	return f.EstimateBatch([]pitot.Query{q})[0]
}

// Bound is the scalar call behind /bound.
func (f *fakeBackend) Bound(w, pl int, interferers []int, eps float64) (float64, error) {
	q := pitot.Query{Workload: w, Platform: pl, Interferers: interferers}
	out, err := f.BoundBatch([]pitot.Query{q}, eps)
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

func (f *fakeBackend) EstimateBatch(qs []pitot.Query) []float64 {
	f.mu.Lock()
	f.estBatches = append(f.estBatches, append([]pitot.Query(nil), qs...))
	f.mu.Unlock()
	if f.gate != nil {
		f.held.Add(1)
		<-f.gate
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = f.estimate(q)
	}
	return out
}

func (f *fakeBackend) BoundBatch(qs []pitot.Query, eps float64) ([]float64, error) {
	f.mu.Lock()
	f.boundCalls[eps] = append(f.boundCalls[eps], len(qs))
	err := f.boundErr
	f.mu.Unlock()
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = f.estimate(q) * (1 + eps)
	}
	return out, nil
}

func (f *fakeBackend) Observe(obs []pitot.Observation) error {
	f.mu.Lock()
	f.obs += len(obs)
	f.mu.Unlock()
	f.version.Add(1)
	return nil
}

func (f *fakeBackend) Info() pitot.Info {
	f.mu.Lock()
	obs := f.obs
	f.mu.Unlock()
	return pitot.Info{
		Version:      f.version.Load(),
		Observations: obs,
		Workloads:    100,
		Platforms:    10,
		Bounds:       true,
	}
}

// The server owns no goroutine: New and EnablePlacement start none, also
// with the benchmark's configuration, which sets Window and MaxWave.
func TestServerStartsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New(newFakeBackend(), Config{
		MaxBatch: 256, Window: 100 * time.Microsecond, MaxQueue: 4096, BuildVersion: "perfbench",
	})
	defer s.Close()
	if err := s.EnablePlacement(PlacementConfig{
		Policy: "bound", Eps: 0.1, PadFactor: 1.3, Strategy: "least-loaded", MaxColocation: 4,
		Window: 200 * time.Microsecond, MaxWave: 64, Replicas: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("New and EnablePlacement started %d goroutines", after-before)
	}
}

// A BoundBatch error must propagate to the caller, and bad eps is rejected
// before the backend is called.
func TestBoundErrors(t *testing.T) {
	be := newFakeBackend()
	be.boundErr = errors.New("bounds not enabled")
	s := New(be, Config{})
	defer s.Close()
	if _, err := s.Bound(pitot.Query{}, 0.1); err == nil {
		t.Fatal("backend error not propagated")
	}
	if _, err := s.Bound(pitot.Query{}, 0); err == nil {
		t.Fatal("eps=0 accepted")
	}
	if _, err := s.Bound(pitot.Query{}, 1.5); err == nil {
		t.Fatal("eps>1 accepted")
	}
	if _, err := s.Bound(pitot.Query{}, math.NaN()); err == nil {
		t.Fatal("eps=NaN accepted")
	}
}

// Admission control: with MaxQueue calls held in flight, the next call
// fails fast with ErrOverloaded and counts as rejected; the held calls are
// still answered, and once they are, calls are admitted again.
func TestAdmissionOverload(t *testing.T) {
	be := newFakeBackend()
	be.gate = make(chan struct{})
	const maxQueue = 2
	s := New(be, Config{MaxQueue: maxQueue})
	defer s.Close()

	held := make(chan error, maxQueue)
	for i := 0; i < maxQueue; i++ {
		go func(q pitot.Query) {
			got, err := s.Estimate(q)
			if want := be.estimate(q); err == nil && got != want {
				err = fmt.Errorf("held call: %v, want %v", got, want)
			}
			held <- err
		}(pitot.Query{Workload: i})
	}
	waitFor(t, "calls to reach the gate", func() bool { return be.held.Load() == maxQueue })
	if _, err := s.Estimate(pitot.Query{}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Estimate err = %v, want ErrOverloaded", err)
	}
	if _, err := s.Bound(pitot.Query{}, 0.1); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("Bound err = %v, want ErrOverloaded", err)
	}
	if m := s.Metrics(); m.Rejected != 2 || m.Requests != maxQueue {
		t.Fatalf("rejected %d requests %d, want 2 and %d", m.Rejected, m.Requests, maxQueue)
	}
	close(be.gate)
	for i := 0; i < maxQueue; i++ {
		if err := <-held; err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Estimate(pitot.Query{Workload: 1}); err != nil {
		t.Fatalf("call after the held ones finished: %v", err)
	}
}

// Close: later calls fail with ErrClosed, a call already in flight
// finishes with its answer, and Close returns at once and is idempotent.
func TestCloseFailsPending(t *testing.T) {
	be := newFakeBackend()
	be.gate = make(chan struct{})
	s := New(be, Config{})
	q := pitot.Query{Workload: 4}
	inFlight := make(chan error, 1)
	go func() {
		got, err := s.Estimate(q)
		if want := be.estimate(q); err == nil && got != want {
			err = fmt.Errorf("in-flight call: %v, want %v", got, want)
		}
		inFlight <- err
	}()
	waitFor(t, "call to reach the gate", func() bool { return be.held.Load() == 1 })
	s.Close() // returns with the call still held
	if _, err := s.Estimate(pitot.Query{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Estimate after Close: err = %v", err)
	}
	if _, err := s.Bound(pitot.Query{}, 0.1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Bound after Close: err = %v", err)
	}
	s.Close() // idempotent
	close(be.gate)
	if err := <-inFlight; err != nil {
		t.Fatal(err)
	}
}

// Per-snapshot metrics must attribute queries to the snapshot version that
// served them.
func TestPerSnapshotMetrics(t *testing.T) {
	be := newFakeBackend()
	s := New(be, Config{})
	defer s.Close()
	if _, err := s.Estimate(pitot.Query{Workload: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Observe([]pitot.Observation{{Workload: 0, Platform: 0, Seconds: 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Estimate(pitot.Query{Workload: 2}); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Observes != 1 || m.ObserveErrors != 0 {
		t.Fatalf("observe counters %+v", m)
	}
	if len(m.PerSnapshot) != 2 {
		t.Fatalf("per-snapshot rows %+v", m.PerSnapshot)
	}
	if m.PerSnapshot[0].Version != 0 || m.PerSnapshot[1].Version != 1 {
		t.Fatalf("snapshot versions %+v", m.PerSnapshot)
	}
	for _, sm := range m.PerSnapshot {
		if sm.Queries != 1 {
			t.Fatalf("snapshot row %+v", sm)
		}
	}
}

// The per-snapshot table must not grow without bound across many Observe
// publications: only the newest maxSnapshotRetention versions survive.
func TestPerSnapshotMetricsRetention(t *testing.T) {
	be := newFakeBackend()
	s := New(be, Config{})
	defer s.Close()
	const versions = maxSnapshotRetention * 3
	for v := 0; v < versions; v++ {
		if _, err := s.Estimate(pitot.Query{Workload: v % 10}); err != nil {
			t.Fatal(err)
		}
		if err := s.Observe([]pitot.Observation{{Workload: 0, Platform: 0, Seconds: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	m := s.Metrics()
	if len(m.PerSnapshot) > maxSnapshotRetention {
		t.Fatalf("per-snapshot table grew to %d rows (cap %d)", len(m.PerSnapshot), maxSnapshotRetention)
	}
	// The newest recorded version must be retained.
	last := m.PerSnapshot[len(m.PerSnapshot)-1].Version
	if last < uint64(versions-maxSnapshotRetention) {
		t.Fatalf("retained versions end at %d, expected the newest to survive", last)
	}
}
