package pitot

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// boundsPred lazily trains one bounds-enabled predictor shared by the
// read-only concurrency and persistence tests (training dominates test
// time; none of these tests mutate the predictor's published state beyond
// the idempotent bounder cache).
var boundsPred struct {
	once sync.Once
	ds   *Dataset
	pred *Predictor
	err  error
}

func sharedBoundsPredictor(t *testing.T) (*Predictor, *Dataset) {
	t.Helper()
	boundsPred.once.Do(func() {
		boundsPred.ds = smallDataset()
		boundsPred.pred, boundsPred.err = Train(boundsPred.ds, smallOptions(42, true))
	})
	if boundsPred.err != nil {
		t.Fatal(boundsPred.err)
	}
	return boundsPred.pred, boundsPred.ds
}

// TestConcurrentBoundCalibration is the regression test for the PR 1 data
// race: two concurrent Bound calls with a fresh eps both wrote the
// Predictor.bounders map. The snapshot design publishes calibrations with
// a copy-on-write swap, so this test must pass under `go test -race`.
func TestConcurrentBoundCalibration(t *testing.T) {
	pred, _ := sharedBoundsPredictor(t)
	epsGrid := []float64{0.02, 0.04, 0.05, 0.08, 0.1, 0.15, 0.2, 0.25}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*len(epsGrid); i++ {
				eps := epsGrid[(g+i)%len(epsGrid)]
				b, err := pred.Bound(1, 1, []int{2}, eps)
				if err != nil {
					t.Error(err)
					return
				}
				if !(b > 0) {
					t.Errorf("bound = %v", b)
					return
				}
				bs, err := pred.BoundBatch([]Query{{Workload: 1, Platform: 1, Interferers: []int{2}}}, eps)
				if err != nil {
					t.Error(err)
					return
				}
				if bs[0] != b {
					t.Errorf("batch bound %v vs scalar %v at eps %v", bs[0], b, eps)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Every eps calibrated under the race must produce the same bounder as
	// a quiet recalibration (calibration is deterministic per snapshot).
	for _, eps := range epsGrid {
		b1, err := pred.Bound(2, 0, nil, eps)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := pred.Bound(2, 0, nil, eps)
		if err != nil {
			t.Fatal(err)
		}
		if b1 != b2 {
			t.Fatalf("bound not stable at eps %v: %v vs %v", eps, b1, b2)
		}
	}
}

// TestConcurrentEstimateObserve runs reader goroutines against a predictor
// while Observe publishes new snapshots. Readers assert (a) versions are
// monotonically non-decreasing, (b) estimates are always finite and
// positive, and (c) an estimate straddled by two loads of the same version
// is bitwise equal to that snapshot's published value — i.e. never a torn
// model. Run under `go test -race`.
func TestConcurrentEstimateObserve(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(21, false))
	if err != nil {
		t.Fatal(err)
	}
	probe := func() float64 { return pred.Estimate(1, 1, []int{2, 3}) }
	var expected sync.Map // version -> bitwise estimate for the probe query
	expected.Store(pred.Version(), probe())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	const readers = 8
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			q := Query{Workload: 1, Platform: 1, Interferers: []int{2, 3}}
			for {
				select {
				case <-stop:
					return
				default:
				}
				v1 := pred.Version()
				if v1 < last {
					t.Errorf("snapshot version went backwards: %d -> %d", last, v1)
					return
				}
				last = v1
				got := probe()
				if !(got > 0) || math.IsInf(got, 0) || math.IsNaN(got) {
					t.Errorf("estimate = %v", got)
					return
				}
				if v2 := pred.Version(); v1 == v2 {
					if want, ok := expected.Load(v1); ok && got != want.(float64) {
						t.Errorf("torn read at version %d: %v, snapshot published %v", v1, got, want)
						return
					}
				}
				if out := pred.EstimateBatch([]Query{q}); len(out) != 1 || !(out[0] > 0) {
					t.Errorf("EstimateBatch = %v", out)
					return
				}
			}
		}()
	}

	const rounds = 3
	for round := 0; round < rounds; round++ {
		var obs []Observation
		for i := 0; i < 10; i++ {
			obs = append(obs, Observation{
				Workload: (round + i) % ds.NumWorkloads(),
				Platform: i % ds.NumPlatforms(),
				Seconds:  pred.Estimate((round+i)%ds.NumWorkloads(), i%ds.NumPlatforms(), nil) * 1.5,
			})
		}
		if err := pred.Observe(obs); err != nil {
			t.Error(err)
			break
		}
		expected.Store(pred.Version(), probe())
	}
	close(stop)
	wg.Wait()

	if v := pred.Version(); v != rounds {
		t.Fatalf("version %d after %d observes", v, rounds)
	}
	if info := pred.Info(); info.Observations != len(ds.Obs)+rounds*10 {
		t.Fatalf("info reports %d observations, want %d", info.Observations, len(ds.Obs)+rounds*10)
	}
}

// TestConcurrentScoreBothHeadsOneSnapshot: a two-head ScoreSecondsBatch
// runs the mean pass and then the bound pass, and both must read the
// snapshot the call loaded while Observe publishes. Readers score a fixed
// batch with both buffers across three publishes; every (means, bounds)
// pair a reader saw must be one published version's pair, never one
// version's means with another's bounds. Run under `go test -race`.
func TestConcurrentScoreBothHeadsOneSnapshot(t *testing.T) {
	shared, _ := enginePredictor(t)
	pred, ds := ownCopy(t, shared)
	qs := fusedQueries(ds, rand.New(rand.NewSource(47)))
	const eps = 0.1
	// A pair digests one call's two heads, bit for bit.
	type pair struct{ mean, bound uint64 }
	digest := func(xs []float64) uint64 {
		h := uint64(14695981039346656037)
		for _, x := range xs {
			h = (h ^ math.Float64bits(x)) * 1099511628211
		}
		return h
	}
	// published is the current snapshot's pair, from the single-head
	// batch calls on that snapshot alone.
	published := func() pair {
		snap := newPredictor(pred.snap.Load())
		bound, err := snap.BoundBatch(qs, eps)
		if err != nil {
			t.Fatal(err)
		}
		return pair{digest(snap.EstimateBatch(qs)), digest(bound)}
	}
	versions := []pair{published()}

	const readers = 2
	var reads [readers]atomic.Int64
	seen := make([]map[pair]int, readers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var halted sync.Once
	halt := func() { halted.Do(func() { close(stop); wg.Wait() }) }
	defer halt()
	for r := 0; r < readers; r++ {
		seen[r] = map[pair]int{}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			mean, bound := make([]float64, len(qs)), make([]float64, len(qs))
			for {
				select {
				case <-stop:
					return
				default:
				}
				pred.ScoreSecondsBatch(qs, eps, mean, bound)
				seen[r][pair{digest(mean), digest(bound)}]++
				reads[r].Add(1)
			}
		}(r)
	}

	const rounds = 3
	for round := 0; round < rounds; round++ {
		var obs []Observation
		for i := 0; i < 8; i++ {
			w, p := (round+3*i)%ds.NumWorkloads(), (round+i)%ds.NumPlatforms()
			ks := []int{(w + 1) % ds.NumWorkloads(), (w + 5) % ds.NumWorkloads()}
			obs = append(obs, Observation{Workload: w, Platform: p, Interferers: ks,
				Seconds: 1.5 * pred.Estimate(w, p, ks)})
		}
		if err := pred.Observe(obs); err != nil {
			t.Error(err)
			break
		}
		versions = append(versions, published())
		// Every reader finishes a call that started after this publish
		// before the next one, so each version is read.
		for r := range reads {
			for n := reads[r].Load(); reads[r].Load() < n+2; {
				runtime.Gosched()
			}
		}
	}
	halt()

	want := map[pair]int{}
	for v, p := range versions {
		if v > 0 && (p.mean == versions[v-1].mean || p.bound == versions[v-1].bound) {
			t.Fatalf("version %d left a head unchanged: a mixed pair would go unseen", v)
		}
		want[p] = v
	}
	for r := range seen {
		got := map[int]bool{}
		for p, n := range seen[r] {
			v, ok := want[p]
			if !ok {
				t.Fatalf("reader %d: %d calls returned a pair no version published (means of one snapshot, bounds of another)", r, n)
			}
			got[v] = true
		}
		for v := 1; v < len(versions); v++ {
			if !got[v] {
				t.Errorf("reader %d never read version %d", r, v)
			}
		}
	}
}

// Concurrent Observe calls must serialize: every call lands in exactly one
// snapshot increment and all observations are retained.
func TestConcurrentObserveSerializes(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(22, false))
	if err != nil {
		t.Fatal(err)
	}
	base := pred.Info().Observations
	var wg sync.WaitGroup
	const writers = 3
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			obs := []Observation{{Workload: i, Platform: 0, Seconds: 1 + float64(i)}}
			if err := pred.Observe(obs); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if v := pred.Version(); v != writers {
		t.Fatalf("version %d after %d concurrent observes", v, writers)
	}
	if got := pred.Info().Observations; got != base+writers {
		t.Fatalf("%d observations, want %d", got, base+writers)
	}
}
