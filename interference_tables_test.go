package pitot

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// ownCopy returns a private copy of pred (Export + LoadPredictor, no
// retraining), for tests that Observe it.
func ownCopy(t *testing.T, pred *Predictor) (*Predictor, *Dataset) {
	t.Helper()
	var dataB, meanB, quantB bytes.Buffer
	if err := pred.Export(&dataB, &meanB, &quantB); err != nil {
		t.Fatal(err)
	}
	ds, err := ReadDataset(&dataB)
	if err != nil {
		t.Fatal(err)
	}
	own, err := LoadPredictor(ds, &meanB, &quantB)
	if err != nil {
		t.Fatal(err)
	}
	return own, ds
}

// facadeOutputs collects every read of the facade over qs: scalar
// Estimate and Bound, EstimateBatch, BoundBatch and the two-head
// ScoreSecondsBatch.
func facadeOutputs(t *testing.T, p *Predictor, qs []Query) []float64 {
	t.Helper()
	var out []float64
	for _, q := range qs {
		b, err := p.Bound(q.Workload, q.Platform, q.Interferers, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p.Estimate(q.Workload, q.Platform, q.Interferers), b)
	}
	bb, err := p.BoundBatch(qs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	sm, sb := scoreBoth(p, qs, 0.1)
	out = append(out, p.EstimateBatch(qs)...)
	out = append(out, bb...)
	out = append(out, sm...)
	return append(out, sb...)
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: output %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestInterferenceTablesAfterObserve: Observe publishes models whose
// interference tables are their own and current. The snapshot it replaced
// answers exactly as before, and the new one answers exactly as a
// predictor loaded from its exported state, whose tables are built from
// the fine-tuned parameters.
func TestInterferenceTablesAfterObserve(t *testing.T) {
	shared, _ := enginePredictor(t)
	pred, ds := ownCopy(t, shared)
	qs := fusedQueries(ds, rand.New(rand.NewSource(23)))
	old := newPredictor(pred.snap.Load())
	before := facadeOutputs(t, old, qs)

	var obs []Observation
	for w := 0; w < 8; w++ {
		ks := []int{(w + 1) % ds.NumWorkloads(), (w + 5) % ds.NumWorkloads()}
		obs = append(obs, Observation{Workload: w, Platform: w % ds.NumPlatforms(), Interferers: ks,
			Seconds: 1.5 * pred.Estimate(w, w%ds.NumPlatforms(), ks)})
	}
	if err := pred.Observe(obs); err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "replaced snapshot after Observe", facadeOutputs(t, old, qs), before)

	after := facadeOutputs(t, pred, qs)
	loaded, _ := ownCopy(t, pred)
	requireSameBits(t, "observed snapshot vs its exported state", after, facadeOutputs(t, loaded, qs))
	if math.Float64bits(after[0]) == math.Float64bits(before[0]) {
		t.Fatal("Observe left the first estimate unchanged")
	}
}

// TestInterferenceTablesOutOfRangePanics: a workload, platform or
// interferer outside the dataset panics in every read, as the embedding
// rows do, instead of reading a neighbouring table record.
func TestInterferenceTablesOutOfRangePanics(t *testing.T) {
	pred, ds := enginePredictor(t)
	nw, np := ds.NumWorkloads(), ds.NumPlatforms()
	for _, q := range []Query{
		{Workload: nw, Platform: 0},
		{Workload: -1, Platform: 0},
		{Workload: 0, Platform: np},
		{Workload: 0, Platform: -1},
		{Workload: 0, Platform: np, Interferers: []int{1}},
		{Workload: 0, Platform: 0, Interferers: []int{1, nw}},
		{Workload: 0, Platform: 0, Interferers: []int{-1}},
	} {
		for name, call := range map[string]func(){
			"Estimate":      func() { pred.Estimate(q.Workload, q.Platform, q.Interferers) },
			"Bound":         func() { _, _ = pred.Bound(q.Workload, q.Platform, q.Interferers, 0.1) },
			"EstimateBatch": func() { pred.EstimateBatch([]Query{q}) },
			"BoundBatch":    func() { _, _ = pred.BoundBatch([]Query{q}, 0.1) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%+v) did not panic", name, q)
					}
				}()
				call()
			}()
		}
	}
}

// TestScoreSecondsBatchAllocationFree: a warm scoring call into caller
// buffers allocates nothing, for the mean head, the bound head and both.
func TestScoreSecondsBatchAllocationFree(t *testing.T) {
	pred, ds := enginePredictor(t)
	qs := fusedQueries(ds, rand.New(rand.NewSource(29)))
	mean, bound := make([]float64, len(qs)), make([]float64, len(qs))
	for _, tc := range []struct {
		name        string
		mean, bound []float64
	}{{"mean", mean, nil}, {"bound", nil, bound}, {"both", mean, bound}} {
		call := func() { pred.ScoreSecondsBatch(qs, 0.1, tc.mean, tc.bound) }
		call()
		if n := testing.AllocsPerRun(20, call); n != 0 {
			t.Errorf("%s: warm ScoreSecondsBatch allocates %v objects, want 0", tc.name, n)
		}
	}
}
