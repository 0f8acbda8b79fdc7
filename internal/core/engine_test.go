package core

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

// trainSnapshot trains a fresh model and returns its parameter matrices.
func trainSnapshot(t *testing.T, workers int, quantiles []float64) []*tensor.Matrix {
	t.Helper()
	ds := testData(t)
	cfg := smallConfig(7)
	cfg.Steps = 60
	cfg.EvalEvery = 20
	cfg.Workers = workers
	cfg.Quantiles = quantiles
	m, err := NewModel(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	split := dataset.NewSplit(rng, len(ds.Obs), 0.7)
	if _, err := m.Train(split); err != nil {
		t.Fatal(err)
	}
	out := make([]*tensor.Matrix, len(m.params))
	for i, p := range m.params {
		out[i] = p.Data.Clone()
	}
	return out
}

// Parallel training must be bitwise identical to sequential training:
// gradient accumulation order is fixed regardless of worker count.
func TestParallelTrainingDeterministic(t *testing.T) {
	for _, quantiles := range [][]float64{nil, {0.5, 0.9, 0.99}} {
		seq := trainSnapshot(t, 1, quantiles)
		par := trainSnapshot(t, 4, quantiles)
		for i := range seq {
			if !tensor.Equal(seq[i], par[i], 0) {
				t.Fatalf("quantiles %v: param %d diverges between workers=1 and workers=4",
					quantiles, i)
			}
		}
	}
}

// engineModel trains one small model for the engine tests, reusing the
// property-test helper.
func engineModel(t *testing.T, quantiles []float64) *Model {
	t.Helper()
	return trainedModel(t, 9, func(c *Config) {
		c.Steps = 50
		c.EvalEvery = 25
		c.Quantiles = quantiles
	})
}

func batchQueries(m *Model) []Query {
	d := m.Dataset()
	var qs []Query
	for p := 0; p < d.NumPlatforms(); p++ {
		resident := []int{p % d.NumWorkloads(), (p + 7) % d.NumWorkloads()}
		for w := 0; w < d.NumWorkloads(); w++ {
			qs = append(qs, Query{Workload: w, Platform: p, Interferers: resident})
		}
		// Isolation queries exercise the no-interference group path.
		qs = append(qs, Query{Workload: p % d.NumWorkloads(), Platform: p})
	}
	return qs
}

// The grouped batch path must agree with the one-at-a-time path up to
// floating-point reassociation of the interference fold.
func TestPredictLogSecondsBatchMatchesSingle(t *testing.T) {
	for _, quantiles := range [][]float64{nil, {0.5, 0.9}} {
		m := engineModel(t, quantiles)
		qs := batchQueries(m)
		for h := 0; h < m.Cfg.NumHeads(); h++ {
			out := make([]float64, len(qs))
			m.PredictLogSecondsBatch(qs, h, out)
			for i, q := range qs {
				want := m.PredictLogSeconds(q.Workload, q.Platform, q.Interferers, h)
				if math.Abs(out[i]-want) > 1e-9*math.Max(1, math.Abs(want)) {
					t.Fatalf("head %d query %d: batch %.12f vs single %.12f", h, i, out[i], want)
				}
			}
		}
	}
}

// The tape-free validation loss must match the graph-built loss.
func TestEvalLossMatchesGraphLoss(t *testing.T) {
	for _, quantiles := range [][]float64{nil, {0.5, 0.9}} {
		m := engineModel(t, quantiles)
		var idx []int
		for i, o := range m.data.Obs {
			if o.Degree() == 2 {
				idx = append(idx, i)
			}
			if len(idx) == 64 {
				break
			}
		}
		bt := m.makeBatch(idx, false)
		w, p := m.embeddings()
		want := m.batchLoss(w, p, bt).Scalar()
		wE, pE := m.embeddingsInfer()
		got := m.batchLossInfer(wE, pE, bt)
		tensor.PutPooled(wE)
		tensor.PutPooled(pE)
		if math.Abs(got-want) > 1e-10*math.Max(1, math.Abs(want)) {
			t.Fatalf("quantiles %v: infer loss %.12f vs graph loss %.12f", quantiles, got, want)
		}
	}
}

// standardize must be robust to large-mean columns: a column with mean 1e9
// and tiny spread still z-scores to unit variance instead of collapsing
// to zero (or NaN) through E[x²]−E[x]² cancellation.
func TestStandardizeLargeMeanColumn(t *testing.T) {
	m := tensor.New(4, 1)
	base := 1e9
	offsets := []float64{-1.5, -0.5, 0.5, 1.5}
	for i, o := range offsets {
		m.Data[i] = base + o
	}
	out := standardize(m)
	var mean, variance float64
	for _, v := range out.Data {
		mean += v
	}
	mean /= 4
	for _, v := range out.Data {
		variance += (v - mean) * (v - mean)
	}
	variance /= 4
	if math.Abs(mean) > 1e-9 || math.Abs(variance-1) > 1e-9 {
		t.Fatalf("standardized large-mean column: mean %v variance %v", mean, variance)
	}
	if out.HasNaN() {
		t.Fatal("standardize produced NaN")
	}
}

// A warm training step must not allocate matrix payloads: everything comes
// from the pool. The bound covers fixed per-node bookkeeping only.
func TestTrainStepSteadyStateAllocs(t *testing.T) {
	m := engineModel(t, nil)
	var idx []int
	for i, o := range m.data.Obs {
		if o.Degree() == 2 {
			idx = append(idx, i)
		}
		if len(idx) == 128 {
			break
		}
	}
	bt := m.makeBatch(idx, false)
	batches := []batch{bt}
	weights := []float64{1}
	m.Cfg.Workers = 1
	m.runStep(batches, weights)
	for _, p := range m.params {
		p.ZeroGrad()
	}
	allocs := testing.AllocsPerRun(10, func() {
		m.runStep(batches, weights)
		for _, p := range m.params {
			p.ZeroGrad()
		}
	})
	// ~40 graph nodes × a few bookkeeping objects each; a single escaped
	// 128-row matrix payload would add hundreds of KiB and show up as the
	// pool degrading, not as a small constant.
	if allocs > 400 {
		t.Fatalf("warm train step allocates %v objects; pool not effective", allocs)
	}
}

// Batch inference on a warm path allocates only the per-call group
// bookkeeping, independent of matrix sizes.
func TestPredictBatchAllocs(t *testing.T) {
	m := engineModel(t, nil)
	qs := batchQueries(m)
	out := make([]float64, len(qs))
	m.Cfg.Workers = 1
	m.PredictLogSecondsBatch(qs, 0, out)
	allocs := testing.AllocsPerRun(10, func() {
		m.PredictLogSecondsBatch(qs, 0, out)
	})
	groups := float64(m.data.NumPlatforms() * 2)
	if allocs > 8*groups {
		t.Fatalf("batch inference allocates %v objects for %v groups", allocs, groups)
	}
}

// runInOrder must fold every task exactly once, in task order, only after
// the task has run, and must never have more than 2·workers tasks started
// and not yet folded, however long an early task takes.
func TestRunInOrderFoldsInOrderWithinWindow(t *testing.T) {
	const n = 60
	for _, workers := range []int{2, 3, 5} {
		var live, maxLive atomic.Int64
		ran := make([]atomic.Bool, n)
		var folded []int
		run := func(i int) {
			v := live.Add(1)
			for {
				m := maxLive.Load()
				if v <= m || maxLive.CompareAndSwap(m, v) {
					break
				}
			}
			// Every seventh task is slow, so later ones finish first and
			// wait for it.
			if i%7 == 0 {
				time.Sleep(2 * time.Millisecond)
			}
			ran[i].Store(true)
		}
		fold := func(i int) {
			if !ran[i].Load() {
				t.Errorf("workers %d: task %d folded before it ran", workers, i)
			}
			folded = append(folded, i)
			live.Add(-1)
		}
		runInOrder(n, workers, run, fold)
		for i, f := range folded {
			if f != i {
				t.Fatalf("workers %d: fold %d was task %d", workers, i, f)
			}
		}
		if len(folded) != n {
			t.Fatalf("workers %d: %d folds, want %d", workers, len(folded), n)
		}
		if got := maxLive.Load(); got > int64(2*workers) {
			t.Fatalf("workers %d: %d tasks live at once, want at most %d", workers, got, 2*workers)
		}
	}
}
