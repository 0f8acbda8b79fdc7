package pitot

// Benchmark harness: one benchmark per paper table/figure (regenerating the
// data behind it at Quick scale via the experiment registry), plus
// microbenchmarks for the design decisions called out in DESIGN.md §5.
//
// The per-figure benchmarks measure end-to-end experiment regeneration
// time; their *output shape* (who wins, by what factor) is what
// `go run ./cmd/experiments -all -scale standard` prints.

import (
	"math/rand"
	"testing"

	"repro/internal/autodiff"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/exp"
	"repro/internal/sched"
	"repro/internal/tensor"
	"repro/internal/wasmcluster"
)

// benchExperiment runs one registry experiment at Quick scale.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(exp.Quick, int64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1_InterferenceHistogram(b *testing.B)  { benchExperiment(b, "fig1") }
func BenchmarkTable2_DeviceCatalog(b *testing.B)        { benchExperiment(b, "table2") }
func BenchmarkTable3_RuntimeCatalog(b *testing.B)       { benchExperiment(b, "table3") }
func BenchmarkFig4a_LossAblation(b *testing.B)          { benchExperiment(b, "fig4a") }
func BenchmarkFig4b_SideInfo(b *testing.B)              { benchExperiment(b, "fig4b") }
func BenchmarkFig4c_Interference(b *testing.B)          { benchExperiment(b, "fig4c") }
func BenchmarkFig4d_Activation(b *testing.B)            { benchExperiment(b, "fig4d") }
func BenchmarkFig5_UQ(b *testing.B)                     { benchExperiment(b, "fig5") }
func BenchmarkFig6a_Baselines(b *testing.B)             { benchExperiment(b, "fig6a") }
func BenchmarkFig6b_BaselineBounds(b *testing.B)        { benchExperiment(b, "fig6b") }
func BenchmarkFig7_WorkloadEmbedding(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkFig8_QuantileChoice(b *testing.B)         { benchExperiment(b, "fig8") }
func BenchmarkFig10_Hyperparams(b *testing.B)           { benchExperiment(b, "fig10") }
func BenchmarkFig11_BoundGrid(b *testing.B)             { benchExperiment(b, "fig11") }
func BenchmarkFig12bc_PlatformEmbedding(b *testing.B)   { benchExperiment(b, "fig12bc") }
func BenchmarkFig12d_InterferenceNorm(b *testing.B)     { benchExperiment(b, "fig12d") }
func BenchmarkHeadline_AccuracyComparison(b *testing.B) { benchExperiment(b, "headline") }
func BenchmarkExtSched_PlacementPolicies(b *testing.B)  { benchExperiment(b, "ext-sched") }

// --- microbenchmarks -------------------------------------------------------

// benchSetup builds a small dataset + model for the micro benches.
func benchSetup(b *testing.B, quantiles []float64) (*core.Model, dataset.Split) {
	b.Helper()
	ds := wasmcluster.New(wasmcluster.Config{
		Seed: 1, NumWorkloads: 48, MaxDevices: 8, SetsPerDegree: 15,
	}).Generate()
	cfg := core.DefaultConfig(1)
	cfg.Quantiles = quantiles
	cfg.Steps = 1
	m, err := core.NewModel(cfg, ds)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	split := dataset.NewSplit(rng, len(ds.Obs), 0.8)
	split.EnsureCoverage(ds)
	if _, err := m.Train(split); err != nil {
		b.Fatal(err)
	}
	return m, split
}

// BenchmarkTrainStep measures one optimization step of the mean model
// (paper §3.6 reports ~12s for 20k steps on a GPU; this is the CPU cost).
func BenchmarkTrainStep(b *testing.B) {
	ds := wasmcluster.New(wasmcluster.Config{
		Seed: 1, NumWorkloads: 48, MaxDevices: 8, SetsPerDegree: 15,
	}).Generate()
	rng := rand.New(rand.NewSource(2))
	split := dataset.NewSplit(rng, len(ds.Obs), 0.8)
	cfg := core.DefaultConfig(1)
	cfg.EvalEvery = 1 << 30 // no validation inside the loop
	b.ReportAllocs()
	b.ResetTimer()
	// Steps scale linearly; train b.N steps in one call.
	cfg.Steps = b.N
	m, err := core.NewModel(cfg, ds)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Train(split); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTrainStepQuantile measures one step of the 8-head quantile
// model. Its heads share both towers' hidden layers, but each head has its
// own loss tasks and workload-tower outputs, so a step does 11.8M
// multiply-adds to the mean step's 6.0M. Measured against
// BenchmarkTrainStep at -cpu 1 (medians of five rounds, 100 steps each),
// it cost 2.7× the mean step before the blocked kernels and the in-order
// fold, and 2.1× after (DESIGN.md "Training step").
func BenchmarkTrainStepQuantile(b *testing.B) {
	ds := wasmcluster.New(wasmcluster.Config{
		Seed: 1, NumWorkloads: 48, MaxDevices: 8, SetsPerDegree: 15,
	}).Generate()
	rng := rand.New(rand.NewSource(2))
	split := dataset.NewSplit(rng, len(ds.Obs), 0.8)
	cfg := core.DefaultConfig(1)
	cfg.Quantiles = core.PaperQuantiles()
	cfg.EvalEvery = 1 << 30
	b.ReportAllocs()
	b.ResetTimer()
	cfg.Steps = b.N
	m, err := core.NewModel(cfg, ds)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Train(split); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkInference measures a single cached-embedding prediction
// (paper §3.6: ~400K flops per inference call).
func BenchmarkInference(b *testing.B) {
	m, _ := benchSetup(b, nil)
	ks := []int{1, 2, 3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictLogSeconds(i%40, i%50, ks, 0)
	}
}

// BenchmarkDatasetGeneration measures full-scale synthetic data generation
// (the substitute for 80 hours of physical data collection).
func BenchmarkDatasetGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wasmcluster.New(wasmcluster.Config{
			Seed: int64(i), NumWorkloads: 60, MaxDevices: 8, SetsPerDegree: 25,
		}).Generate()
	}
}

// BenchmarkAutodiffOverhead compares the tape-based two-tower forward
// against a hand-fused implementation of the same math (DESIGN.md §5:
// the price paid for ablation flexibility).
func BenchmarkAutodiffOverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const batch, r = 256, 32
	w := tensor.New(batch, r)
	p := tensor.New(batch, r)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
		p.Data[i] = rng.NormFloat64()
	}
	b.Run("tape", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wv := autodiff.NewParam(w)
			pv := autodiff.NewParam(p)
			loss := autodiff.Mean(autodiff.Square(autodiff.RowSum(autodiff.Mul(wv, pv))))
			loss.Backward()
		}
	})
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		gw := tensor.New(batch, r)
		gp := tensor.New(batch, r)
		for i := 0; i < b.N; i++ {
			// forward: mean(rowsum(w∘p)²); backward fused by hand.
			var loss float64
			for row := 0; row < batch; row++ {
				wr, pr := w.Row(row), p.Row(row)
				var s float64
				for k := range wr {
					s += wr[k] * pr[k]
				}
				loss += s * s
				c := 2 * s / batch
				gwr, gpr := gw.Row(row), gp.Row(row)
				for k := range wr {
					gwr[k] = c * pr[k]
					gpr[k] = c * wr[k]
				}
			}
			_ = loss / batch
		}
	})
}

// BenchmarkBatching compares per-degree fixed-shape batches (the paper's
// strategy, App. B.3) against mixed-degree batches padded to the maximum
// degree — the design choice called out in DESIGN.md §5.
func BenchmarkBatching(b *testing.B) {
	ds := wasmcluster.New(wasmcluster.Config{
		Seed: 4, NumWorkloads: 48, MaxDevices: 8, SetsPerDegree: 15,
	}).Generate()
	rng := rand.New(rand.NewSource(5))
	all := rng.Perm(len(ds.Obs))
	batcher := dataset.NewBatcher(rand.New(rand.NewSource(6)), ds, all)
	b.Run("per-degree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, deg := range batcher.Degrees {
				idx := batcher.Sample(deg, 256)
				_ = idx
			}
		}
	})
	b.Run("mixed-padded", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// One mixed batch of 1024 padded to degree 3: every sample
			// carries 3 interferer slots, zero-filled for lower degrees.
			idx := make([]int, 1024)
			pad := make([][3]int, 1024)
			for j := range idx {
				oi := all[rng.Intn(len(all))]
				idx[j] = oi
				for m2, k := range ds.Obs[oi].Interferers {
					pad[j][m2] = k
				}
			}
			_ = pad
		}
	})
}

// benchPredictor trains a small public-API predictor plus a
// scheduler-shaped query batch: every workload scanned on every platform
// against the platform's resident set (the orchestrator/capacity pattern).
func benchPredictor(b *testing.B) (*Predictor, []Query) {
	b.Helper()
	ds := GenerateDataset(DatasetConfig{
		Seed: 1, NumWorkloads: 48, MaxDevices: 8, SetsPerDegree: 15,
	})
	cfg := DefaultModelConfig(1)
	cfg.Steps = 60
	cfg.EvalEvery = 30
	pred, err := Train(ds, Options{Seed: 1, Model: &cfg})
	if err != nil {
		b.Fatal(err)
	}
	var qs []Query
	for p := 0; p < ds.NumPlatforms(); p++ {
		resident := []int{p % ds.NumWorkloads(), (p + 7) % ds.NumWorkloads(), (p + 13) % ds.NumWorkloads()}
		for w := 0; w < ds.NumWorkloads(); w++ {
			qs = append(qs, Query{Workload: w, Platform: p, Interferers: resident})
		}
	}
	return pred, qs
}

var sinkFloat float64

// BenchmarkEstimateLoop serves the scheduler scan one Estimate call at a
// time — the pre-batch-API serving pattern.
func BenchmarkEstimateLoop(b *testing.B) {
	pred, qs := benchPredictor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s float64
		for _, q := range qs {
			s += pred.Estimate(q.Workload, q.Platform, q.Interferers)
		}
		sinkFloat = s
	}
	b.ReportMetric(float64(len(qs))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkEstimateBatch serves the same scan through EstimateBatch, which
// folds each platform's interference term into one effective vector and
// fans groups out across workers.
func BenchmarkEstimateBatch(b *testing.B) {
	pred, qs := benchPredictor(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := pred.EstimateBatch(qs)
		sinkFloat = out[0]
	}
	b.ReportMetric(float64(len(qs))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkFusedRowDot compares the fused RowDot op against the unfused
// RowSum(Mul(...)) composition it replaces in predictBatch, forward +
// backward.
func BenchmarkFusedRowDot(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const batch, r = 256, 32
	w := tensor.New(batch, r)
	p := tensor.New(batch, r)
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
		p.Data[i] = rng.NormFloat64()
	}
	wv := autodiff.NewParam(w)
	pv := autodiff.NewParam(p)
	b.Run("unfused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			loss := autodiff.Mean(autodiff.Square(autodiff.RowSum(autodiff.Mul(wv, pv))))
			loss.Backward()
			wv.ZeroGrad()
			pv.ZeroGrad()
			autodiff.ReleaseGraph(loss)
		}
	})
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			loss := autodiff.Mean(autodiff.Square(autodiff.RowDot(wv, pv)))
			loss.Backward()
			wv.ZeroGrad()
			pv.ZeroGrad()
			autodiff.ReleaseGraph(loss)
		}
	})
}

// BenchmarkFusedGatherCols compares the fused GatherCols op against the
// Gather+SliceCols composition on an 8-head-wide embedding table (the
// quantile model's lookup shape).
func BenchmarkFusedGatherCols(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	const n, r, heads, batch = 64, 32, 8, 256
	table := tensor.New(n, r*heads)
	for i := range table.Data {
		table.Data[i] = rng.NormFloat64()
	}
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	tv := autodiff.NewParam(table)
	b.Run("unfused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := i % heads
			loss := autodiff.Mean(autodiff.Square(
				autodiff.SliceCols(autodiff.Gather(tv, idx), h*r, (h+1)*r)))
			loss.Backward()
			tv.ZeroGrad()
			autodiff.ReleaseGraph(loss)
		}
	})
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h := i % heads
			loss := autodiff.Mean(autodiff.Square(
				autodiff.GatherCols(tv, idx, h*r, (h+1)*r)))
			loss.Backward()
			tv.ZeroGrad()
			autodiff.ReleaseGraph(loss)
		}
	})
}

// BenchmarkMatrixAlloc compares pool-recycled matrix storage against fresh
// heap allocation at the training graph's dominant shape.
func BenchmarkMatrixAlloc(b *testing.B) {
	const rows, cols = 256, 64
	b.Run("heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := tensor.New(rows, cols)
			sinkFloat = m.Data[0]
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := tensor.GetPooled(rows, cols)
			sinkFloat = m.Data[0]
			tensor.PutPooled(m)
		}
	})
}

// BenchmarkConformalCalibration measures calibrating one epsilon over the
// full calibration set.
func BenchmarkConformalCalibration(b *testing.B) {
	m, split := benchSetup(b, []float64{0.5, 0.8, 0.9, 0.95})
	d := m.Dataset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d
		_ = split
		// Calibration = per-head predictions + sorting per pool; exercised
		// through the public facade path in pitot.go.
		pr := quantAdapter{m}
		hp := buildHP(d, pr, split)
		if hp == nil {
			b.Fatal("nil head predictions")
		}
	}
}

// buildHP mirrors eval.BuildHeadPredictions without importing eval into
// the root package's bench (avoiding an import cycle through test code).
func buildHP(d *dataset.Dataset, tr quantAdapter, split dataset.Split) any {
	nh := tr.NumHeads()
	cal := make([][]float64, nh)
	val := make([][]float64, nh)
	for h := 0; h < nh; h++ {
		cal[h] = tr.PredictLogObs(split.Cal, h)
		val[h] = tr.PredictLogObs(split.Val, h)
	}
	return [2][][]float64{cal, val}
}

// placementBench trains a bounds-enabled predictor and builds a
// steady-state 24-platform cluster: every platform pre-loaded with two
// long-running residents, so candidate scoring pays the full interference
// fold the orchestrator sees under load.
func placementBench(b *testing.B, scalar bool) (*sched.ReplicaSet, []sched.Job) {
	b.Helper()
	ds := GenerateDataset(DatasetConfig{
		Seed: 1, NumWorkloads: 40, MaxDevices: 8, SetsPerDegree: 15,
	})
	const platforms = 24
	if ds.NumPlatforms() < platforms {
		b.Fatalf("dataset has %d platforms, need %d", ds.NumPlatforms(), platforms)
	}
	cfg := DefaultModelConfig(1)
	cfg.Steps = 60
	cfg.EvalEvery = 30
	pred, err := Train(ds, Options{Seed: 1, Model: &cfg, EnableBounds: true})
	if err != nil {
		b.Fatal(err)
	}
	var sp sched.Predictor = pred
	if scalar {
		sp = &scalarRef{p: pred}
	}
	s, err := sched.New(sched.Config{NumPlatforms: platforms, MaxColocation: 4}, policy(b, "bound"), sp)
	if err != nil {
		b.Fatal(err)
	}
	// Two permanent residents per platform: deadlines far above any bound,
	// placed round-robin by the least-loaded strategy.
	for i := 0; i < 2*platforms; i++ {
		if a := s.Place(sched.Job{Workload: i % ds.NumWorkloads(), Deadline: 1e9}); !a.Placed() {
			b.Fatalf("resident %d unplaced", i)
		}
	}
	rng := rand.New(rand.NewSource(9))
	wave := make([]sched.Job, 32)
	for i := range wave {
		w := rng.Intn(ds.NumWorkloads())
		wave[i] = sched.Job{Workload: w, Deadline: pred.Estimate(w, rng.Intn(platforms), nil) * 20}
	}
	return s, wave
}

// runPlacementBench steadily places and retires one wave per iteration —
// the event-driven steady state — and reports placement throughput.
func runPlacementBench(b *testing.B, s *sched.ReplicaSet, wave []sched.Job) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	placed := 0
	for i := 0; i < b.N; i++ {
		as := s.PlaceAll(wave)
		b.StopTimer()
		for _, a := range as {
			if a.Placed() {
				placed++
				if err := s.Complete(a.ID); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
	}
	if placed == 0 {
		b.Fatal("nothing placed")
	}
	b.ReportMetric(float64(placed)/b.Elapsed().Seconds(), "placements/s")
}

// benchScoreSetup trains a bounds-enabled predictor and builds the
// 24-platform scheduler scan both heads are consumed over: every workload
// on every platform against the platform's resident set.
func benchScoreSetup(b *testing.B) (*Predictor, []Query) {
	b.Helper()
	ds := GenerateDataset(DatasetConfig{
		Seed: 1, NumWorkloads: 40, MaxDevices: 8, SetsPerDegree: 15,
	})
	const platforms = 24
	if ds.NumPlatforms() < platforms {
		b.Fatalf("dataset has %d platforms, need %d", ds.NumPlatforms(), platforms)
	}
	cfg := DefaultModelConfig(1)
	cfg.Steps = 60
	cfg.EvalEvery = 30
	pred, err := Train(ds, Options{Seed: 1, Model: &cfg, EnableBounds: true})
	if err != nil {
		b.Fatal(err)
	}
	var qs []Query
	for p := 0; p < platforms; p++ {
		resident := []int{p % ds.NumWorkloads(), (p + 7) % ds.NumWorkloads(), (p + 13) % ds.NumWorkloads()}
		for w := 0; w < ds.NumWorkloads(); w++ {
			qs = append(qs, Query{Workload: w, Platform: p, Interferers: resident})
		}
	}
	// Prime the conformal bounder so calibration cost stays out of the
	// timed loop for both variants.
	if _, err := pred.BoundBatch(qs[:1], 0.1); err != nil {
		b.Fatal(err)
	}
	return pred, qs
}

// BenchmarkScoreTwoPass24 serves a mixed mean/bound policy the pre-fusion
// way: back-to-back EstimateBatch + BoundBatch over the same queries (two
// span traversals, two interference folds per platform, a per-query
// conformal pool lookup).
func BenchmarkScoreTwoPass24(b *testing.B) {
	pred, qs := benchScoreSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mean := pred.EstimateBatch(qs)
		bound, err := pred.BoundBatch(qs, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		sinkFloat = mean[0] + bound[0]
	}
	b.ReportMetric(float64(len(qs))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkScoreFused24 serves both heads through the fused ScoreBatch:
// one span traversal, one fold per (platform, model), the conformal offset
// hoisted per span. Outputs are bitwise-identical to the two-pass variant.
func BenchmarkScoreFused24(b *testing.B) {
	pred, qs := benchScoreSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mean, bound, err := pred.ScoreBatch(qs, 0.1)
		if err != nil {
			b.Fatal(err)
		}
		sinkFloat = mean[0] + bound[0]
	}
	b.ReportMetric(float64(len(qs))*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
}

// BenchmarkPlacementScalar24 places over the scalar reference: every
// candidate platform scored with one scalar Bound call, nothing served from
// the score table — the pre-engine serving pattern.
func BenchmarkPlacementScalar24(b *testing.B) {
	s, wave := placementBench(b, true)
	runPlacementBench(b, s, wave)
}

// BenchmarkPlacementBatch24 scores through the engine's one path: the whole
// wave is pre-scored in one BoundBatch pass (platform-major, so each
// platform's interference term is folded once and shared across the wave)
// with per-job rescores only for platforms dirtied mid-wave, and cells
// served from the score table across waves.
func BenchmarkPlacementBatch24(b *testing.B) {
	s, wave := placementBench(b, false)
	runPlacementBench(b, s, wave)
}

// BenchmarkBoundPlace20 is one call of the shape a 16-job /place wave
// makes about sixteen times: twenty bound-head queries into caller
// buffers, spread over ten platforms (two workloads each) with zero to
// three residents. Run it at -cpu 1 and -cpu 2: the call runs on the
// caller's goroutine, so the two should read alike.
func BenchmarkBoundPlace20(b *testing.B) {
	pred, _ := benchScoreSetup(b)
	ds := pred.snap.Load().ds
	var qs []Query
	for p := 0; p < 10; p++ {
		resident := make([]int, p%4)
		for i := range resident {
			resident[i] = (3*p + 5*i) % ds.NumWorkloads()
		}
		for _, w := range []int{p, p + 11} {
			qs = append(qs, Query{Workload: w % ds.NumWorkloads(), Platform: 2 * p, Interferers: resident})
		}
	}
	bound := make([]float64, len(qs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred.ScoreSecondsBatch(qs, 0.1, nil, bound)
	}
	sinkFloat = bound[0]
}
