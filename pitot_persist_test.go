package pitot

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSaveLoadRoundTrip exercises the full persistence path the serving
// daemon uses: SaveModel → (dataset through its JSON wire format) →
// LoadPredictor. Estimate and Bound must be bitwise identical across the
// round trip on the full query grid — parameters and baseline restore
// exactly, embedding caches recompute deterministically, and the conformal
// bounders recalibrate from the persisted split.
func TestSaveLoadRoundTrip(t *testing.T) {
	pred, ds := sharedBoundsPredictor(t)

	var meanBuf, quantBuf bytes.Buffer
	if err := pred.SaveModel(&meanBuf, &quantBuf); err != nil {
		t.Fatal(err)
	}
	var dsBuf bytes.Buffer
	if err := ds.WriteJSON(&dsBuf); err != nil {
		t.Fatal(err)
	}
	ds2, err := ReadDataset(&dsBuf)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPredictor(ds2, &meanBuf, &quantBuf)
	if err != nil {
		t.Fatal(err)
	}
	if info := loaded.Info(); !info.Bounds || info.Observations != len(ds.Obs) {
		t.Fatalf("loaded predictor info %+v", info)
	}

	interfererSets := [][]int{nil, {0}, {1, 2}, {3, 4, 5}}
	epsGrid := []float64{0.05, 0.1, 0.2}
	for w := 0; w < ds.NumWorkloads(); w++ {
		for p := 0; p < ds.NumPlatforms(); p++ {
			for _, ks := range interfererSets {
				if a, b := pred.Estimate(w, p, ks), loaded.Estimate(w, p, ks); a != b {
					t.Fatalf("Estimate(%d,%d,%v): %v vs loaded %v", w, p, ks, a, b)
				}
				for _, eps := range epsGrid {
					a, errA := pred.Bound(w, p, ks, eps)
					b, errB := loaded.Bound(w, p, ks, eps)
					if (errA == nil) != (errB == nil) {
						t.Fatalf("Bound(%d,%d,%v,%v) errors diverge: %v vs %v", w, p, ks, eps, errA, errB)
					}
					if errA != nil {
						continue
					}
					if math.IsInf(a, 1) && math.IsInf(b, 1) {
						continue
					}
					if a != b {
						t.Fatalf("Bound(%d,%d,%v,%v): %v vs loaded %v", w, p, ks, eps, a, b)
					}
				}
			}
		}
	}

	// Batch paths must agree with the loaded predictor too.
	qs := schedQueries(ds)
	want := pred.EstimateBatch(qs)
	got := loaded.EstimateBatch(qs)
	for i := range qs {
		if want[i] != got[i] {
			t.Fatalf("EstimateBatch[%d]: %v vs loaded %v", i, want[i], got[i])
		}
	}
}

// A predictor saved without bounds loads with a nil quantile stream and
// must reject Bound, while Estimate still round-trips bitwise.
func TestSaveLoadMeanOnly(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(31, false))
	if err != nil {
		t.Fatal(err)
	}
	var meanBuf bytes.Buffer
	if err := pred.SaveModel(&meanBuf, nil); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPredictor(ds, &meanBuf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := pred.Estimate(3, 1, []int{2}), loaded.Estimate(3, 1, []int{2}); a != b {
		t.Fatalf("mean-only round trip: %v vs %v", a, b)
	}
	if _, err := loaded.Bound(0, 0, nil, 0.1); err == nil {
		t.Fatal("loaded mean-only predictor accepted Bound")
	}
}

// A predictor that has Observed owns a grown dataset the caller no longer
// holds; Export persists dataset and models from one snapshot so the full
// serving state round-trips (SaveModel alone would reference out-of-range
// split indices).
func TestExportAfterObserveRoundTrip(t *testing.T) {
	ds := smallDataset()
	pred, err := Train(ds, smallOptions(33, false))
	if err != nil {
		t.Fatal(err)
	}
	obs := []Observation{
		{Workload: 0, Platform: 0, Seconds: pred.Estimate(0, 0, nil) * 1.5},
		{Workload: 1, Platform: 1, Seconds: pred.Estimate(1, 1, nil) * 1.5},
	}
	if err := pred.Observe(obs); err != nil {
		t.Fatal(err)
	}

	// SaveModel + the stale dataset must fail loudly, not mis-load.
	var staleMean bytes.Buffer
	if err := pred.SaveModel(&staleMean, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPredictor(ds, &staleMean, nil); err == nil {
		t.Fatal("LoadPredictor accepted a post-Observe save against the pre-Observe dataset")
	}

	var dataBuf, meanBuf bytes.Buffer
	if err := pred.Export(&dataBuf, &meanBuf, nil); err != nil {
		t.Fatal(err)
	}
	ds2, err := ReadDataset(&dataBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds2.Obs) != len(ds.Obs)+len(obs) {
		t.Fatalf("exported dataset has %d observations, want %d", len(ds2.Obs), len(ds.Obs)+len(obs))
	}
	loaded, err := LoadPredictor(ds2, &meanBuf, nil)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < ds.NumWorkloads(); w++ {
		for _, ks := range [][]int{nil, {2, 4}} {
			if a, b := pred.Estimate(w, 1, ks), loaded.Estimate(w, 1, ks); a != b {
				t.Fatalf("Estimate(%d,1,%v): %v vs exported %v", w, ks, a, b)
			}
		}
	}
}

func TestLoadPredictorRejectsCorruptInput(t *testing.T) {
	ds := smallDataset()
	if _, err := LoadPredictor(ds, bytes.NewReader([]byte("not a gob stream")), nil); err == nil {
		t.Fatal("accepted garbage mean stream")
	}
	// A gob stream of a disjoint type (e.g. a raw cmd/train core model)
	// fails at decode; one that happens to share fields but carries the
	// wrong magic must fail the format check with a clear message.
	var foreign bytes.Buffer
	if err := gob.NewEncoder(&foreign).Encode(struct{ Cfg int }{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPredictor(ds, &foreign, nil); err == nil {
		t.Fatal("accepted a foreign gob stream")
	}
	var wrongMagic bytes.Buffer
	if err := gob.NewEncoder(&wrongMagic).Encode(struct{ Magic string }{"pitot/other-v9"}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPredictor(ds, &wrongMagic, nil); err == nil || !strings.Contains(err.Error(), "SaveModel") {
		t.Fatalf("wrong-magic stream error = %v, want format-magic error", err)
	}
	if _, err := LoadPredictor(nil, bytes.NewReader(nil), nil); err == nil {
		t.Fatal("accepted nil dataset")
	}
	// A valid model stream against the wrong dataset must fail cleanly
	// (split indices out of range for the truncated dataset).
	pred, err := Train(ds, smallOptions(32, false))
	if err != nil {
		t.Fatal(err)
	}
	var meanBuf bytes.Buffer
	if err := pred.SaveModel(&meanBuf, nil); err != nil {
		t.Fatal(err)
	}
	short := ds.CloneAppend(nil)
	short.Obs = short.Obs[:len(short.Obs)/2]
	if _, err := LoadPredictor(short, &meanBuf, nil); err == nil {
		t.Fatal("accepted a dataset smaller than the persisted split")
	}
}

// TestLoadStreamsOfRemovedApproxKernel loads streams written when the
// model config still had a flag that served two-head scoring from an
// approximate kernel (deleted after commit 7fa879f, whose LoadPredictor
// turned it back on from the stream). testdata/approx-kernel holds the
// mean and quantile streams of a predictor trained on smallDataset() with
// that flag set: DefaultModelConfig(5) at rank 32, Hidden 8, Steps 40,
// BatchPerDegree 64, EvalEvery 20, EnableBounds. Gob drops the unknown
// field, so the loaded predictor scores with the one exact kernel: the
// two-head ScoreSecondsBatch is bitwise equal to EstimateBatch +
// BoundBatch.
func TestLoadStreamsOfRemovedApproxKernel(t *testing.T) {
	ds := smallDataset()
	meanB, err := os.ReadFile(filepath.Join("testdata", "approx-kernel", "mean.gob"))
	if err != nil {
		t.Fatal(err)
	}
	quantB, err := os.ReadFile(filepath.Join("testdata", "approx-kernel", "quant.gob"))
	if err != nil {
		t.Fatal(err)
	}
	pred, err := LoadPredictor(ds, bytes.NewReader(meanB), bytes.NewReader(quantB))
	if err != nil {
		t.Fatal(err)
	}
	qs := fusedQueries(ds, rand.New(rand.NewSource(43)))
	for _, eps := range []float64{0.05, 0.1, 0.3} {
		mean, bound := scoreBoth(pred, qs, eps)
		wantMean := pred.EstimateBatch(qs)
		wantBound, err := pred.BoundBatch(qs, eps)
		if err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			if math.Float64bits(mean[i]) != math.Float64bits(wantMean[i]) ||
				math.Float64bits(bound[i]) != math.Float64bits(wantBound[i]) {
				t.Fatalf("eps %v query %d: ScoreSecondsBatch (%v, %v) != EstimateBatch/BoundBatch (%v, %v)",
					eps, i, mean[i], bound[i], wantMean[i], wantBound[i])
			}
		}
	}
}
