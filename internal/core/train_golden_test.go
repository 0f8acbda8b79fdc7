package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/dataset"
	"repro/internal/tensor"
	"repro/internal/wasmcluster"
)

// goldenTrainDigests pins what Train produces, bit for bit: every
// parameter and both synced embedding caches of a mean model and a 3-head
// quantile model, each trained at Workers 1 and 2. Recorded before the
// training step's kernels and task scheduling were rewritten; must never
// change.
var goldenTrainDigests = map[string]uint64{
	"mean/w1":   0xfe095cd76a02332c,
	"mean/w2":   0xfe095cd76a02332c,
	"quant3/w1": 0x0cea2ac9d0b19374,
	"quant3/w2": 0x0cea2ac9d0b19374,
}

// goldenTrainModel trains one model of the golden set on the root
// package's smallDataset. The hidden width (30), rank (15) and batch size
// (101) are deliberately not multiples of the blocked kernels' 2×4 tile,
// so the digests cover the kernels' remainder rows and columns as well as
// their full blocks.
func goldenTrainModel(t testing.TB, quantiles []float64, workers int) *Model {
	t.Helper()
	ds := wasmcluster.New(wasmcluster.Config{
		Seed: 11, NumWorkloads: 24, MaxDevices: 4, SetsPerDegree: 10,
	}).Generate()
	cfg := smallConfig(83)
	cfg.Hidden = 30
	cfg.EmbeddingDim = 15
	cfg.BatchPerDegree = 101
	cfg.Steps = 120
	cfg.EvalEvery = 40
	cfg.Quantiles = quantiles
	cfg.Workers = workers
	m, err := NewModel(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(84))
	split := dataset.NewSplit(rng, len(ds.Obs), 0.8)
	split.EnsureCoverage(ds)
	if _, err := m.Train(split); err != nil {
		t.Fatal(err)
	}
	return m
}

// trainDigest hashes the shape and the bits of every parameter and of the
// synced workload and platform embedding caches.
func trainDigest(m *Model) uint64 {
	h := fnv.New64a()
	var b [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	mat := func(x *tensor.Matrix) {
		u64(uint64(x.Rows))
		u64(uint64(x.Cols))
		for _, v := range x.Data {
			u64(math.Float64bits(v))
		}
	}
	for _, p := range m.params {
		mat(p.Data)
	}
	mat(m.wEmb)
	mat(m.pEmb)
	return h.Sum64()
}

var goldenTrainCases = []struct {
	name      string
	quantiles []float64
}{
	{"mean", nil},
	{"quant3", []float64{0.5, 0.9, 0.99}},
}

// TestGoldenTrainDigests checks that training is bitwise what it was when
// the digests were recorded, on the sequential path and on the fan-out
// path. The floats come from math.Erf, math.Exp and compiler-scheduled
// arithmetic, so the digests are pinned on amd64 only.
func TestGoldenTrainDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("training digests are recorded on amd64")
	}
	for _, c := range goldenTrainCases {
		for _, workers := range []int{1, 2} {
			key := c.name + "/w" + string(rune('0'+workers))
			got := trainDigest(goldenTrainModel(t, c.quantiles, workers))
			if want := goldenTrainDigests[key]; got != want {
				t.Errorf("%s: digest %#x, want %#x", key, got, want)
			}
		}
	}
}

// poisonPool fills pooled buffers of every size class up to 1<<16 floats
// with NaN, so an op that reads an element of an uncleared output before
// writing it turns the trained model NaN.
func poisonPool() {
	for class := 0; class <= 16; class++ {
		n := 32
		if class > 12 {
			n = 4
		}
		bufs := make([]*tensor.Matrix, n)
		for i := range bufs {
			bufs[i] = tensor.GetPooledUncleared(1, 1<<class)
			bufs[i].Fill(math.NaN())
		}
		for _, b := range bufs {
			tensor.PutPooled(b)
		}
	}
}

// TestPoisonedPoolTrainsIdentically trains with every pool size class
// full of NaN and compares the result bitwise with an unpoisoned Train.
// Op outputs come from the pool uncleared; only an op that reads an
// output element it never wrote can tell the difference. The garbage
// collector is held off so that it cannot empty the pool mid-test.
func TestPoisonedPoolTrainsIdentically(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, c := range []struct {
		quantiles []float64
		workers   int
	}{{nil, 1}, {[]float64{0.5, 0.9, 0.99}, 2}} {
		clean := trainDigest(goldenTrainModel(t, c.quantiles, c.workers))
		poisonPool()
		if got := trainDigest(goldenTrainModel(t, c.quantiles, c.workers)); got != clean {
			t.Errorf("quantiles %v workers %d: poisoned pool digest %#x, clean %#x",
				c.quantiles, c.workers, got, clean)
		}
	}
}
