package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
)

// A model file whose parameter payload or baseline disagrees with its
// declared shape must fail Load with an error, not panic — model files
// reach Load from disk and from the serving wire (LoadPredictor).
func TestLoadRejectsCorruptPayload(t *testing.T) {
	ds := testData(t)
	m, err := NewModel(smallConfig(8), ds)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	decode := func() modelFile {
		var mf modelFile
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&mf); err != nil {
			t.Fatal(err)
		}
		return mf
	}
	reload := func(mf modelFile) error {
		var out bytes.Buffer
		if err := gob.NewEncoder(&out).Encode(&mf); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&out, ds)
		return err
	}

	truncated := decode()
	truncated.Params[0].Data = truncated.Params[0].Data[:len(truncated.Params[0].Data)-1]
	if err := reload(truncated); err == nil {
		t.Fatal("Load accepted a parameter payload shorter than its shape")
	}

	badBaseline := decode()
	badBaseline.BaselineW = []float64{1}
	badBaseline.BaselineP = []float64{1}
	if err := reload(badBaseline); err == nil {
		t.Fatal("Load accepted a baseline sized for a different dataset")
	}
}

// A model file whose config implies parameters other than the ones it
// carries must fail Load before anything is built from that config: a
// width of 1<<40 made NewModel panic in make, an overflowing width could
// wrap to a shape that matches, and a merely large one allocated its
// weights before the shapes were compared.
func TestLoadRejectsHostileConfig(t *testing.T) {
	ds := testData(t)
	m, err := NewModel(smallConfig(9), ds)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		edit func(*Config)
	}{
		{"hidden 1<<40", func(c *Config) { c.Hidden = 1 << 40 }},
		{"hidden 1<<12", func(c *Config) { c.Hidden = 1 << 12 }},
		{"learned features near MaxInt", func(c *Config) { c.LearnedFeatures = math.MaxInt - 3 }},
		{"rank times heads overflows", func(c *Config) {
			c.EmbeddingDim = 1 << 62
			c.Quantiles = []float64{0.1, 0.5, 0.9, 0.99}
		}},
		{"interference types overflow", func(c *Config) { c.InterferenceTypes = math.MaxInt / 2 }},
	} {
		var mf modelFile
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&mf); err != nil {
			t.Fatal(err)
		}
		c.edit(&mf.Cfg)
		var out bytes.Buffer
		if err := gob.NewEncoder(&out).Encode(&mf); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Load(&out, ds)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: Load accepted the file", c.name)
		}
		// Decoding the file takes well under a MiB; one 32x4096 weight
		// alone would take 1 MiB.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: Load allocated %d bytes before refusing the file", c.name, grew)
		}
	}
}

// newLayout's shapes are the parameters NewModel builds, for the mean and
// quantile heads, with and without learned features and side information.
func TestLayoutMatchesModelParams(t *testing.T) {
	ds := testData(t)
	for _, edit := range []func(*Config){
		func(*Config) {},
		func(c *Config) { c.Quantiles = []float64{0.1, 0.5, 0.9} },
		func(c *Config) { c.LearnedFeatures = 0 },
		func(c *Config) { c.UseWorkloadFeatures, c.InterferenceTypes = false, 0 },
	} {
		cfg := smallConfig(3)
		edit(&cfg)
		m, err := NewModel(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		l, err := newLayout(cfg, ds)
		if err != nil {
			t.Fatal(err)
		}
		if len(l.shapes) != len(m.params) {
			t.Fatalf("%+v: layout has %d shapes, model %d params", cfg, len(l.shapes), len(m.params))
		}
		for i, p := range m.params {
			if sh := l.shapes[i]; sh != [2]int{p.Data.Rows, p.Data.Cols} {
				t.Fatalf("%+v: parameter %d is %dx%d, layout says %v", cfg, i, p.Data.Rows, p.Data.Cols, sh)
			}
		}
	}
}

// Clone must predict bitwise identically to the original and be fully
// isolated from it: fine-tuning the clone must not move the original.
func TestCloneIsDeepAndBitwiseIdentical(t *testing.T) {
	ds := testData(t)
	cfg := smallConfig(5)
	m, err := NewModel(cfg, ds)
	if err != nil {
		t.Fatal(err)
	}
	split := dataset.NewSplit(rand.New(rand.NewSource(5)), len(ds.Obs), 0.8)
	if _, err := m.Train(split); err != nil {
		t.Fatal(err)
	}

	probe := func(mm *Model) []float64 {
		var out []float64
		for w := 0; w < 5; w++ {
			out = append(out,
				mm.PredictSeconds(w, w%ds.NumPlatforms(), nil, 0),
				mm.PredictSeconds(w, (w+1)%ds.NumPlatforms(), []int{(w + 2) % ds.NumWorkloads()}, 0))
		}
		return out
	}
	before := probe(m)

	c, err := m.Clone(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range probe(c) {
		if v != before[i] {
			t.Fatalf("clone prediction %d differs: %v vs %v", i, v, before[i])
		}
	}

	// Rebind the clone to an extended dataset and fine-tune it; the
	// original must be untouched (this is the Observe copy-on-write path).
	extra := []dataset.Observation{}
	for i := 0; i < 20; i++ {
		extra = append(extra, dataset.Observation{Workload: 0, Platform: 0, Seconds: before[0] * 3})
	}
	nds := ds.CloneAppend(extra)
	if err := nds.Validate(); err != nil {
		t.Fatal(err)
	}
	c2, err := m.Clone(nds)
	if err != nil {
		t.Fatal(err)
	}
	newIdx := make([]int, len(extra))
	for i := range newIdx {
		newIdx[i] = len(ds.Obs) + i
	}
	if err := c2.OnlineUpdate(newIdx, split.Train, OnlineConfig{Steps: 50, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if c2.PredictSeconds(0, 0, nil, 0) == before[0] {
		t.Fatal("fine-tuned clone did not move")
	}
	for i, v := range probe(m) {
		if v != before[i] {
			t.Fatalf("fine-tuning the clone mutated the original (probe %d: %v vs %v)", i, v, before[i])
		}
	}
	if len(ds.Obs) != len(nds.Obs)-len(extra) {
		t.Fatal("CloneAppend mutated the original dataset")
	}
}

// A persisted config that requires side-information features must reject a
// dataset arriving without them (wire corruption) instead of panicking in
// standardize.
func TestNewModelRequiresDeclaredFeatures(t *testing.T) {
	ds := testData(t)
	stripped := ds.CloneAppend(nil)
	stripped.WorkloadFeatures = nil
	cfg := smallConfig(7)
	if !cfg.UseWorkloadFeatures {
		t.Skip("default config does not use workload features")
	}
	if _, err := NewModel(cfg, stripped); err == nil {
		t.Fatal("NewModel accepted a dataset missing required workload features")
	}
	stripped = ds.CloneAppend(nil)
	stripped.PlatformFeatures = nil
	if cfg.UsePlatformFeatures {
		if _, err := NewModel(cfg, stripped); err == nil {
			t.Fatal("NewModel accepted a dataset missing required platform features")
		}
	}
}

func TestCloneRejectsMismatchedDataset(t *testing.T) {
	ds := testData(t)
	m, err := NewModel(smallConfig(6), ds)
	if err != nil {
		t.Fatal(err)
	}
	bad := &dataset.Dataset{
		WorkloadNames:  []string{"only"},
		WorkloadSuites: []string{"s"},
	}
	if _, err := m.Clone(bad); err == nil {
		t.Fatal("Clone accepted a dataset with mismatched features")
	}
}
