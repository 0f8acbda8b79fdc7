package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/wasmcluster"
)

// tableModels trains a mean model and a three-head quantile model on one
// dataset, briefly: bitwise identity does not depend on how well they fit.
// The proportional objective has no quantile heads; there the second
// model is another mean model.
func tableModels(t *testing.T, mutate func(*Config)) (mean, quant *Model) {
	t.Helper()
	mean = trainedModel(t, 5, func(c *Config) {
		c.Steps = 20
		c.EvalEvery = 10
		if mutate != nil {
			mutate(c)
		}
	})
	quant = trainedModel(t, 5, func(c *Config) {
		c.Steps = 20
		c.EvalEvery = 10
		if mutate != nil {
			mutate(c)
		}
		c.Seed = 6
		if c.Objective != ObjProportional {
			c.Quantiles = []float64{0.5, 0.9, 0.99}
		}
	})
	if mean.tables == nil || quant.tables == nil {
		t.Fatal("trained models have no interference tables")
	}
	return mean, quant
}

// tableQueries mixes platform-major spans that share an interferer set
// with singleton spans, over 0-4 interferers drawn with repeats.
func tableQueries(m *Model, rng *rand.Rand) []Query {
	nw, np := m.Dataset().NumWorkloads(), m.Dataset().NumPlatforms()
	var qs []Query
	for p := 0; p < np; p++ {
		ks := make([]int, p%5)
		for i := range ks {
			ks[i] = rng.Intn(4) // few distinct values: repeats are common
		}
		if p%7 == 3 && len(ks) > 1 {
			ks[1] = ks[0]
		}
		for w := p % 3; w < nw; w += 3 {
			qs = append(qs, Query{Workload: w, Platform: p, Interferers: ks})
		}
	}
	for i := 0; i < 200; i++ {
		ks := make([]int, rng.Intn(5))
		for j := range ks {
			ks[j] = rng.Intn(nw)
		}
		qs = append(qs, Query{Workload: rng.Intn(nw), Platform: rng.Intn(np), Interferers: ks})
	}
	return qs
}

// tableOutputs runs every scoring path over qs: per head of both models
// the scalar residual and the batch path in log seconds and seconds.
func tableOutputs(mean, quant *Model, qs []Query) [][]float64 {
	var outs [][]float64
	for _, m := range []*Model{mean, quant} {
		for h := 0; h < m.Cfg.NumHeads(); h++ {
			res := make([]float64, len(qs))
			for i, q := range qs {
				res[i] = m.PredictResidual(q.Workload, q.Platform, q.Interferers, h)
			}
			logs := make([]float64, len(qs))
			m.PredictLogSecondsBatch(qs, h, logs)
			secs := make([]float64, len(qs))
			m.PredictSecondsBatch(qs, h, secs)
			outs = append(outs, res, logs, secs)
		}
	}
	return outs
}

// dotPathOutputs is tableOutputs with both models' tables removed, so
// every path computes its dot products from the embeddings.
func dotPathOutputs(mean, quant *Model, qs []Query) [][]float64 {
	tM, tQ := mean.tables, quant.tables
	mean.tables, quant.tables = nil, nil
	defer func() { mean.tables, quant.tables = tM, tQ }()
	return tableOutputs(mean, quant, qs)
}

func requireBitwise(t *testing.T, got, want [][]float64, qs []Query) {
	t.Helper()
	for o := range want {
		for i := range want[o] {
			if math.Float64bits(got[o][i]) != math.Float64bits(want[o][i]) {
				t.Fatalf("output %d, query %d (%+v): tables %v, dot path %v", o, i, qs[i], got[o][i], want[o][i])
			}
		}
	}
}

// TestInterferenceTablesMatchDotPath: every scalar and batch output
// read from the tables is bitwise the dot code's, for every head of both
// models, across the configurations that change what the tables hold or
// how the paths read them.
func TestInterferenceTablesMatchDotPath(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"rank32", func(c *Config) { c.EmbeddingDim = 32 }},
		{"rank16", nil},
		{"log", func(c *Config) { c.EmbeddingDim = 32; c.Objective = ObjLog }},
		{"proportional", func(c *Config) { c.Objective = ObjProportional }},
		{"ignore", func(c *Config) { c.EmbeddingDim = 32; c.Interference = InterferenceIgnore }},
		{"s0", func(c *Config) { c.EmbeddingDim = 32; c.InterferenceTypes = 0 }},
		{"linear", func(c *Config) { c.EmbeddingDim = 32; c.UseActivation = false }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mean, quant := tableModels(t, tc.mutate)
			qs := tableQueries(mean, rand.New(rand.NewSource(3)))
			requireBitwise(t, tableOutputs(mean, quant, qs), dotPathOutputs(mean, quant, qs), qs)
		})
	}
}

// TestInterferenceTablesOverCap: a model whose tables would exceed the
// cap keeps none and scores through the dot code, with the same outputs.
func TestInterferenceTablesOverCap(t *testing.T) {
	mean, quant := tableModels(t, func(c *Config) { c.EmbeddingDim = 32 })
	qs := tableQueries(mean, rand.New(rand.NewSource(4)))
	want := tableOutputs(mean, quant, qs)
	for _, m := range []*Model{mean, quant} {
		need := len(m.tables.data) * 8
		m.syncTables(need)
		if m.tables == nil {
			t.Fatalf("tables of %d bytes dropped at a cap of %d", need, need)
		}
		m.syncTables(need - 1)
		if m.tables != nil {
			t.Fatalf("tables of %d bytes kept at a cap of %d", need, need-1)
		}
	}
	requireBitwise(t, tableOutputs(mean, quant, qs), want, qs)
}

// requireCurrent checks every table entry of m against the dot products
// of its synced embeddings.
func requireCurrent(t *testing.T, m *Model) {
	t.Helper()
	r, s := m.Cfg.EmbeddingDim, m.Cfg.InterferenceTypes
	tab := m.tables
	if tab == nil {
		t.Fatal("model has no interference tables")
	}
	if tab.nh != m.Cfg.NumHeads() || tab.nw != m.wEmb.Rows || tab.np != m.pEmb.Rows {
		t.Fatalf("tables shaped %dx%dx%d for %dx%dx%d", tab.nh, tab.nw, tab.np, m.Cfg.NumHeads(), m.wEmb.Rows, m.pEmb.Rows)
	}
	for h := 0; h < tab.nh; h++ {
		for e := 0; e < tab.nw; e++ {
			w := m.wEmb.Row(e)[h*r : (h+1)*r]
			for p := 0; p < tab.np; p++ {
				prow := m.pEmb.Row(p)
				rec := tab.record(h, e, p)
				want := []float64{dot(w, prow[:r])}
				for k := 0; k < s; k++ {
					want = append(want, dot(w, prow[r*(1+k):r*(2+k)]))
				}
				for k := 0; k < s; k++ {
					want = append(want, dot(w, prow[r*(1+s+k):r*(2+s+k)]))
				}
				for k := 0; k < s; k++ {
					want = append(want, dotUnrolled(w, prow[r*(1+s+k):r*(2+s+k)]))
				}
				for c := range want {
					if math.Float64bits(rec[c]) != math.Float64bits(want[c]) {
						t.Fatalf("record (%d, %d, %d) column %d: %v, embeddings give %v", h, e, p, c, rec[c], want[c])
					}
				}
			}
		}
	}
}

// TestInterferenceTablesPrivateAndCurrent: Clone, OnlineUpdate and Load
// each leave a model with tables of its own that match its embeddings,
// and never touch another model's.
func TestInterferenceTablesPrivateAndCurrent(t *testing.T) {
	m := trainedModel(t, 8, func(c *Config) {
		c.Steps = 20
		c.EvalEvery = 10
		c.EmbeddingDim = 32
		c.Quantiles = []float64{0.5, 0.9}
	})
	requireCurrent(t, m)
	orig := append([]float64(nil), m.tables.data...)
	private := func(c *Model) {
		t.Helper()
		if c.tables == m.tables || &c.tables.data[0] == &m.tables.data[0] {
			t.Fatal("model shares its interference tables with the original")
		}
		for i, v := range orig {
			if math.Float64bits(m.tables.data[i]) != math.Float64bits(v) {
				t.Fatalf("original's table entry %d changed", i)
			}
		}
	}

	c, err := m.Clone(nil)
	if err != nil {
		t.Fatal(err)
	}
	private(c)
	requireCurrent(t, c)

	before := &c.tables.data[0]
	var newIdx []int
	for i := 0; i < 16; i++ {
		newIdx = append(newIdx, i)
	}
	if err := c.OnlineUpdate(newIdx, newIdx, OnlineConfig{Steps: 3, Batch: 32, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if &c.tables.data[0] != before {
		t.Fatal("OnlineUpdate reallocated the tables instead of rebuilding them in place")
	}
	private(c)
	requireCurrent(t, c)
	if math.Float64bits(c.tables.data[0]) == math.Float64bits(orig[0]) {
		t.Fatal("OnlineUpdate left the first table entry unchanged")
	}

	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	l, err := Load(&buf, m.Dataset())
	if err != nil {
		t.Fatal(err)
	}
	private(l)
	requireCurrent(t, l)
	if l.tables == c.tables {
		t.Fatal("loaded model shares the saved model's tables")
	}
}

// TestScoringAllocationFree: a warm batch call into a caller buffer, the
// mean model's or a quantile model's bound head, allocates nothing at the
// default rank.
func TestScoringAllocationFree(t *testing.T) {
	mean, quant := tableModels(t, func(c *Config) { c.EmbeddingDim = 32 })
	qs := tableQueries(mean, rand.New(rand.NewSource(5)))
	a, b := make([]float64, len(qs)), make([]float64, len(qs))
	for name, call := range map[string]func(){
		"batch": func() { mean.PredictSecondsBatch(qs, 0, a) },
		"bound": func() { quant.PredictLogSecondsBatch(qs, 1, b) },
	} {
		call()
		if n := testing.AllocsPerRun(20, call); n != 0 {
			t.Errorf("%s: warm call allocates %v objects, want 0", name, n)
		}
	}
}

// TestInterferenceTablesOutOfRangePanics: an index outside the model
// panics in the scalar and batch paths instead of reading a neighbouring
// record of the flat tables. The log objective reads no baseline, whose
// own index checks would otherwise panic first.
func TestInterferenceTablesOutOfRangePanics(t *testing.T) {
	mean, quant := tableModels(t, func(c *Config) { c.EmbeddingDim = 32; c.Objective = ObjLog })
	nw, np, nh := quant.wEmb.Rows, quant.pEmb.Rows, quant.Cfg.NumHeads()
	for _, m := range []*Model{mean, quant} {
		for _, c := range []struct {
			w, p int
			ks   []int
			h    int
		}{
			{nw, 0, nil, 0}, {-1, 0, nil, 0},
			{0, np, nil, 0}, {0, -1, nil, 0}, {0, np, []int{1}, 0},
			{0, 0, []int{1, nw}, 0}, {0, 0, []int{-1}, 0},
			{0, 0, nil, nh}, {0, 0, nil, -1},
		} {
			mustPanic := func(what string, f func()) {
				t.Helper()
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%d, %d, %v, head %d) did not panic", what, c.w, c.p, c.ks, c.h)
					}
				}()
				f()
			}
			mustPanic("PredictResidual", func() { m.PredictResidual(c.w, c.p, c.ks, c.h) })
			if c.h == 0 {
				out := make([]float64, 1)
				q := []Query{{Workload: c.w, Platform: c.p, Interferers: c.ks}}
				mustPanic("PredictLogSecondsBatch", func() { m.PredictLogSecondsBatch(q, 0, out) })
			}
		}
	}
}

// BenchmarkSyncTables times one model's sync at the default scale (48
// workloads × 80 platforms, rank 32, s = 2): "sync" is SyncEmbeddings
// whole (both towers and the tables), "tables" the table build alone and
// "clone" a whole Clone, for the mean model and the eight-head quantile
// model.
func BenchmarkSyncTables(b *testing.B) {
	ds := wasmcluster.New(wasmcluster.Config{Seed: 1}).Generate()
	for _, quantiles := range [][]float64{nil, PaperQuantiles()} {
		cfg := DefaultConfig(1)
		cfg.Quantiles = quantiles
		m, err := NewModel(cfg, ds)
		if err != nil {
			b.Fatal(err)
		}
		m.SyncEmbeddings()
		name := fmt.Sprintf("heads=%d", cfg.NumHeads())
		b.Run(name+"/sync", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.SyncEmbeddings()
			}
		})
		b.Run(name+"/tables", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.syncTables(maxTableBytes)
			}
			b.ReportMetric(float64(len(m.tables.data)*8), "table_bytes")
		})
		b.Run(name+"/clone", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Clone(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
