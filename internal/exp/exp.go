// Package exp is the experiment registry: one entry per table and figure
// of the paper's evaluation, shared by cmd/experiments and the benchmark
// harness. Each experiment regenerates the data behind its figure as a
// plain-text table, at a configurable scale (the paper's exact scale is
// impractical for every CI run; -full reproduces it).
package exp

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/wasmcluster"
)

// Scale selects the cost/fidelity trade-off of an experiment run.
type Scale int

// Scales.
const (
	// Quick: seconds per experiment; used by tests and benches.
	Quick Scale = iota
	// Standard: minutes for the full registry
	// (`experiments -all -scale standard`).
	Standard
	// FullScale: paper-scale dataset and training budget.
	FullScale
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case Quick:
		return "quick"
	case Standard:
		return "standard"
	case FullScale:
		return "full"
	}
	return "unknown"
}

// Table is one rendered result table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render returns the table as aligned plain text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Notes)
	}
	return b.String()
}

// Experiment regenerates one paper figure or table.
type Experiment struct {
	ID    string
	Title string
	// Paper describes the expected qualitative result from the paper.
	Paper string
	Run   func(scale Scale, seed int64) ([]*Table, error)
}

// Registry returns all experiments in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"fig1", "Interference slowdown distribution", "log-density histogram; up to ~20x slowdown, heavier tails with more interferers", runFig1},
		{"table2", "Cluster device catalog", "24 devices across 9 vendors and 14 microarchitectures", runTable2},
		{"table3", "WebAssembly runtime configurations", "5 runtimes, 10 configurations", runTable3},
		{"fig4a", "Loss-formulation ablation", "log-residual < log < naive proportional error", runFig4a},
		{"fig4b", "Side-information ablation", "all features best; platform features higher marginal value (also Fig. 9a uncropped)", runFig4b},
		{"fig4c", "Interference-handling ablation", "aware best; ignore much worse with interference; discard cannot predict interference", runFig4c},
		{"fig4d", "Interference-activation ablation", "activation modestly but consistently better than simple multiplicative", runFig4d},
		{"fig5", "Uncertainty-quantification ablation", "Pitot CQR tighter than naive CQR and non-quantile conformal", runFig5},
		{"fig6a", "Error vs baselines", "Pitot < attention/NN << MF at all train fractions (also Fig. 9b uncropped)", runFig6a},
		{"fig6b", "Bound tightness vs baselines", "Pitot tighter than all baselines at every miscoverage rate", runFig6b},
		{"fig7", "Workload-embedding t-SNE", "workloads cluster by benchmark suite (also Fig. 12a)", runFig7},
		{"fig8", "Quantile-choice study", "optimal target quantile ξ well below 1-ε", runFig8},
		{"fig10", "Hyperparameter ablations", "insensitive given enough capacity: q≥1, r≥16, s≈2, β≈0.5", runFig10},
		{"fig11", "Tightness across train splits", "Pitot tighter than baselines at every split and ε", runFig11},
		{"fig12bc", "Platform-embedding t-SNE", "platforms cluster by runtime and microarchitecture class", runFig12bc},
		{"fig12d", "Interference-norm correlation", "‖F_j‖₂ positively correlated with measured mean interference", runFig12d},
		{"headline", "Headline accuracy (§5.3)", "≈5% MAPE without interference; large improvement over best baseline", runHeadline},
		{"ext-sched", "Extension: bound-aware placement", "conformal-bound placement keeps deadline misses within eps; mean placement does not (beyond-paper experiment)", runExtSched},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// settings bundles the per-scale knobs shared by experiments.
type settings struct {
	data    wasmcluster.Config
	fracs   []float64
	epsGrid []float64
	reps    int
	pitot   core.Config
	base    baselines.TrainConfig
	nnHid   int
}

func settingsFor(scale Scale, seed int64) settings {
	switch scale {
	case Quick:
		cfg := core.DefaultConfig(seed)
		cfg.Hidden = 32
		cfg.EmbeddingDim = 16
		cfg.Steps = 500
		cfg.BatchPerDegree = 128
		cfg.EvalEvery = 125
		b := baselines.DefaultTrainConfig(seed)
		b.Steps = 500
		b.BatchPerDegree = 128
		b.EvalEvery = 125
		return settings{
			data:    wasmcluster.Config{Seed: seed, NumWorkloads: 30, MaxDevices: 5, SetsPerDegree: 15},
			fracs:   []float64{0.3, 0.7},
			epsGrid: []float64{0.1, 0.05},
			reps:    2,
			pitot:   cfg,
			base:    b,
			nnHid:   48,
		}
	case FullScale:
		cfg := core.DefaultConfig(seed)
		cfg.Hidden = 128
		cfg.EmbeddingDim = 32
		cfg.Steps = 20000
		cfg.BatchPerDegree = 512
		cfg.LR = 0.001
		cfg.EvalEvery = 200
		b := baselines.DefaultTrainConfig(seed)
		b.Steps = 20000
		b.BatchPerDegree = 512
		b.LR = 0.001
		b.EvalEvery = 200
		return settings{
			data:    wasmcluster.Full(seed),
			fracs:   []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9},
			epsGrid: []float64{0.1, 0.09, 0.08, 0.07, 0.06, 0.05, 0.04, 0.03, 0.02, 0.01},
			reps:    5,
			pitot:   cfg,
			base:    b,
			nnHid:   256,
		}
	default: // Standard
		cfg := core.DefaultConfig(seed)
		cfg.Hidden = 64
		cfg.EmbeddingDim = 32
		cfg.Steps = 2000
		cfg.BatchPerDegree = 256
		cfg.EvalEvery = 200
		b := baselines.DefaultTrainConfig(seed)
		b.Steps = 2000
		b.BatchPerDegree = 256
		b.EvalEvery = 200
		return settings{
			data:    wasmcluster.Config{Seed: seed, NumWorkloads: 80, MaxDevices: 10, SetsPerDegree: 40},
			fracs:   []float64{0.1, 0.3, 0.5, 0.7, 0.9},
			epsGrid: []float64{0.1, 0.08, 0.06, 0.04, 0.02},
			reps:    3,
			pitot:   cfg,
			base:    b,
			nnHid:   128,
		}
	}
}

// datasetFor generates the synthetic dataset for a settings bundle.
func (s settings) dataset() *dataset.Dataset {
	return wasmcluster.New(s.data).Generate()
}

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// pctPair formats "mean ± 2se" percentages.
func pctPair(mean, se2 float64) string {
	return fmt.Sprintf("%.1f%% ± %.1f%%", 100*mean, 100*se2)
}

// meanIsolationSeconds returns the mean isolated runtime per (workload,
// platform) pair, used to convert interference observations to slowdowns.
func meanIsolationSeconds(d *dataset.Dataset) map[[2]int]float64 {
	sums := map[[2]int]float64{}
	counts := map[[2]int]float64{}
	for _, o := range d.Obs {
		if o.Degree() == 0 {
			k := [2]int{o.Workload, o.Platform}
			sums[k] += o.Seconds
			counts[k]++
		}
	}
	out := make(map[[2]int]float64, len(sums))
	for k, s := range sums {
		out[k] = s / counts[k]
	}
	return out
}

// sortedKeys returns map keys in deterministic order.
func sortedKeys[K comparable, V any](m map[K]V, less func(a, b K) bool) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	return keys
}
