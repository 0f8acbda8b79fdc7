// Package pitot is the public API of this repository: a Go implementation
// of Pitot, the interference-aware edge runtime predictor with conformal
// uncertainty bounds from
//
//	"Interference-aware Edge Runtime Prediction with Conformal Matrix
//	Completion" (Huang et al., MLSys 2025, arXiv:2503.06428).
//
// The package wraps the internal building blocks (two-tower matrix
// factorization with side information, log-residual objective,
// interference term, conformalized quantile regression) behind a small
// deployment-oriented surface:
//
//	ds := pitot.GenerateDataset(pitot.DatasetConfig{Seed: 1})
//	pred, _ := pitot.Train(ds, pitot.Options{Seed: 1, EnableBounds: true})
//	sec := pred.Estimate(workload, platform, interferers)
//	bound, _ := pred.Bound(workload, platform, interferers, 0.05)
//
// Estimate returns the expected runtime; Bound returns a runtime budget
// sufficient with probability ≥ 1−ε, guaranteed by split conformal
// calibration.
//
// A Predictor is safe for concurrent use by any number of goroutines: all
// read state lives in an immutable snapshot behind an atomic pointer, so
// Estimate/EstimateBatch/Bound/BoundBatch are lock-free, and Observe
// fine-tunes a private copy of the model before publishing a new snapshot
// (readers never see a half-updated model).
//
// The predictor also backs the failure-aware orchestration stack
// (internal/sched, internal/serve): ScoreSecondsBatch is the scheduler's
// one scoring call — the mean head, the bound head, or both from one
// snapshot, as the placement policy asks — and ScoreEpoch and ObserveSeconds
// complete its predictor and feedback surfaces, so placement scores
// candidate platforms — skipping failed ones and padding degraded ones —
// directly against the live model snapshot. See DESIGN.md for the
// snapshot and failure-model architecture; cmd/experiments regenerates the
// paper's tables and figures.
package pitot

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/conformal"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/sched"
	"repro/internal/wasmcluster"
)

// Dataset is a collection of runtime observations with entity metadata and
// side-information features.
type Dataset = dataset.Dataset

// Observation is one measured (workload, platform, interference) runtime.
type Observation = dataset.Observation

// DatasetConfig controls synthetic dataset generation (the substitute for
// the paper's physical WebAssembly cluster; see DESIGN.md).
type DatasetConfig = wasmcluster.Config

// GenerateDataset produces a synthetic runtime dataset with the paper's
// structure: heterogeneous platforms, suite-structured workloads, opcode
// and platform features, and 2/3/4-way interference observations.
func GenerateDataset(cfg DatasetConfig) *Dataset {
	return wasmcluster.New(cfg).Generate()
}

// ReadDataset deserializes a dataset written by Dataset.WriteJSON.
func ReadDataset(r io.Reader) (*Dataset, error) { return dataset.ReadJSON(r) }

// ModelConfig exposes the full hyperparameter surface of the core model.
type ModelConfig = core.Config

// DefaultModelConfig returns paper-faithful hyperparameters.
func DefaultModelConfig(seed int64) ModelConfig { return core.DefaultConfig(seed) }

// Options configures Train.
type Options struct {
	// Seed drives all randomness (splits, initialization, batching).
	Seed int64
	// Model overrides the model configuration; zero value = defaults.
	Model *ModelConfig
	// EnableBounds additionally trains the multi-quantile model required
	// by Bound; Estimate works either way.
	EnableBounds bool
	// HoldoutFraction is the share of observations reserved for validation
	// and conformal calibration (default 0.2, split evenly).
	HoldoutFraction float64
}

// snapshot is one immutable published state of a Predictor: the dataset
// view, the trained models with their embedding caches, the holdout split
// used for calibration, and the per-eps conformal bounder cache. Once a
// snapshot is published via Predictor.snap nothing in it is mutated — the
// only "write" is the copy-on-write insertion of freshly calibrated
// bounders, which swaps an immutable map for an extended copy, up to
// maxCalibrations entries.
type snapshot struct {
	ds      *dataset.Dataset
	mean    *core.Model
	quant   *core.Model // nil unless Options.EnableBounds
	split   dataset.Split
	version uint64

	// bounders holds the per-eps conformal calibrations for this snapshot.
	// Reads are a single atomic load; a cache miss calibrates off to the
	// side and publishes old∪{eps} with a compare-and-swap while the map
	// holds fewer than maxCalibrations. Losing the race costs a redundant
	// (idempotent) calibration, never correctness.
	bounders atomic.Pointer[map[float64]*calibration]
}

func newSnapshot(ds *dataset.Dataset, mean, quant *core.Model, split dataset.Split, version uint64) *snapshot {
	s := &snapshot{ds: ds, mean: mean, quant: quant, split: split, version: version}
	empty := map[float64]*calibration{}
	s.bounders.Store(&empty)
	return s
}

// calibration is one eps's conformal bounder with its offsets laid out by
// interference degree, so that scoring reads a query's offset by index
// instead of looking its pool up in the bounder's map. Immutable once
// built, like the bounder.
type calibration struct {
	*conformal.Bounder
	byDegree []float64
}

func newCalibration(b *conformal.Bounder) *calibration {
	n := 0
	for d := range b.Offsets {
		n = max(n, d+1)
	}
	c := &calibration{Bounder: b, byDegree: make([]float64, n)}
	for d := range c.byDegree {
		off, ok := b.Offsets[d]
		if !ok {
			off = b.MaxOffset
		}
		c.byDegree[d] = off
	}
	return c
}

// offset is the conformal offset Bounder.Bound adds for a query with
// degree interferers: its pool's, or MaxOffset for a pool never
// calibrated.
func (c *calibration) offset(degree int) float64 {
	if uint(degree) < uint(len(c.byDegree)) {
		return c.byDegree[degree]
	}
	return c.MaxOffset
}

// maxCalibrations caps the calibrations one snapshot caches. /bound
// takes any eps in (0, 1), so without a cap a caller sending distinct
// values would grow the cache, and the map each insert copies, until the
// next Observe. An eps beyond the cap is calibrated for its call alone.
const maxCalibrations = 8

// bounder returns the conformal calibration for eps, calibrating it on
// first use and caching it while the snapshot holds fewer than
// maxCalibrations. Lock-free: concurrent callers with the same fresh eps
// may both calibrate, but at most one result is published and
// calibration is deterministic, so both callers return equivalent
// bounders.
func (s *snapshot) bounder(eps float64) (*calibration, error) {
	if b, ok := (*s.bounders.Load())[eps]; ok {
		return b, nil
	}
	// Refuse an eps Calibrate would refuse (NaN fails the negated form)
	// before paying for the head predictions.
	if !(eps > 0 && eps < 1) {
		return nil, fmt.Errorf("pitot: eps %v out of (0,1)", eps)
	}
	// Calibrate once, off to the side; the retry loop below only re-merges
	// the result if another eps was published concurrently.
	hp := eval.BuildHeadPredictions(s.ds, eval.PitotTrained(s.quant), s.split)
	cb, err := conformal.Calibrate(hp, eps, conformal.SelectOptimal)
	if err != nil {
		return nil, err
	}
	b := newCalibration(cb)
	for {
		cur := s.bounders.Load()
		if published, ok := (*cur)[eps]; ok {
			// A racing caller published this eps first; converge on the
			// single published instance.
			return published, nil
		}
		if len(*cur) >= maxCalibrations {
			return b, nil
		}
		next := make(map[float64]*calibration, len(*cur)+1)
		for k, v := range *cur {
			next[k] = v
		}
		next[eps] = b
		if s.bounders.CompareAndSwap(cur, &next) {
			return b, nil
		}
	}
}

// Predictor is a trained Pitot model ready for estimation and bounding.
//
// A Predictor must be obtained from Train or LoadPredictor. It is safe for
// concurrent use: Estimate, EstimateBatch, Bound, BoundBatch, and the
// embedding accessors are lock-free reads of the current snapshot, while
// Observe (the only writer) prepares a new snapshot privately and publishes
// it with one atomic pointer swap. Readers that started on the previous
// snapshot finish on it — predictions are snapshot-consistent, never torn.
type Predictor struct {
	snap atomic.Pointer[snapshot]
	mu   sync.Mutex // serializes writers (Observe); readers never take it
}

func newPredictor(s *snapshot) *Predictor {
	p := &Predictor{}
	p.snap.Store(s)
	return p
}

// Train fits Pitot on the dataset. All observations are used: 80% (by
// default) for fitting and the rest for validation and calibration. The
// dataset is owned by the returned Predictor and must not be mutated by
// the caller afterwards.
func Train(ds *Dataset, opts Options) (*Predictor, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	hold := opts.HoldoutFraction
	if hold == 0 {
		hold = 0.2
	}
	if hold <= 0 || hold >= 1 {
		return nil, fmt.Errorf("pitot: holdout fraction %v out of (0,1)", hold)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	perm := rng.Perm(len(ds.Obs))
	nHold := int(hold * float64(len(ds.Obs)))
	nVal := nHold / 2
	split := dataset.Split{
		Val:   perm[:nVal],
		Cal:   perm[nVal:nHold],
		Train: perm[nHold:],
	}

	cfg := core.DefaultConfig(opts.Seed)
	if opts.Model != nil {
		cfg = *opts.Model
		cfg.Seed = opts.Seed
	}
	cfg.Quantiles = nil
	mean, err := core.NewModel(cfg, ds)
	if err != nil {
		return nil, err
	}
	if _, err := mean.Train(split); err != nil {
		return nil, err
	}

	var quant *core.Model
	if opts.EnableBounds {
		qcfg := cfg
		qcfg.Quantiles = core.PaperQuantiles()
		qcfg.Seed = opts.Seed + 1
		quant, err = core.NewModel(qcfg, ds)
		if err != nil {
			return nil, err
		}
		if _, err := quant.Train(split); err != nil {
			return nil, err
		}
	}
	return newPredictor(newSnapshot(ds, mean, quant, split, 0)), nil
}

// Estimate returns the predicted runtime in seconds of workload w on
// platform pl while the interferers run simultaneously (nil for isolation).
// Lock-free and safe from any number of goroutines.
func (p *Predictor) Estimate(w, pl int, interferers []int) float64 {
	return p.snap.Load().mean.PredictSeconds(w, pl, interferers, 0)
}

// Query identifies one (workload, platform, interferers) prediction for
// EstimateBatch and BoundBatch.
type Query = core.Query

// EstimateBatch returns the predicted runtime in seconds for every query.
// It vectorizes over the cached embedding tables: queries sharing a
// (platform, interferer set) — the shape of a scheduler scanning candidate
// workloads per platform — amortize the interference term into a single
// effective platform vector. Several times faster than looping Estimate;
// up to ~10^-12 relative floating-point reassociation difference per
// prediction. The whole batch is served from one snapshot, on the
// caller's goroutine.
func (p *Predictor) EstimateBatch(qs []Query) []float64 {
	out := make([]float64, len(qs))
	p.snap.Load().mean.PredictSecondsBatch(qs, 0, out)
	return out
}

// BoundBatch returns, for every query, a runtime budget in seconds that is
// sufficient with probability at least 1−eps — Bound vectorized the same
// way as EstimateBatch, with the conformal calibration shared across the
// whole batch. Requires Options.EnableBounds at training time.
func (p *Predictor) BoundBatch(qs []Query, eps float64) ([]float64, error) {
	out := make([]float64, len(qs))
	if err := p.snap.Load().boundInto(qs, eps, out); err != nil {
		return nil, err
	}
	return out, nil
}

// boundInto is BoundBatch into a caller-owned buffer.
func (s *snapshot) boundInto(qs []Query, eps float64, out []float64) error {
	if s.quant == nil {
		return fmt.Errorf("pitot: bounds not enabled; train with Options.EnableBounds")
	}
	b, err := s.bounder(eps)
	if err != nil {
		return err
	}
	s.quant.PredictLogSecondsBatch(qs, b.Head, out)
	for i := range out {
		out[i] = math.Exp(out[i] + b.offset(len(qs[i].Interferers)))
	}
	return nil
}

// Bound returns a runtime budget in seconds that is sufficient with
// probability at least 1−eps (paper Eq. 10), using conformalized quantile
// regression with per-degree calibration pools and optimal head selection.
// Requires Options.EnableBounds at training time. A +Inf result means the
// calibration set is too small for the requested eps. Lock-free: the
// per-eps calibration is cached per snapshot with a copy-on-write swap,
// for up to maxCalibrations distinct eps values.
func (p *Predictor) Bound(w, pl int, interferers []int, eps float64) (float64, error) {
	s := p.snap.Load()
	if s.quant == nil {
		return 0, fmt.Errorf("pitot: bounds not enabled; train with Options.EnableBounds")
	}
	b, err := s.bounder(eps)
	if err != nil {
		return 0, err
	}
	pred := s.quant.PredictLogSeconds(w, pl, interferers, b.Head)
	return math.Exp(pred + b.offset(len(interferers))), nil
}

// Info describes the currently published snapshot of a Predictor.
type Info struct {
	// Version counts published snapshots, starting at 0 for the trained or
	// loaded state; every successful Observe increments it. Readers can use
	// it to detect model updates (it is monotonically non-decreasing).
	Version uint64
	// Observations is the dataset size of the snapshot.
	Observations int
	Workloads    int
	Platforms    int
	// Bounds reports whether the quantile model is present (Bound works).
	Bounds bool
}

// Info returns metadata about the currently published snapshot. Lock-free.
func (p *Predictor) Info() Info {
	s := p.snap.Load()
	return Info{
		Version:      s.version,
		Observations: len(s.ds.Obs),
		Workloads:    s.ds.NumWorkloads(),
		Platforms:    s.ds.NumPlatforms(),
		Bounds:       s.quant != nil,
	}
}

// Version returns the published snapshot version (see Info.Version).
func (p *Predictor) Version() uint64 { return p.snap.Load().version }

// ScoreEpoch returns an opaque value that changes whenever the predictor
// would score the same query differently (sched.Predictor): the snapshot
// version, which every publish increments, so the epoch never returns to
// an earlier value. Lock-free.
func (p *Predictor) ScoreEpoch() uint64 { return p.snap.Load().version }

// WorkloadEmbeddings returns the learned per-workload embedding vectors
// (rows aligned with Dataset.WorkloadNames), usable for clustering or
// anomaly detection (paper §5.4).
func (p *Predictor) WorkloadEmbeddings() [][]float64 {
	m := p.snap.Load().mean.WorkloadEmbeddings(0)
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = append([]float64(nil), m.Row(i)...)
	}
	return out
}

// PlatformEmbeddings returns the learned per-platform embedding vectors.
func (p *Predictor) PlatformEmbeddings() [][]float64 {
	m := p.snap.Load().mean.PlatformEmbeddings()
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = append([]float64(nil), m.Row(i)...)
	}
	return out
}

// InterferenceNorm returns ‖F_j‖₂ for a platform: how strongly workloads
// can interfere there (paper Fig. 12d).
func (p *Predictor) InterferenceNorm(platform int) float64 {
	return p.snap.Load().mean.InterferenceNorm(platform)
}

// The facade is the orchestration engine's predictor and its
// online-feedback sink.
var (
	_ sched.Predictor = (*Predictor)(nil)
	_ sched.Observer  = (*Predictor)(nil)
)

// ScoreSecondsBatch is the orchestration engine's scoring call
// (sched.Predictor): meanOut[i] gets the expected runtime and boundOut[i]
// the (1−eps) budget of qs[i], both from the one snapshot the call loads;
// a nil buffer skips its head. Each head runs exactly EstimateBatch's or
// BoundBatch's code into the caller's buffer. A bound error (bounds not
// enabled, a calibration failure for eps) sets every bound to +Inf, the
// scheduler's infeasibility convention; the means are filled either way.
func (p *Predictor) ScoreSecondsBatch(qs []Query, eps float64, meanOut, boundOut []float64) {
	s := p.snap.Load()
	if meanOut != nil {
		s.mean.PredictSecondsBatch(qs, 0, meanOut)
	}
	if boundOut != nil && s.boundInto(qs, eps, boundOut) != nil {
		for i := range boundOut {
			boundOut[i] = math.Inf(1)
		}
	}
}

// ObserveSeconds is the orchestration feedback bridge: measured runtimes
// reported by the simulator or a live orchestrator (sched.Measurement) are
// converted to dataset observations and absorbed via Observe, fine-tuning
// the models and folding the measurements into the conformal calibration
// pool of the next snapshot. An empty slice is a no-op returning nil, so
// timer-driven feedback flushes that fire with nothing buffered don't
// surface spurious failures. Implements sched.Observer.
func (p *Predictor) ObserveSeconds(ms []sched.Measurement) error {
	if len(ms) == 0 {
		return nil
	}
	obs := make([]Observation, len(ms))
	for i, m := range ms {
		obs[i] = Observation{
			Workload:    m.Workload,
			Platform:    m.Platform,
			Interferers: m.Interferers,
			Seconds:     m.Seconds,
		}
	}
	return p.Observe(obs)
}

// Observe incorporates freshly measured observations into the predictor —
// the paper's "efficient online learning" future-work extension (§6). New
// measurements are appended to a private copy of the dataset and the models
// are fine-tuned on clones (with replay of the original training data to
// prevent forgetting); the result is published as a new snapshot with one
// atomic swap, so concurrent readers are never blocked and never see a
// half-updated model — they serve the previous snapshot until the swap.
// The new snapshot's conformal calibrations start empty and are recomputed
// lazily (now folding the new observations into the calibration pool) on
// the next Bound call.
//
// Concurrent Observe calls are serialized; each incorporates the
// observations of all previously returned calls.
func (p *Predictor) Observe(obs []Observation) error {
	if len(obs) == 0 {
		return fmt.Errorf("pitot: no observations")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	cur := p.snap.Load()

	ds := cur.ds.CloneAppend(obs)
	if err := ds.Validate(); err != nil {
		return err
	}
	start := len(cur.ds.Obs)
	newIdx := make([]int, len(obs))
	for i := range newIdx {
		newIdx[i] = start + i
	}

	mean, err := cur.mean.Clone(ds)
	if err != nil {
		return err
	}
	if err := mean.OnlineUpdate(newIdx, cur.split.Train, core.OnlineConfig{Seed: int64(start)}); err != nil {
		return err
	}
	var quant *core.Model
	if cur.quant != nil {
		quant, err = cur.quant.Clone(ds)
		if err != nil {
			return err
		}
		if err := quant.OnlineUpdate(newIdx, cur.split.Train, core.OnlineConfig{Seed: int64(start) + 1}); err != nil {
			return err
		}
	}

	// Fold the new observations into the calibration pool of the new
	// snapshot; Train/Val/Test index the shared prefix and are reused.
	split := dataset.Split{
		Train: cur.split.Train,
		Val:   cur.split.Val,
		Test:  cur.split.Test,
	}
	split.Cal = make([]int, 0, len(cur.split.Cal)+len(newIdx))
	split.Cal = append(split.Cal, cur.split.Cal...)
	split.Cal = append(split.Cal, newIdx...)

	p.snap.Store(newSnapshot(ds, mean, quant, split, cur.version+1))
	return nil
}

// predictorMagic identifies SaveModel's mean stream. Gob ignores unknown
// fields, so without it a raw core model stream (cmd/train's format) would
// silently decode into an empty predictorFile; the magic turns that
// cross-format mistake into a clear error.
const predictorMagic = "pitot/predictor-v1"

// predictorFile is the on-disk form of SaveModel's mean stream: the core
// model bytes plus the holdout split, which LoadPredictor needs to
// re-calibrate conformal bounders identically to the saved predictor.
type predictorFile struct {
	Magic string
	Split dataset.Split
	Mean  []byte
}

// SaveModel persists the predictor: the mean stream carries the mean model
// together with the holdout split (so bounders recalibrate identically on
// load); the quantile model, if present and quantW is non-nil, is written
// to quantW in the plain core format. The pair is read back with
// LoadPredictor against the dataset the predictor was trained on.
//
// If Observe has been called, the snapshot's dataset has grown past the
// caller's copy and the persisted split references the grown dataset — use
// Export instead, which also writes the dataset, or the load will fail.
// The write is snapshot-consistent under concurrent Observe.
func (p *Predictor) SaveModel(meanW, quantW io.Writer) error {
	return saveSnapshot(p.snap.Load(), meanW, quantW)
}

// Export persists the predictor's full serving state — dataset (in the
// WriteJSON wire format), mean stream, and quantile model — all taken from
// one snapshot, so the three artifacts are mutually consistent even under
// concurrent Observe. Restore with ReadDataset + LoadPredictor. This is
// the save path for a serving daemon that has accepted /observe traffic.
func (p *Predictor) Export(dataW, meanW, quantW io.Writer) error {
	s := p.snap.Load()
	if err := s.ds.WriteJSON(dataW); err != nil {
		return err
	}
	return saveSnapshot(s, meanW, quantW)
}

func saveSnapshot(s *snapshot, meanW, quantW io.Writer) error {
	var buf bytes.Buffer
	if err := s.mean.Save(&buf); err != nil {
		return err
	}
	pf := predictorFile{Magic: predictorMagic, Split: s.split, Mean: buf.Bytes()}
	if err := gob.NewEncoder(meanW).Encode(&pf); err != nil {
		return fmt.Errorf("pitot: encode predictor: %w", err)
	}
	if s.quant != nil && quantW != nil {
		return s.quant.Save(quantW)
	}
	return nil
}

// LoadPredictor rebuilds a Predictor from streams written by SaveModel and
// the dataset it was trained on (e.g. from ReadDataset). quantR may be nil
// for a predictor saved without bounds. The loaded predictor's Estimate and
// Bound outputs are bitwise identical to the saved one's: parameters and
// the baseline are restored exactly, embedding caches are recomputed
// deterministically, and conformal bounders recalibrate from the persisted
// split. The dataset is owned by the returned Predictor and must not be
// mutated by the caller afterwards.
func LoadPredictor(ds *Dataset, meanR, quantR io.Reader) (*Predictor, error) {
	if ds == nil {
		return nil, fmt.Errorf("pitot: nil dataset")
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	var pf predictorFile
	if err := gob.NewDecoder(meanR).Decode(&pf); err != nil {
		return nil, fmt.Errorf("pitot: decode predictor: %w", err)
	}
	if pf.Magic != predictorMagic {
		return nil, fmt.Errorf("pitot: mean stream is not a predictor written by SaveModel/Export "+
			"(magic %q; raw core model files from cmd/train are a different format)", pf.Magic)
	}
	for _, idx := range [][]int{pf.Split.Train, pf.Split.Val, pf.Split.Cal, pf.Split.Test} {
		for _, i := range idx {
			if i < 0 || i >= len(ds.Obs) {
				return nil, fmt.Errorf("pitot: split index %d out of range for %d observations "+
					"(was the predictor saved after Observe? persist the grown dataset with Export)", i, len(ds.Obs))
			}
		}
	}
	mean, err := core.Load(bytes.NewReader(pf.Mean), ds)
	if err != nil {
		return nil, err
	}
	var quant *core.Model
	if quantR != nil {
		quant, err = core.Load(quantR, ds)
		if err != nil {
			return nil, err
		}
	}
	return newPredictor(newSnapshot(ds, mean, quant, pf.Split, 0)), nil
}
