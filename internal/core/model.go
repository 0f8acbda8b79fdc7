package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"repro/internal/autodiff"
	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Model is the trained (or trainable) Pitot predictor.
//
// Architecture (paper Fig. 2): two embedding towers fw, fp map side
// information concatenated with learned features φ to embeddings. The
// workload tower emits one rank-r embedding per head (one head per target
// quantile); the platform tower emits the platform embedding p plus the
// interference susceptibility/magnitude directions v_s, v_g for each of the
// s interference types.
type Model struct {
	Cfg      Config
	Baseline *LinearBaseline

	data *dataset.Dataset

	fw, fp     *nn.MLP
	phiW, phiP *nn.Embedding // extra learned features (q per entity)

	params []*autodiff.Value

	// Standardized (z-scored) copies of the side-information matrices;
	// raw opcode log-counts span tens of log units and would saturate the
	// towers otherwise.
	xw, xp *tensor.Matrix

	// Inference-time embedding caches, refreshed by SyncEmbeddings.
	wEmb *tensor.Matrix // Nw x r*H
	pEmb *tensor.Matrix // Np x r*(1+2s)
	// The dot products of the residual that depend only on these caches,
	// refreshed with them; nil above maxTableBytes.
	tables *interferenceTables

	// Cached constant tower inputs, valid when a tower has no learned
	// features (the input then never changes across steps).
	wInConst, pInConst *autodiff.Value
}

// standardize z-scores each column; constant columns become zero. The
// variance uses the two-pass formula Σ(x−mean)² rather than E[x²]−E[x]²,
// which cancels catastrophically for large-mean columns (such as raw
// opcode log-counts).
func standardize(m *tensor.Matrix) *tensor.Matrix {
	out := m.Clone()
	n := float64(m.Rows)
	for j := 0; j < m.Cols; j++ {
		var sum float64
		for i := 0; i < m.Rows; i++ {
			sum += m.At(i, j)
		}
		mean := sum / n
		var sumSq float64
		for i := 0; i < m.Rows; i++ {
			d := m.At(i, j) - mean
			sumSq += d * d
		}
		variance := sumSq / n
		if variance < 1e-12 {
			for i := 0; i < m.Rows; i++ {
				out.Set(i, j, 0)
			}
			continue
		}
		inv := 1 / math.Sqrt(variance)
		for i := 0; i < m.Rows; i++ {
			out.Set(i, j, (m.At(i, j)-mean)*inv)
		}
	}
	return out
}

// layout is the parameter geometry a config implies over a dataset.
// NewModel allocates from it, and Load checks a file's declared shapes
// against it before allocating anything.
type layout struct {
	wTower, pTower []int    // layer widths: input, hidden, hidden, output
	shapes         [][2]int // every parameter's (rows, cols), in Params order
}

// newLayout validates cfg against d and derives the towers' widths and
// the parameter shapes. A config can arrive from a file (Load), so every
// width and element count is checked to fit in an int.
func newLayout(cfg Config, d *dataset.Dataset) (layout, error) {
	if err := cfg.Validate(); err != nil {
		return layout{}, err
	}
	if !cfg.UseWorkloadFeatures && !cfg.UsePlatformFeatures && cfg.LearnedFeatures == 0 {
		return layout{}, fmt.Errorf("core: model needs features or learned features")
	}
	// The dataset can arrive from the wire (LoadPredictor); a missing
	// feature matrix must be an error, not a panic in standardize.
	if cfg.UseWorkloadFeatures && d.WorkloadFeatures == nil {
		return layout{}, fmt.Errorf("core: config requires workload features but dataset has none")
	}
	if cfg.UsePlatformFeatures && d.PlatformFeatures == nil {
		return layout{}, fmt.Errorf("core: config requires platform features but dataset has none")
	}
	dw, dp := 0, 0
	if cfg.UseWorkloadFeatures {
		dw = d.WorkloadFeatures.Cols
	}
	if cfg.UsePlatformFeatures {
		dp = d.PlatformFeatures.Cols
	}
	r, s, h, q := cfg.EmbeddingDim, cfg.InterferenceTypes, cfg.NumHeads(), cfg.LearnedFeatures
	if q > math.MaxInt-max(dw, dp) || s > (math.MaxInt-1)/2 || !fitsInt(r, h) || !fitsInt(r, 1+2*s) {
		return layout{}, fmt.Errorf("core: config widths overflow: rank %d, %d heads, %d interference types, %d learned features",
			r, h, s, q)
	}
	l := layout{
		wTower: []int{dw + q, cfg.Hidden, cfg.Hidden, r * h},
		pTower: []int{dp + q, cfg.Hidden, cfg.Hidden, r * (1 + 2*s)},
	}
	l.shapes = append(nn.MLPShapes(l.wTower...), nn.MLPShapes(l.pTower...)...)
	if q > 0 {
		l.shapes = append(l.shapes, [2]int{d.NumWorkloads(), q}, [2]int{d.NumPlatforms(), q})
	}
	for _, sh := range l.shapes {
		if !fitsInt(sh[0], sh[1]) {
			return layout{}, fmt.Errorf("core: config implies a %dx%d parameter", sh[0], sh[1])
		}
	}
	return l, nil
}

// fitsInt reports whether a·b, for a, b ≥ 0, fits in an int.
func fitsInt(a, b int) bool {
	return a == 0 || b <= math.MaxInt/a
}

// NewModel builds an untrained model for the dataset.
func NewModel(cfg Config, d *dataset.Dataset) (*Model, error) {
	l, err := newLayout(cfg, d)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg, data: d}
	if cfg.UseWorkloadFeatures {
		m.xw = standardize(d.WorkloadFeatures)
	}
	if cfg.UsePlatformFeatures {
		m.xp = standardize(d.PlatformFeatures)
	}
	m.fw = nn.NewMLP(rng, nn.ActGELU, l.wTower...)
	m.fp = nn.NewMLP(rng, nn.ActGELU, l.pTower...)
	m.params = append(m.params, m.fw.Params()...)
	m.params = append(m.params, m.fp.Params()...)
	if cfg.LearnedFeatures > 0 {
		m.phiW = nn.NewEmbedding(rng, d.NumWorkloads(), cfg.LearnedFeatures, 0.1)
		m.phiP = nn.NewEmbedding(rng, d.NumPlatforms(), cfg.LearnedFeatures, 0.1)
		m.params = append(m.params, m.phiW.Params()...)
		m.params = append(m.params, m.phiP.Params()...)
	}
	if m.phiW == nil && m.xw != nil {
		m.wInConst = autodiff.NewConst(m.xw)
	}
	if m.phiP == nil && m.xp != nil {
		m.pInConst = autodiff.NewConst(m.xp)
	}
	return m, nil
}

// workers returns the goroutine fan-out for parallel loss tasks.
func (m *Model) workers() int {
	if m.Cfg.Workers > 0 {
		return m.Cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// NumParams returns the number of scalar trainable parameters.
func (m *Model) NumParams() int { return nn.NumParams(m.params) }

// Params exposes the trainable parameters (for the optimizer and tests).
func (m *Model) Params() []*autodiff.Value { return m.params }

// Dataset returns the dataset the model was built for.
func (m *Model) Dataset() *dataset.Dataset { return m.data }

// towerInput assembles [features | φ] for one tower. Either part may be
// absent depending on the configuration. With learned features the concat
// is a single fused op (the old per-step identity gather over the φ table
// is elided); without them the cached constant is reused across steps.
func towerInput(feats *tensor.Matrix, phi *nn.Embedding, cached *autodiff.Value) *autodiff.Value {
	if phi == nil {
		return cached
	}
	if feats == nil {
		return phi.Table
	}
	return autodiff.ConcatConstCols(feats, phi.Table)
}

// embeddings runs both towers over every workload and platform. Computing
// all embeddings each step and gathering the needed rows matches the
// paper's implementation strategy (App. B.3) — the tables are small
// relative to the batch.
func (m *Model) embeddings() (w, p *autodiff.Value) {
	xw := towerInput(m.xw, m.phiW, m.wInConst)
	xp := towerInput(m.xp, m.phiP, m.pInConst)
	return m.fw.Forward(xw), m.fp.Forward(xp)
}

// embeddingsInfer computes both towers' outputs without building a tape:
// no Value graph, no gradient buffers. The returned matrices are
// pool-backed and owned by the caller (release with tensor.PutPooled).
func (m *Model) embeddingsInfer() (w, p *tensor.Matrix) {
	return m.towerInfer(m.fw, m.xw, m.phiW), m.towerInfer(m.fp, m.xp, m.phiP)
}

func (m *Model) towerInfer(f *nn.MLP, feats *tensor.Matrix, phi *nn.Embedding) *tensor.Matrix {
	cat, x := m.towerInput2(feats, phi)
	if cat != nil {
		defer tensor.PutPooled(cat)
	}
	return f.Infer(x)
}

// towerInferInto is towerInfer writing into a caller-reused output buffer
// (see nn.MLP.InferInto). The [features | φ] concat scratch comes from the
// size-classed tensor pool, so consecutive tower syncs — including the
// mean and quantile models' towers inside one Observe, whose concat shapes
// match — recycle one backing buffer instead of allocating per tower.
func (m *Model) towerInferInto(dst *tensor.Matrix, f *nn.MLP, feats *tensor.Matrix, phi *nn.Embedding) *tensor.Matrix {
	cat, x := m.towerInput2(feats, phi)
	if cat != nil {
		defer tensor.PutPooled(cat)
	}
	return f.InferInto(dst, x)
}

// towerInput2 assembles the tape-free tower input [features | φ]; cat is
// non-nil (pool-backed, owned by the caller) only when a concat was needed.
func (m *Model) towerInput2(feats *tensor.Matrix, phi *nn.Embedding) (cat, x *tensor.Matrix) {
	x = feats
	if phi != nil {
		t := phi.Table.Data
		if feats == nil {
			x = t
		} else {
			cat = tensor.GetPooledUncleared(feats.Rows, feats.Cols+t.Cols)
			tensor.ConcatColsInto(cat, feats, t)
			x = cat
		}
	}
	return cat, x
}

// batch describes one fixed-degree minibatch: parallel index slices into
// the entity tables.
type batch struct {
	degree int
	wi, pj []int   // workload / platform per sample
	ks     [][]int // ks[m][b]: m-th interferer of sample b (len = degree)
	target []float64
}

// makeBatch converts observation indices (all of the same degree) into a
// batch with regression targets under the model's objective. When
// stripInterference is true (InterferenceIgnore), interferer indices are
// dropped so the model treats the samples as isolation runs.
func (m *Model) makeBatch(obsIdx []int, stripInterference bool) batch {
	var bt batch
	if len(obsIdx) == 0 {
		return bt
	}
	deg := m.data.Obs[obsIdx[0]].Degree()
	if stripInterference {
		deg = 0
	}
	bt.degree = deg
	bt.ks = make([][]int, deg)
	for mi := range bt.ks {
		bt.ks[mi] = make([]int, 0, len(obsIdx))
	}
	for _, oi := range obsIdx {
		o := m.data.Obs[oi]
		if !stripInterference && o.Degree() != bt.degree {
			panic("core: mixed degrees in batch")
		}
		bt.wi = append(bt.wi, o.Workload)
		bt.pj = append(bt.pj, o.Platform)
		for mi := 0; mi < deg; mi++ {
			bt.ks[mi] = append(bt.ks[mi], o.Interferers[mi])
		}
		bt.target = append(bt.target, residualTarget(m.Cfg.Objective, m.Baseline, o))
	}
	return bt
}

// predictBatch builds the prediction graph for one batch and one head
// (paper Eq. 9):
//
//	ŷ = wᵢᵀpⱼ + Σ_t (wᵢᵀ v_s⁽ᵗ⁾) · α( Σ_k w_kᵀ v_g⁽ᵗ⁾ )
//
// returning a B x 1 Value of residual predictions. The head's rank-r block
// starts at column lo of w: h·r in a full workload-tower output, 0 in a
// stub of the head's columns. p needs only its first r columns unless
// usesInterference(bt). Embedding lookups use the fused GatherCols (no
// full-width row copies for multi-head tables) and the inner products use
// the fused RowDot (no B x r intermediates).
func (m *Model) predictBatch(w, p *autodiff.Value, bt batch, lo int) *autodiff.Value {
	r, s := m.Cfg.EmbeddingDim, m.Cfg.InterferenceTypes
	hi := lo + r
	wi := autodiff.GatherCols(w, bt.wi, lo, hi)
	pj := autodiff.GatherCols(p, bt.pj, 0, r)
	pred := autodiff.RowDot(wi, pj)

	if m.usesInterference(bt) {
		// Gather interferer embeddings once per slot.
		wks := make([]*autodiff.Value, bt.degree)
		for mi := 0; mi < bt.degree; mi++ {
			wks[mi] = autodiff.GatherCols(w, bt.ks[mi], lo, hi)
		}
		for t := 0; t < s; t++ {
			vs := autodiff.GatherCols(p, bt.pj, r*(1+t), r*(2+t))
			vg := autodiff.GatherCols(p, bt.pj, r*(1+s+t), r*(2+s+t))
			var mag *autodiff.Value
			for mi := 0; mi < bt.degree; mi++ {
				term := autodiff.RowDot(wks[mi], vg)
				if mag == nil {
					mag = term
				} else {
					mag = autodiff.Add(mag, term)
				}
			}
			if m.Cfg.UseActivation {
				mag = autodiff.LeakyReLU(mag, m.Cfg.ActivationSlope)
			}
			sus := autodiff.RowDot(wi, vs)
			pred = autodiff.Add(pred, autodiff.Mul(sus, mag))
		}
	}
	return pred
}

// usesInterference reports whether a batch's predictions read the
// interference terms, and so the platform embeddings past column r.
func (m *Model) usesInterference(bt batch) bool {
	return bt.degree > 0 && m.Cfg.Interference == InterferenceAware && m.Cfg.InterferenceTypes > 0
}

// headLoss builds the loss graph of one batch for a single head h, whose
// block starts at column lo of w (see predictBatch): pinball at the head's
// quantile, or the configured squared loss for the mean model (head 0).
func (m *Model) headLoss(w, p *autodiff.Value, bt batch, h, lo int) *autodiff.Value {
	target := tensor.FromSlice(len(bt.target), 1, bt.target)
	pred := m.predictBatch(w, p, bt, lo)
	if len(m.Cfg.Quantiles) == 0 {
		if m.Cfg.Objective == ObjProportional {
			// Relative squared error: weight each sample by 1/C*².
			wgt := tensor.New(target.Rows, 1)
			for i, c := range bt.target {
				wgt.Data[i] = 1 / (c * c)
			}
			return autodiff.WeightedMSE(pred, target, wgt)
		}
		return autodiff.MSE(pred, target)
	}
	return autodiff.Pinball(pred, target, m.Cfg.Quantiles[h])
}

// batchLoss computes the training loss of one batch across all heads.
// Quantile heads get equal weight (App. B.3).
func (m *Model) batchLoss(w, p *autodiff.Value, bt batch) *autodiff.Value {
	if len(m.Cfg.Quantiles) == 0 {
		return m.headLoss(w, p, bt, 0, 0)
	}
	var total *autodiff.Value
	for h := range m.Cfg.Quantiles {
		l := m.headLoss(w, p, bt, h, h*m.Cfg.EmbeddingDim)
		if total == nil {
			total = l
		} else {
			total = autodiff.Add(total, l)
		}
	}
	return autodiff.Scale(total, 1/float64(len(m.Cfg.Quantiles)))
}

// predictResidualsInto fills dst with head h's residual predictions for
// the batch using plain embedding matrices — the tape-free twin of
// predictBatch, used by validation and batch inference.
func (m *Model) predictResidualsInto(dst []float64, wE, pE *tensor.Matrix, bt batch, h int) {
	r, s := m.Cfg.EmbeddingDim, m.Cfg.InterferenceTypes
	lo, hi := h*r, (h+1)*r
	interference := m.usesInterference(bt)
	for b := range dst {
		wrow := wE.Row(bt.wi[b])[lo:hi]
		prow := pE.Row(bt.pj[b])
		pred := dot(wrow, prow[:r])
		if interference {
			for t := 0; t < s; t++ {
				vs := prow[r*(1+t) : r*(2+t)]
				vg := prow[r*(1+s+t) : r*(2+s+t)]
				var mag float64
				for mi := 0; mi < bt.degree; mi++ {
					mag += dot(wE.Row(bt.ks[mi][b])[lo:hi], vg)
				}
				if m.Cfg.UseActivation && mag < 0 {
					mag *= m.Cfg.ActivationSlope
				}
				pred += dot(wrow, vs) * mag
			}
		}
		dst[b] = pred
	}
}

// batchLossInfer computes the training loss of one batch across all heads
// without building a tape, mirroring batchLoss.
func (m *Model) batchLossInfer(wE, pE *tensor.Matrix, bt batch) float64 {
	n := len(bt.target)
	if n == 0 {
		return 0
	}
	preds := make([]float64, n)
	if len(m.Cfg.Quantiles) == 0 {
		m.predictResidualsInto(preds, wE, pE, bt, 0)
		var loss float64
		if m.Cfg.Objective == ObjProportional {
			for i, p := range preds {
				c := bt.target[i]
				d := (p - c) / c
				loss += d * d
			}
		} else {
			for i, p := range preds {
				d := p - bt.target[i]
				loss += d * d
			}
		}
		return loss / float64(n)
	}
	var total float64
	for h, xi := range m.Cfg.Quantiles {
		m.predictResidualsInto(preds, wE, pE, bt, h)
		var loss float64
		for i, p := range preds {
			d := bt.target[i] - p
			if d > 0 {
				loss += xi * d
			} else {
				loss += (xi - 1) * d
			}
		}
		total += loss / float64(n)
	}
	return total / float64(len(m.Cfg.Quantiles))
}
