// Package core implements Pitot, the paper's contribution: a matrix
// factorization-inspired runtime predictor with a log-residual objective
// (§3.2), two-tower embedding networks over side information (§3.3), an
// interference term modeling arbitrary co-location effects (§3.4), and
// multi-quantile heads for conformalized quantile regression (§3.5).
package core

import "fmt"

// Objective selects the regression target/loss (paper Fig. 4a ablation).
type Objective int

// Objectives.
const (
	// ObjLogResidual minimizes squared error on log-runtime residuals of
	// the linear-scaling baseline (the paper's choice).
	ObjLogResidual Objective = iota
	// ObjLog minimizes squared error on raw log runtimes (no baseline).
	ObjLog
	// ObjProportional is the naive proportional loss: squared relative
	// error in linear space, E[((Ĉ-C*)/C*)²].
	ObjProportional
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case ObjLogResidual:
		return "log-residual"
	case ObjLog:
		return "log"
	case ObjProportional:
		return "proportional"
	}
	return "unknown"
}

// InterferenceMode selects how observations with interference are used
// (paper Fig. 4c ablation).
type InterferenceMode int

// Interference handling modes.
const (
	// InterferenceAware trains the interference term on co-location data
	// (the paper's method).
	InterferenceAware InterferenceMode = iota
	// InterferenceDiscard drops all observations with interference.
	InterferenceDiscard
	// InterferenceIgnore keeps co-location observations but treats them as
	// interference-free, averaging the slowdowns into the base prediction.
	InterferenceIgnore
)

// String names the mode.
func (m InterferenceMode) String() string {
	switch m {
	case InterferenceAware:
		return "aware"
	case InterferenceDiscard:
		return "discard"
	case InterferenceIgnore:
		return "ignore"
	}
	return "unknown"
}

// Config holds Pitot's hyperparameters. Paper defaults (App. B.3, D.2):
// r=32, q=1, s=2, β=0.5, two hidden layers of 128 GELU units, AdaMax with
// lr=0.001, batches of 512 per interference mode, 20,000 steps.
type Config struct {
	Seed int64

	// EmbeddingDim is the factorization rank r.
	EmbeddingDim int
	// LearnedFeatures is q, the per-entity learned feature count appended
	// to side information.
	LearnedFeatures int
	// InterferenceTypes is s, the rank of the interference matrix Fj.
	InterferenceTypes int
	// Hidden is the width of the two hidden layers of each tower.
	Hidden int

	// Quantiles, when non-empty, trains one pinball-loss head per target
	// quantile ξ (§3.5); when empty a single squared-loss head is trained.
	Quantiles []float64

	// Beta weighs the interference objectives: weight 1 for isolation and
	// β/3 for each of the three interference degrees (App. D.2).
	Beta float64

	Objective    Objective
	Interference InterferenceMode

	// UseWorkloadFeatures / UsePlatformFeatures gate the side-information
	// inputs (Fig. 4b ablation); learned features φ are always available.
	UseWorkloadFeatures bool
	UsePlatformFeatures bool

	// UseActivation applies leaky-ReLU (slope ActivationSlope) to summed
	// interference magnitudes (Eq. 9); false reduces to the simple
	// multiplicative model (Fig. 4d ablation).
	UseActivation   bool
	ActivationSlope float64

	// Training schedule.
	Steps          int
	BatchPerDegree int
	LR             float64
	EvalEvery      int // validation cadence for best-checkpoint selection

	// Workers caps the goroutines used for per-(batch, head) loss graphs;
	// 0 means GOMAXPROCS. It governs training only: inference runs on the
	// caller's goroutine. Results are identical for every worker count:
	// gradient accumulation order is fixed.
	Workers int
}

// DefaultConfig returns paper-faithful hyperparameters at a training scale
// suited to CPU execution (fewer steps than the paper's 20,000; the
// experiments harness raises Steps for full runs).
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:                seed,
		EmbeddingDim:        32,
		LearnedFeatures:     1,
		InterferenceTypes:   2,
		Hidden:              64,
		Beta:                0.5,
		Objective:           ObjLogResidual,
		Interference:        InterferenceAware,
		UseWorkloadFeatures: true,
		UsePlatformFeatures: true,
		UseActivation:       true,
		ActivationSlope:     0.1,
		Steps:               2500,
		BatchPerDegree:      256,
		LR:                  0.003,
		EvalEvery:           250,
	}
}

// PaperQuantiles is the spread of target quantiles the paper trains
// (App. B.2), denser near 1 where tightness is most sensitive.
func PaperQuantiles() []float64 {
	return []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98, 0.99}
}

// NumHeads returns the number of workload-embedding heads (one per target
// quantile, or one for the mean model).
func (c Config) NumHeads() int {
	if len(c.Quantiles) == 0 {
		return 1
	}
	return len(c.Quantiles)
}

// Validate checks configuration consistency.
func (c Config) Validate() error {
	if c.EmbeddingDim <= 0 {
		return fmt.Errorf("core: embedding dim %d", c.EmbeddingDim)
	}
	if c.InterferenceTypes < 0 || c.Hidden <= 0 || c.Steps <= 0 || c.BatchPerDegree <= 0 {
		return fmt.Errorf("core: invalid config %+v", c)
	}
	if c.LearnedFeatures < 0 {
		return fmt.Errorf("core: negative learned features")
	}
	for _, q := range c.Quantiles {
		if q <= 0 || q >= 1 {
			return fmt.Errorf("core: quantile %v out of (0,1)", q)
		}
	}
	if c.Objective == ObjProportional && len(c.Quantiles) > 0 {
		return fmt.Errorf("core: proportional objective does not support quantile heads")
	}
	return nil
}
