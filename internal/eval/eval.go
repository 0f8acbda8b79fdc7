// Package eval orchestrates the paper's evaluation protocol (§5.1):
// train-fraction sweeps with independent replicates, MAPE reported
// separately for test data with and without interference, and bound
// tightness (overprovisioning margin) across miscoverage rates.
package eval

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// Trained is a fitted model that predicts log runtimes for dataset
// observations. head selects the quantile head (0 for mean models).
type Trained interface {
	PredictLogObs(idx []int, head int) []float64
	NumHeads() int
	Quantiles() []float64
}

// Method couples a name with a training constructor. Fit must be safe for
// concurrent invocation with distinct seeds.
type Method struct {
	Name string
	Fit  func(d *dataset.Dataset, split dataset.Split, seed int64) (Trained, error)
}

// PitotTrained adapts a trained core.Model to the Trained interface:
// head h's predicted log runtimes of dataset observations, from the
// scalar prediction path.
func PitotTrained(m *core.Model) Trained { return pitotTrained{m} }

type pitotTrained struct{ m *core.Model }

func (p pitotTrained) PredictLogObs(idx []int, head int) []float64 {
	d := p.m.Dataset()
	out := make([]float64, len(idx))
	for i, oi := range idx {
		o := d.Obs[oi]
		out[i] = p.m.PredictLogSeconds(o.Workload, o.Platform, o.Interferers, head)
	}
	return out
}

func (p pitotTrained) NumHeads() int        { return p.m.Cfg.NumHeads() }
func (p pitotTrained) Quantiles() []float64 { return p.m.Cfg.Quantiles }

// PitotMethod wraps a core.Config as an eval Method. The config's Seed is
// replaced per replicate.
func PitotMethod(name string, cfg core.Config) Method {
	return Method{Name: name, Fit: func(d *dataset.Dataset, split dataset.Split, seed int64) (Trained, error) {
		c := cfg
		c.Seed = seed
		m, err := core.NewModel(c, d)
		if err != nil {
			return nil, err
		}
		if _, err := m.Train(split); err != nil {
			return nil, err
		}
		return PitotTrained(m), nil
	}}
}

// MFMethod wraps the matrix-factorization baseline.
func MFMethod(name string, cfg baselines.TrainConfig, dim int) Method {
	return Method{Name: name, Fit: func(d *dataset.Dataset, split dataset.Split, seed int64) (Trained, error) {
		c := cfg
		c.Seed = seed
		m := baselines.NewMatrixFactorization(c, dim)
		if err := m.Train(d, split); err != nil {
			return nil, err
		}
		return m, nil
	}}
}

// NNMethod wraps the neural-network baseline.
func NNMethod(name string, cfg baselines.TrainConfig, hidden int) Method {
	return Method{Name: name, Fit: func(d *dataset.Dataset, split dataset.Split, seed int64) (Trained, error) {
		c := cfg
		c.Seed = seed
		m := baselines.NewNeuralNet(c, hidden)
		if err := m.Train(d, split); err != nil {
			return nil, err
		}
		return m, nil
	}}
}

// AttentionMethod wraps the attention baseline.
func AttentionMethod(name string, cfg baselines.TrainConfig, hidden int) Method {
	return Method{Name: name, Fit: func(d *dataset.Dataset, split dataset.Split, seed int64) (Trained, error) {
		c := cfg
		c.Seed = seed
		m := baselines.NewAttention(c, hidden)
		if err := m.Train(d, split); err != nil {
			return nil, err
		}
		return m, nil
	}}
}

// MAPE returns the mean absolute percent error over the given observation
// indices, |Ĉ−C*|/C* averaged (paper §5.1 "Error").
func MAPE(d *dataset.Dataset, idx []int, predLog []float64) float64 {
	if len(idx) == 0 {
		return math.NaN()
	}
	var s float64
	for i, oi := range idx {
		c := d.Obs[oi].Seconds
		s += math.Abs(math.Exp(predLog[i])-c) / c
	}
	return s / float64(len(idx))
}

// SplitByInterference partitions observation indices into isolation and
// interference subsets.
func SplitByInterference(d *dataset.Dataset, idx []int) (iso, interf []int) {
	for _, i := range idx {
		if d.Obs[i].Degree() == 0 {
			iso = append(iso, i)
		} else {
			interf = append(interf, i)
		}
	}
	return
}

// ErrorPoint is one cell of an error sweep: a method at a train fraction,
// summarized over replicates.
type ErrorPoint struct {
	Method     string
	Frac       float64
	MAPEIso    stats.Summary
	MAPEInterf stats.Summary
}

// job is one (method, frac, replicate) training run.
type job struct {
	method  int
	fracIdx int
	rep     int
	seed    int64
}

// SweepError runs the full §5.1 protocol: for every method and train
// fraction, train `reps` replicates (each with its own random split) and
// summarize test MAPE with and without interference. Replicates run in
// parallel across CPU cores.
func SweepError(d *dataset.Dataset, methods []Method, fracs []float64, reps int, seed int64) ([]ErrorPoint, error) {
	type cell struct{ iso, interf []float64 }
	cells := make([][]cell, len(methods))
	for m := range cells {
		cells[m] = make([]cell, len(fracs))
	}
	var jobs []job
	for m := range methods {
		for f := range fracs {
			for r := 0; r < reps; r++ {
				jobs = append(jobs, job{m, f, r, seed + int64(1000*m+100*f+r)})
			}
		}
	}
	var mu sync.Mutex
	var firstErr error
	runJobs(len(jobs), func(ji int) {
		j := jobs[ji]
		rng := rand.New(rand.NewSource(j.seed))
		split := dataset.NewSplit(rng, len(d.Obs), fracs[j.fracIdx])
		split.EnsureCoverage(d)
		tr, err := methods[j.method].Fit(d, split, j.seed)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("eval: %s frac %.2f rep %d: %w",
					methods[j.method].Name, fracs[j.fracIdx], j.rep, err)
			}
			mu.Unlock()
			return
		}
		iso, interf := SplitByInterference(d, split.Test)
		eIso := MAPE(d, iso, tr.PredictLogObs(iso, 0))
		eInt := MAPE(d, interf, tr.PredictLogObs(interf, 0))
		mu.Lock()
		c := &cells[j.method][j.fracIdx]
		c.iso = append(c.iso, eIso)
		c.interf = append(c.interf, eInt)
		mu.Unlock()
	})
	if firstErr != nil {
		return nil, firstErr
	}
	var out []ErrorPoint
	for m := range methods {
		for f := range fracs {
			out = append(out, ErrorPoint{
				Method:     methods[m].Name,
				Frac:       fracs[f],
				MAPEIso:    stats.Summarize(cells[m][f].iso),
				MAPEInterf: stats.Summarize(cells[m][f].interf),
			})
		}
	}
	return out, nil
}

// runJobs executes n jobs on a bounded worker pool.
func runJobs(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	ch := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		ch <- i
	}
	close(ch)
	wg.Wait()
}
