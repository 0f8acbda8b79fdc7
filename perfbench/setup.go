package main

import (
	"fmt"
	"net/http"
	"time"

	pitot "repro"
	"repro/internal/serve"
	"repro/internal/wasmcluster"
)

// backend is what the benchmark hands to serve.New: the serving surface
// plus the fused scoring pass, so EnablePlacement takes the same path over
// the timing wrapper as over the bare predictor.
type backend interface {
	serve.Backend
	serve.ScorerBackend
}

// Scale of the program's inputs. The dataset is the generator's default
// (48 workloads x 8 devices: 80 platforms, about 20.7k observations); the
// model keeps its default shape (rank 32, hidden 64) because the span
// kernels are specialised for it, and trains for a reduced step count so
// that set-up fits in a run.
const (
	trainSteps = 100
	eps        = 0.1
)

// Serving configuration: cmd/serve's flag defaults with -place on.
func serveConfig() serve.Config {
	return serve.Config{MaxBatch: 256, Window: 100 * time.Microsecond, MaxQueue: 4096, BuildVersion: "perfbench"}
}

func placementConfig() serve.PlacementConfig {
	return serve.PlacementConfig{
		Policy:        "bound",
		Eps:           eps,
		PadFactor:     1.3,
		Strategy:      "least-loaded",
		MaxColocation: 4,
		Window:        200 * time.Microsecond,
		MaxWave:       64,
		Replicas:      1,
	}
}

// world is one set-up program instance plus the oracle that generated its
// data.
type world struct {
	oracle *wasmcluster.Cluster
	be     backend // the bare backend, for reference answers and quality
	srv    *serve.Server
	h      http.Handler
	tr     *tracer // nil unless the server runs over the timing wrapper
	led    ledger
}

func (w *world) close() { w.srv.Close() }

// setupTimes splits one set-up into its parts; speed is the reference
// factor measured around it.
type setupTimes struct {
	gen, train, calibrate, total time.Duration
	speed                        float64
}

// setupFunc builds one world from the data seed. With a tracer the server
// runs over the timing wrapper.
type setupFunc func(dataSeed int64, tr *tracer) (*world, setupTimes, error)

// newServer builds the server the way cmd/serve does, over the timing
// wrapper when tr is set.
func newServer(be backend, tr *tracer) (*serve.Server, error) {
	var sbe backend = be
	if tr != nil {
		sbe = &timedBackend{be: be, tr: tr}
	}
	srv := serve.New(sbe, serveConfig())
	if err := srv.EnablePlacement(placementConfig()); err != nil {
		srv.Close()
		return nil, fmt.Errorf("enable placement: %w", err)
	}
	return srv, nil
}

// realSetup generates the dataset, trains the mean and quantile models,
// runs the first conformal calibration and builds the server.
func realSetup(dataSeed int64, tr *tracer) (*world, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	cl := wasmcluster.New(wasmcluster.Config{Seed: dataSeed})
	ds := cl.Generate()
	t1 := time.Now()
	cfg := pitot.DefaultModelConfig(dataSeed)
	cfg.Steps = trainSteps
	pred, err := pitot.Train(ds, pitot.Options{Seed: dataSeed, Model: &cfg, EnableBounds: true})
	if err != nil {
		return nil, st, fmt.Errorf("train: %w", err)
	}
	t2 := time.Now()
	if _, err := pred.Bound(0, 0, nil, eps); err != nil {
		return nil, st, fmt.Errorf("first calibration: %w", err)
	}
	t3 := time.Now()
	srv, err := newServer(pred, tr)
	if err != nil {
		return nil, st, err
	}
	st = setupTimes{gen: t1.Sub(t0), train: t2.Sub(t1), calibrate: t3.Sub(t2)}
	return &world{oracle: cl, be: pred, srv: srv, tr: tr}, st, nil
}
