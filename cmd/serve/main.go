// Command serve runs the Pitot prediction daemon: an HTTP JSON service
// with /estimate and /bound endpoints, non-blocking online learning via
// /observe, and /healthz for liveness and metrics.
//
// Load a persisted predictor (written by Predictor.SaveModel):
//
//	serve -data dataset.json -mean mean.pit -quant quant.bin -addr :8080
//
// Or train at startup for a self-contained deployment:
//
//	serve -data dataset.json -train -quantiles -save-mean mean.pit -save-quant quant.bin
//
// Every request is served on its own connection's goroutine: a prediction
// is a few reads of the published model snapshot, which never blocks.
// Admission is bounded by -max-queue predictions in flight; excess load
// fails fast with HTTP 503.
//
// With -place, the orchestration surface also exposes a failure
// lifecycle: POST /fail marks a platform down (orphaned residents are
// re-placed on survivors) or degraded, POST /recover re-admits it, and a
// deadline-miss circuit breaker (-place-breaker-threshold) quarantines
// platforms whose observed miss rate over -place-breaker-window
// completions crosses the threshold. Degraded platforms stay placeable
// but their scores are padded by -place-degraded-penalty.
//
// Observability: GET /metrics exposes latency histograms alongside the
// counters, GET /debug/trace?job=ID replays a placed job's lifecycle from
// the flight recorder (-trace-depth sizes its ring), and -pprof mounts the
// standard net/http/pprof handlers under /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	pitot "repro"
	"repro/internal/sched"
	"repro/internal/serve"
)

// buildVersion stamps /healthz and the pitot_build_info metric; inject a
// real version with:
//
//	go build -ldflags "-X main.buildVersion=$(git describe --always)" ./cmd/serve
var buildVersion = "dev"

// The flags, registered on flag.CommandLine; validateFlags checks them
// after flag.Parse.
var (
	addr      = flag.String("addr", ":8080", "HTTP listen address")
	dataPath  = flag.String("data", "", "dataset JSON (required)")
	meanPath  = flag.String("mean", "", "predictor mean stream written by SaveModel/Export (not a cmd/train model file)")
	quantPath = flag.String("quant", "", "quantile model stream (optional; enables /bound)")
	train     = flag.Bool("train", false, "train at startup instead of loading -mean/-quant")
	quantiles = flag.Bool("quantiles", false, "with -train: also fit the quantile model for /bound")
	seed      = flag.Int64("seed", 1, "with -train: training seed")
	steps     = flag.Int("steps", 2500, "with -train: optimization steps")
	saveMean  = flag.String("save-mean", "", "with -train: persist the mean stream here")
	saveQuant = flag.String("save-quant", "", "with -train: persist the quantile model here")
	maxQueue  = flag.Int("max-queue", 4096, "bound on /estimate and /bound calls in flight (excess requests get 503; 0 = default)")
	pprofOn   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	traceDep  = flag.Int("trace-depth", 0, "flight-recorder ring capacity behind /debug/trace (0 = default 4096, negative disables tracing)")

	place         = flag.Bool("place", false, "enable the /place and /complete orchestration endpoints")
	placePolicy   = flag.String("place-policy", "bound", "placement policy: bound, mean, padded, mean-bound, or padded-bound")
	placeEps      = flag.Float64("place-eps", 0.1, "bound policy's per-job deadline-miss budget")
	placeFactor   = flag.Float64("place-factor", 1.3, "padded policy's safety factor")
	placeStrategy = flag.String("place-strategy", "least-loaded", "platform selection: least-loaded, best-fit, or utilization")
	placeColoc    = flag.Int("place-colocation", 4, "max workloads per platform")
	placeInFlight = flag.Int("place-max-inflight", 0, "admission bound on in-flight jobs (0 = platform capacity)")
	placeChunk    = flag.Int("place-chunk", 0, "jobs placed per copy of the cluster state (0 = default, negative = whole wave)")

	placePenalty     = flag.Float64("place-degraded-penalty", 0, "score multiplier applied to degraded platforms (0 = default 1.25)")
	breakerThreshold = flag.Float64("place-breaker-threshold", 0, "quarantine a platform when its windowed deadline-miss rate crosses this fraction (0 disables the breaker)")
	breakerWindow    = flag.Int("place-breaker-window", 0, "completions per platform in the breaker's miss-rate window (0 = default 20)")
	breakerProbation = flag.Int("place-breaker-probation", 0, "consecutive on-deadline completions to close a half-open platform (0 = default)")
)

// HTTP server timeouts. A client must finish its request headers within
// readHeaderTimeout, and an idle keep-alive connection is closed after
// idleTimeout, so a client that never finishes cannot hold a connection
// forever. Request bodies and replies get no deadline: an /observe
// fine-tune takes seconds.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// validateFlags rejects missing and nonsensical flags up front with a
// usage error (exit 2), before the dataset loads.
func validateFlags() error {
	switch {
	case *dataPath == "":
		return fmt.Errorf("-data is required")
	case !*train && *meanPath == "":
		return fmt.Errorf("either -mean (load) or -train is required")
	case *maxQueue < 0:
		return fmt.Errorf("-max-queue must be >= 0 (got %d)", *maxQueue)
	case *train && *steps < 1:
		return fmt.Errorf("-train needs -steps >= 1 (got %d)", *steps)
	case *place && !(*placeEps > 0 && *placeEps < 1):
		return fmt.Errorf("-place needs -place-eps in (0,1) (got %g)", *placeEps)
	}
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	flag.Parse()
	if err := validateFlags(); err != nil {
		fmt.Fprintf(flag.CommandLine.Output(), "serve: %v\n(run with -h for usage)\n", err)
		os.Exit(2)
	}

	df, err := os.Open(*dataPath)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := pitot.ReadDataset(df)
	df.Close()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("dataset: %d workloads, %d platforms, %d observations",
		ds.NumWorkloads(), ds.NumPlatforms(), len(ds.Obs))

	var pred *pitot.Predictor
	switch {
	case *train:
		cfg := pitot.DefaultModelConfig(*seed)
		cfg.Steps = *steps
		log.Printf("training (steps=%d quantiles=%v)...", *steps, *quantiles)
		pred, err = pitot.Train(ds, pitot.Options{Seed: *seed, Model: &cfg, EnableBounds: *quantiles})
		if err != nil {
			log.Fatal(err)
		}
		if *saveMean != "" {
			if err := persist(pred, *saveMean, *saveQuant); err != nil {
				log.Fatal(err)
			}
		}
	default:
		mf, err := os.Open(*meanPath)
		if err != nil {
			log.Fatal(err)
		}
		if *quantPath != "" {
			qf, err := os.Open(*quantPath)
			if err != nil {
				log.Fatal(err)
			}
			pred, err = pitot.LoadPredictor(ds, mf, qf)
			qf.Close()
			if err != nil {
				log.Fatal(err)
			}
		} else if pred, err = pitot.LoadPredictor(ds, mf, nil); err != nil {
			log.Fatal(err)
		}
		mf.Close()
	}

	info := pred.Info()
	log.Printf("predictor ready: snapshot v%d, bounds=%v", info.Version, info.Bounds)

	srv := serve.New(pred, serve.Config{
		MaxQueue:     *maxQueue,
		BuildVersion: buildVersion,
	})
	if *place {
		err := srv.EnablePlacement(serve.PlacementConfig{
			Policy:        *placePolicy,
			Eps:           *placeEps,
			PadFactor:     *placeFactor,
			Strategy:      *placeStrategy,
			MaxColocation: *placeColoc,
			MaxInFlight:   *placeInFlight,
			WaveChunk:     *placeChunk,
			TraceDepth:    *traceDep,

			DegradedPenalty: *placePenalty,
			Breaker: sched.BreakerConfig{
				Threshold: *breakerThreshold,
				Window:    *breakerWindow,
				Probation: *breakerProbation,
			},
		})
		if err != nil {
			srv.Close()
			log.Fatal(err)
		}
		log.Printf("placement enabled: policy=%s strategy=%s platforms=%d",
			*placePolicy, *placeStrategy, info.Platforms)
	}

	handler := serve.NewHandler(srv)
	if *pprofOn {
		// Explicit mux instead of importing pprof for its DefaultServeMux
		// side effect: profiling stays opt-in and off the default surface.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Print("pprof enabled under /debug/pprof/")
	}

	// Graceful shutdown: stop accepting and drain in-flight HTTP requests,
	// which run every prediction and placement to completion, then close
	// the server. log.Fatal skips defers, so the teardown is explicit.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Print("shutting down...")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	log.Printf("listening on %s (build=%s max-queue=%d)", *addr, buildVersion, *maxQueue)
	err = httpSrv.ListenAndServe()
	if err != nil && err != http.ErrServerClosed {
		srv.Close()
		log.Fatal(err)
	}
	<-done
	srv.Close()
	log.Print("drained")
}

// persist writes the trained predictor with SaveModel.
func persist(pred *pitot.Predictor, meanPath, quantPath string) error {
	mw, err := os.Create(meanPath)
	if err != nil {
		return err
	}
	defer mw.Close()
	var qw *os.File
	if quantPath != "" && pred.Info().Bounds {
		if qw, err = os.Create(quantPath); err != nil {
			return err
		}
		defer qw.Close()
	}
	if qw != nil {
		err = pred.SaveModel(mw, qw)
	} else {
		err = pred.SaveModel(mw, nil)
	}
	if err != nil {
		return fmt.Errorf("save model: %w", err)
	}
	return nil
}
