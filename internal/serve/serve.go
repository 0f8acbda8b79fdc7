// Package serve is the concurrent serving layer on top of the snapshot-
// isolated Predictor: request admission, single Estimate/Bound calls and
// /place waves served on the caller's goroutine, and per-snapshot serving
// metrics. cmd/serve wraps it in an HTTP daemon.
//
// Every call runs on its caller's goroutine. A served query is a few
// rank-32 reads of the factorized model, less work than handing it to
// another goroutine, and predictor reads are lock-free, so concurrent
// callers never wait for each other and there is nothing to batch. The
// Server owns no goroutine, channel or timer. Admission is bounded by
// MaxQueue Estimate/Bound calls in flight; a call beyond it fails fast
// with ErrOverloaded instead of piling up latency.
package serve

import (
	"errors"
	"sync/atomic"
	"time"

	pitot "repro"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Backend is the predictor surface the server serves from. *pitot.Predictor
// implements it; tests substitute fakes. Implementations must be safe for
// concurrent use (any prediction may run while Observe publishes). The
// scalar Estimate/Bound serve /estimate and /bound; the batch calls serve
// placement scoring.
type Backend interface {
	Estimate(w, pl int, interferers []int) float64
	Bound(w, pl int, interferers []int, eps float64) (float64, error)
	EstimateBatch(qs []pitot.Query) []float64
	BoundBatch(qs []pitot.Query, eps float64) ([]float64, error)
	Observe(obs []pitot.Observation) error
	// Info describes the published snapshot. With placement enabled, the
	// scheduler keeps every batched score until Info().Version changes, so
	// for a given version the batch calls must be a pure function of the
	// query, and any change to what they return must move the version to
	// one never reported before.
	Info() pitot.Info
}

// ErrOverloaded is returned when admission control rejects a call because
// MaxQueue calls are already in flight.
var ErrOverloaded = errors.New("serve: overloaded, too many calls in flight")

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrPlacementDisabled is returned for placement calls when
// EnablePlacement was never configured.
var ErrPlacementDisabled = errors.New("serve: placement not enabled")

// Config tunes admission control.
type Config struct {
	// MaxBatch has no effect: calls are not batched. The field remains
	// only because the benchmark's set-up sets it; it goes with the next
	// change to the benchmark.
	MaxBatch int
	// Window has no effect: no call waits for others. The field remains
	// only because the benchmark's set-up sets it; it goes with the next
	// change to the benchmark.
	Window time.Duration
	// MaxQueue bounds the Estimate and Bound calls in flight (default
	// 4096). Calls beyond it fail with ErrOverloaded.
	MaxQueue int
	// BuildVersion stamps /healthz and the pitot_build_info metric; cmd/serve
	// injects it via -ldflags "-X main.buildVersion=...". Empty means "dev".
	BuildVersion string
}

func (c Config) withDefaults() Config {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4096
	}
	if c.BuildVersion == "" {
		c.BuildVersion = "dev"
	}
	return c
}

// serveHists holds the request-latency histograms on the ungated serving
// surface. They exist from New on (no placement required) so /metrics always
// exposes the full latency shape of the prediction path.
type serveHists struct {
	estimate     *obs.Histogram // end-to-end /estimate handler latency
	bound        *obs.Histogram // end-to-end /bound handler latency
	place        *obs.Histogram // end-to-end /place handler latency
	observeFlush *obs.Histogram // Observe: backend fine-tune + publish duration
}

func newServeHists() serveHists {
	lb := obs.LatencyBuckets()
	return serveHists{
		estimate:     obs.NewHistogram("pitot_http_estimate_seconds", "End-to-end /estimate request latency.", lb),
		bound:        obs.NewHistogram("pitot_http_bound_seconds", "End-to-end /bound request latency.", lb),
		place:        obs.NewHistogram("pitot_http_place_seconds", "End-to-end /place request latency.", lb),
		observeFlush: obs.NewHistogram("pitot_observe_flush_seconds", "Observe flush duration (fine-tune + snapshot publish).", lb),
	}
}

// Server serves single predictions and placement waves over a Backend on
// its callers' goroutines. Create with New; after Close, predictions fail
// with ErrClosed.
type Server struct {
	be  Backend
	cfg Config

	// closed is set by Close: later Estimate and Bound calls fail with
	// ErrClosed.
	closed atomic.Bool
	// inFlight counts Estimate and Bound calls executing; admission
	// rejects a call that would take it past MaxQueue.
	inFlight atomic.Int64

	metrics metrics
	hists   serveHists

	// start anchors the uptime gauge; both /healthz and /metrics report
	// time since New.
	start time.Time

	// recorder is the placement flight recorder (nil until EnablePlacement
	// runs with tracing on); schedMetrics are the placement-stack latency
	// histograms exposed under pitot_place_*. Both feed /debug/trace and
	// the gated /metrics block.
	recorder     *obs.Recorder
	schedMetrics *obs.SchedMetrics

	// placer is the optional orchestration engine behind /place; nil until
	// EnablePlacement. Its decisions read the same lock-free snapshot the
	// prediction paths serve.
	placer            *sched.Scheduler
	placementPolicy   string
	placementStrategy string
}

// New returns a server over the backend. It starts nothing.
func New(be Backend, cfg Config) *Server {
	return &Server{
		be:    be,
		cfg:   cfg.withDefaults(),
		hists: newServeHists(),
		start: time.Now(),
	}
}

// Close makes later Estimate and Bound calls fail with ErrClosed. Calls
// already executing run on their callers' goroutines and finish on their
// own. Close returns at once and is safe to call more than once.
func (s *Server) Close() { s.closed.Store(true) }

// Estimate predicts the runtime of one query on the caller's goroutine.
func (s *Server) Estimate(q pitot.Query) (float64, error) {
	return s.serve(q, -1)
}

// Bound returns the 1−eps runtime budget of one query on the caller's
// goroutine.
func (s *Server) Bound(q pitot.Query, eps float64) (float64, error) {
	// The negated range check rejects NaN as well.
	if !(eps > 0 && eps < 1) {
		return 0, errors.New("serve: eps out of (0,1)")
	}
	return s.serve(q, eps)
}

// Observe forwards measurements to the backend. The backend serializes
// writers internally and never blocks concurrent reads, so Observe's
// latency is the fine-tune itself. Successful calls advance each touched
// platform's calibration watermark, the basis of the per-platform
// staleness gauge in /metrics.
func (s *Server) Observe(observations []pitot.Observation) error {
	s.metrics.observes.Add(1)
	start := time.Now()
	err := s.be.Observe(observations)
	s.hists.observeFlush.ObserveSince(start)
	if err != nil {
		s.metrics.observeErrors.Add(1)
		return err
	}
	s.metrics.noteCalibrated(observations, s.be.Info().Version)
	return nil
}

// Info exposes the backend's current snapshot metadata.
func (s *Server) Info() pitot.Info { return s.be.Info() }

// serve admits one Estimate (eps < 0) or Bound call, runs it on the
// caller's goroutine, and counts it against the snapshot version current
// when it started.
func (s *Server) serve(q pitot.Query, eps float64) (float64, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	if s.inFlight.Add(1) > int64(s.cfg.MaxQueue) {
		s.inFlight.Add(-1)
		s.metrics.rejected.Add(1)
		return 0, ErrOverloaded
	}
	s.metrics.requests.Add(1)
	version := s.be.Info().Version
	var (
		sec float64
		err error
	)
	if eps < 0 {
		sec = s.be.Estimate(q.Workload, q.Platform, q.Interferers)
	} else {
		sec, err = s.be.Bound(q.Workload, q.Platform, q.Interferers, eps)
	}
	s.metrics.recordQuery(version)
	s.inFlight.Add(-1)
	return sec, err
}
