// Package serve is the concurrent serving layer on top of the snapshot-
// isolated Predictor: request admission, micro-batching of single
// Estimate/Bound calls into EstimateBatch/BoundBatch windows, and
// per-snapshot serving metrics. cmd/serve wraps it in an HTTP daemon.
//
// Micro-batching: every request is enqueued on one channel; a collector
// goroutine accumulates requests and hands batches to flushers that issue
// one EstimateBatch call (and one BoundBatch call per distinct eps) against
// the predictor. The flush policy is natural batching with single-flight
// pipelining:
//
//   - a full batch (MaxBatch pending) flushes immediately, always;
//   - when no flush is in flight, whatever has accumulated flushes
//     immediately — a lone request never waits for co-batching;
//   - while a flush is in flight, requests accumulate into the next batch
//     (the batch size adapts to the flush duration, which is what makes
//     the pipeline self-balancing under load), capped by the Window timer
//     so no request waits more than one window behind a slow flush.
//
// Because predictor reads are lock-free, overlapping flushes are safe — a
// slow flush never stalls admission or the next batch. Admission is
// bounded by MaxQueue; when the queue is full, requests fail fast with
// ErrOverloaded instead of piling up latency.
package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	pitot "repro"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Backend is the predictor surface the server batches over. *pitot.Predictor
// implements it; tests substitute fakes. Implementations must be safe for
// concurrent use (any prediction may run while Observe publishes). The
// scalar Estimate/Bound power the uncontended inline fast path; the batch
// calls serve fused flushes.
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

// ErrOverloaded is returned when admission control rejects a request
// because the pending queue is full.
var ErrOverloaded = errors.New("serve: overloaded, request queue full")

// ErrClosed is returned for requests submitted after Close.
var ErrClosed = errors.New("serve: server closed")

// ErrPlacementDisabled is returned for placement calls when
// EnablePlacement was never configured.
var ErrPlacementDisabled = errors.New("serve: placement not enabled")

// Config tunes the micro-batching window and admission control.
type Config struct {
	// MaxBatch flushes a batch as soon as this many requests are pending
	// (default 256).
	MaxBatch int
	// Window is the maximum time a pending batch waits behind an in-flight
	// flush before being flushed concurrently anyway (default 100µs). A
	// request that arrives while the pipeline is idle never waits: it
	// flushes immediately.
	Window time.Duration
	// MaxQueue bounds the admission queue (default 4096). Requests beyond
	// it fail with ErrOverloaded.
	MaxQueue int
	// BuildVersion stamps /healthz and the pitot_build_info metric; cmd/serve
	// injects it via -ldflags "-X main.buildVersion=...". Empty means "dev".
	BuildVersion string
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.Window <= 0 {
		c.Window = 100 * time.Microsecond
	}
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

// request is one queued Estimate or Bound call.
type request struct {
	q     pitot.Query
	eps   float64 // negative for Estimate, the target miscoverage for Bound
	reply chan reply
}

type reply struct {
	seconds float64
	err     error
}

// requestPool recycles request structs (and their reply channels) across
// calls: the micro-batch hot path allocates nothing per request in steady
// state.
var requestPool = sync.Pool{
	New: func() any { return &request{reply: make(chan reply, 1)} },
}

// Server micro-batches single-prediction calls into batch windows over a
// Backend. Create with New, release with Close.
type Server struct {
	be  Backend
	cfg Config

	queue   chan *request
	closing chan struct{}
	closed  sync.Once

	// inFlight counts flushes (batched and inline) currently executing;
	// the collector and the inline fast path read it to decide whether
	// queueing would buy any co-batching.
	inFlight atomic.Int64

	collectorDone chan struct{}
	flushes       sync.WaitGroup

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

	// placeQueue/placeDone drive the optional /place accumulation window
	// (PlacementConfig.Window): concurrent single-job placements are fused
	// into one wave so the scheduler pre-scores them together — one
	// platform-major interference fold per platform per wave instead of
	// per call. placeInFlight counts waves currently placing (fused and
	// direct); placePending counts single-job calls submitted to the
	// batcher and not yet flushed (the collector moves them into its
	// private batch immediately, so the queue length alone cannot tell an
	// open accumulation window from an idle pipeline). The inline fast
	// path reads both.
	placeQueue    chan *placeReq
	placeDone     chan struct{}
	placeInFlight atomic.Int64
	placePending  atomic.Int64
}

// New starts a server over the backend.
func New(be Backend, cfg Config) *Server {
	s := &Server{
		be:            be,
		cfg:           cfg.withDefaults(),
		closing:       make(chan struct{}),
		collectorDone: make(chan struct{}),
		hists:         newServeHists(),
		start:         time.Now(),
	}
	s.queue = make(chan *request, s.cfg.MaxQueue)
	go s.collect()
	return s
}

// Close stops the collector, fails queued requests with ErrClosed, and
// waits for dispatched flushes to finish. Predictions executing on the
// inline fast path run on their callers' goroutines and complete on their
// own — after Close returns, no server-spawned goroutine is running, but
// callers concurrently inside Estimate/Bound may still be. Safe to call
// more than once.
func (s *Server) Close() {
	s.closed.Do(func() { close(s.closing) })
	<-s.collectorDone
	if s.placeDone != nil {
		<-s.placeDone
	}
	s.flushes.Wait()
}

// Estimate predicts the runtime of one query through the micro-batching
// path. It blocks until the batch containing the query is flushed, ctx is
// done, or the server is closed.
func (s *Server) Estimate(ctx context.Context, q pitot.Query) (float64, error) {
	return s.submit(ctx, q, -1)
}

// Bound returns the 1−eps runtime budget of one query through the
// micro-batching path; queries with the same eps in a window share one
// BoundBatch call.
func (s *Server) Bound(ctx context.Context, q pitot.Query, eps float64) (float64, error) {
	// Negated-range check rejects NaN as well: a NaN eps in the queue
	// would defeat the flusher's per-eps grouping (NaN != NaN).
	if !(eps > 0 && eps < 1) {
		return 0, errors.New("serve: eps out of (0,1)")
	}
	return s.submit(ctx, q, eps)
}

// Observe forwards measurements to the backend. The backend serializes
// writers internally and never blocks concurrent reads, so Observe needs
// no batching: its latency is the fine-tune itself. Successful calls
// advance each touched platform's calibration watermark, the basis of the
// per-platform staleness gauge in /metrics.
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

func (s *Server) submit(ctx context.Context, q pitot.Query, eps float64) (float64, error) {
	select {
	case <-s.closing:
		return 0, ErrClosed
	default:
	}
	// Inline fast path: with nothing queued and no flush in flight there
	// is nothing to co-batch with, so queueing would only add goroutine
	// hand-offs. Serve the query synchronously on the caller's goroutine —
	// micro-batching engages exactly when requests actually overlap.
	if len(s.queue) == 0 && s.inFlight.Load() == 0 {
		s.inFlight.Add(1)
		s.metrics.requests.Add(1)
		s.metrics.inlineFlushes.Add(1)
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
		s.metrics.recordBatch(version, 1)
		s.inFlight.Add(-1)
		return sec, err
	}
	r := requestPool.Get().(*request)
	r.q, r.eps = q, eps
	select {
	case s.queue <- r:
	default:
		requestPool.Put(r)
		s.metrics.rejected.Add(1)
		return 0, ErrOverloaded
	}
	s.metrics.requests.Add(1)
	select {
	case rep := <-r.reply:
		requestPool.Put(r)
		return rep.seconds, rep.err
	case <-ctx.Done():
		// The flusher may still write to r.reply (buffered, never blocks);
		// the request cannot be pooled again.
		return 0, ctx.Err()
	case <-s.collectorDone:
		// Close raced our enqueue: the collector may have exited without
		// ever seeing this request. Prefer a reply if one already landed
		// (a final flush may have carried it); otherwise report closed.
		select {
		case rep := <-r.reply:
			requestPool.Put(r)
			return rep.seconds, rep.err
		default:
			return 0, ErrClosed
		}
	}
}

// collect accumulates requests into batches and dispatches flushes under
// the natural-batching policy described in the package comment.
func (s *Server) collect() {
	defer close(s.collectorDone)
	var (
		batch  []*request
		timer  *time.Timer
		timerC <-chan time.Time
	)
	// flushDone is buffered so flushers never block signalling completion,
	// even if the collector is mid-shutdown.
	flushDone := make(chan struct{}, 1024)
	stopTimer := func() {
		if timerC != nil && !timer.Stop() {
			// Fired while we were busy: drain the stale tick so a later
			// Reset cannot flush a batch early. The collector is the only
			// reader of timer.C, so the non-blocking drain is safe.
			select {
			case <-timer.C:
			default:
			}
		}
		timerC = nil
	}
	start := func(counter *counter) {
		if counter != nil {
			counter.Add(1)
		}
		stopTimer()
		s.dispatch(batch, flushDone)
		batch = nil
	}
	for {
		// Drain everything already queued without blocking.
	drain:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case r := <-s.queue:
				batch = append(batch, r)
			default:
				break drain
			}
		}
		switch {
		case len(batch) >= s.cfg.MaxBatch:
			// Full batches flush immediately and concurrently: predictor
			// reads are lock-free, so overlapping flushes scale.
			start(&s.metrics.fullFlushes)
			continue
		case len(batch) > 0 && s.inFlight.Load() == 0:
			// Pipeline idle: serve what we have now. A lone request pays
			// zero co-batching latency; under load the next batch has
			// been accumulating while this flush runs.
			start(&s.metrics.idleFlushes)
			continue
		case len(batch) > 0 && timerC == nil:
			// Batch pending behind an in-flight flush: cap its wait.
			if timer == nil {
				timer = time.NewTimer(s.cfg.Window)
			} else {
				timer.Reset(s.cfg.Window)
			}
			timerC = timer.C
		}
		select {
		case r := <-s.queue:
			batch = append(batch, r)
		case <-flushDone:
			// A dispatched flush retired; recheck whether the accumulated
			// batch can go out. (Inline flushes do not signal: a batch
			// pending behind one is bounded by the window timer instead.)
		case <-timerC:
			timerC = nil
			if len(batch) > 0 {
				start(&s.metrics.timeoutFlushes)
			}
		case <-s.closing:
			if len(batch) > 0 {
				start(nil)
			}
			s.drainAndFail()
			return
		}
	}
}

// drainAndFail rejects everything still queued at shutdown.
func (s *Server) drainAndFail() {
	for {
		select {
		case r := <-s.queue:
			r.reply <- reply{err: ErrClosed}
		default:
			return
		}
	}
}

// dispatch hands a completed batch to a flusher goroutine so collection of
// the next batch continues immediately (predictor reads are lock-free, so
// overlapping flushes are safe and scale across cores). done receives one
// token when the flush retires, driving the single-flight pacing.
func (s *Server) dispatch(batch []*request, done chan<- struct{}) {
	s.flushes.Add(1)
	s.inFlight.Add(1)
	go func() {
		defer s.flushes.Done()
		s.flush(batch)
		s.inFlight.Add(-1)
		select {
		case done <- struct{}{}:
		default:
			// Buffer full can only happen long after the collector stopped
			// consuming (shutdown); dropping the token is then harmless.
		}
	}()
}

// flush partitions a batch into the estimate span and per-eps bound spans,
// issues one batched predictor call per span, and fans results back out.
func (s *Server) flush(batch []*request) {
	// Record against the snapshot version current at flush start, before
	// any reply is delivered: a client that has its answer can rely on the
	// batch being visible in Metrics.
	version := s.be.Info().Version
	s.metrics.recordBatch(version, len(batch))

	// Partition in place: estimates first, then bounds grouped by eps.
	// Batches are small (≤MaxBatch) and eps values few, so a simple
	// stable two-phase walk beats building maps.
	var estimates []*request
	var bounds []*request
	for _, r := range batch {
		if r.eps < 0 {
			estimates = append(estimates, r)
		} else {
			bounds = append(bounds, r)
		}
	}

	if len(estimates) > 0 {
		qs := make([]pitot.Query, len(estimates))
		for i, r := range estimates {
			qs[i] = r.q
		}
		out := s.be.EstimateBatch(qs)
		for i, r := range estimates {
			r.reply <- reply{seconds: out[i]}
		}
	}

	for len(bounds) > 0 {
		// The pivot joins its group by position, not by comparison, so the
		// loop shrinks every iteration even for pathological eps values
		// (NaN != NaN) that slip past validation.
		eps := bounds[0].eps
		group := []*request{bounds[0]}
		var rest []*request
		for _, r := range bounds[1:] {
			if r.eps == eps {
				group = append(group, r)
			} else {
				rest = append(rest, r)
			}
		}
		qs := make([]pitot.Query, len(group))
		for i, r := range group {
			qs[i] = r.q
		}
		out, err := s.be.BoundBatch(qs, eps)
		for i, r := range group {
			if err != nil {
				r.reply <- reply{err: err}
			} else {
				r.reply <- reply{seconds: out[i]}
			}
		}
		bounds = rest
	}
}
