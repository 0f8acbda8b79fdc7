package serve

import (
	"errors"
	"fmt"
	"math"
	"time"

	pitot "repro"
	"repro/internal/obs"
	"repro/internal/sched"
)

// PlacementConfig enables the /place orchestration surface: the daemon
// holds a live sched.Scheduler over the serving predictor and serves
// placement decisions against the current model snapshot.
type PlacementConfig struct {
	// Platforms in the cluster; 0 uses the predictor's platform count.
	Platforms int
	// MaxColocation caps workloads per platform (default 4).
	MaxColocation int
	// MaxInFlight bounds admission; 0 = platform capacity only.
	MaxInFlight int
	// Policy is "bound" (default), "mean", "padded", or the mixed-head
	// "mean-bound" / "padded-bound" (rank on (padded) mean, feasibility on
	// the conformal bound, scored in one fused pass when the backend is a
	// ScorerBackend).
	Policy string
	// Eps is the bound policy's per-job miss budget (default 0.1).
	Eps float64
	// PadFactor is the padded policies' safety factor (default 1.3); it
	// must be a positive finite number.
	PadFactor float64
	// Strategy is "least-loaded" (default), "best-fit", or "utilization".
	Strategy string
	// WaveChunk bounds jobs placed per copy of the cluster state (see
	// sched.Config.WaveChunk); 0 = default.
	WaveChunk int
	// Window has no effect: every /place call places on its caller's
	// goroutine. The field remains only because the benchmark's set-up
	// sets it; it goes with the next change to the benchmark.
	Window time.Duration
	// MaxWave has no effect, as Window. The field remains only because
	// the benchmark's set-up sets it; it goes with the next change to the
	// benchmark.
	MaxWave int
	// DegradedPenalty multiplies the feasibility score on Degraded
	// platforms (see sched.Config.DegradedPenalty); 0 = default (1.25).
	DegradedPenalty float64
	// Breaker tunes the per-platform circuit breaker fed by /complete
	// outcome reports; the zero value disables automatic trips.
	Breaker sched.BreakerConfig
	// Replicas must be 0 or 1: there is one placement engine.
	// EnablePlacement rejects any other value. The field remains only
	// because the benchmark's set-up sets it to 1; it goes with the next
	// change to the benchmark.
	Replicas int
	// TraceDepth sizes the flight-recorder ring behind /debug/trace
	// (retained lifecycle events, overwrite-oldest). 0 uses
	// obs.DefaultTraceDepth; a negative depth disables the recorder
	// entirely (the scheduler's record sites reduce to one nil check).
	// The pitot_place_* latency histograms are always attached — they are
	// lock-free atomics with no retention to size.
	TraceDepth int
}

// backendPredictor adapts the serving Backend to sched.Predictor. Each
// scoring call goes to the one backend call that serves exactly the heads
// asked for: EstimateBatch for the mean alone, BoundBatch for the bound
// alone, and the fused two-head pass for both when the backend offers it
// (ScorerBackend; the Pitot facade does), EstimateBatch then BoundBatch
// otherwise. A bound error maps to +Inf for the whole batch, the
// scheduler's infeasibility convention.
type backendPredictor struct{ be Backend }

// ScorerBackend is the optional fused two-head surface of a Backend,
// with sched.Predictor's buffer contract. *pitot.Predictor implements it.
type ScorerBackend interface {
	ScoreSecondsBatch(qs []pitot.Query, eps float64, meanOut, boundOut []float64)
}

// Version reports the backend's published snapshot version; the scheduler
// stamps it onto flight-recorder events so a trace can be correlated with
// the model snapshot that scored each decision.
func (b backendPredictor) Version() uint64 { return b.be.Info().Version }

// ScoreEpoch is the score table's invalidation key: the snapshot
// version, as pitot's own ScoreEpoch. A Backend's version only grows, so
// the epoch never returns to an earlier value (sched.Predictor).
func (b backendPredictor) ScoreEpoch() uint64 { return b.be.Info().Version }

// ScoreSecondsBatch implements sched.Predictor.
func (b backendPredictor) ScoreSecondsBatch(qs []pitot.Query, eps float64, meanOut, boundOut []float64) {
	if sb, ok := b.be.(ScorerBackend); ok && meanOut != nil && boundOut != nil {
		sb.ScoreSecondsBatch(qs, eps, meanOut, boundOut)
		return
	}
	if meanOut != nil {
		copy(meanOut, b.be.EstimateBatch(qs))
	}
	if boundOut != nil {
		out, err := b.be.BoundBatch(qs, eps)
		if err != nil {
			for i := range boundOut {
				boundOut[i] = math.Inf(1)
			}
			return
		}
		copy(boundOut, out)
	}
}

// EnablePlacement constructs the placement engine. Must be called before
// the handler serves /place; not safe to call concurrently with requests.
func (s *Server) EnablePlacement(pc PlacementConfig) error {
	if pc.Platforms == 0 {
		pc.Platforms = s.be.Info().Platforms
	}
	if pc.Policy == "" {
		pc.Policy = "bound"
	}
	if pc.Eps == 0 {
		pc.Eps = 0.1
	}
	if pc.Replicas != 0 && pc.Replicas != 1 {
		return fmt.Errorf("serve: Replicas %d: there is one placement engine (0 or 1)", pc.Replicas)
	}
	pol, err := sched.ParsePolicy(pc.Policy, pc.Eps, pc.PadFactor)
	if err != nil {
		return err
	}
	if pol.NeedsBounds() && !s.be.Info().Bounds {
		return fmt.Errorf("serve: %s placement policy needs a quantile model (train with bounds)", pc.Policy)
	}
	strat, err := sched.ParseStrategy(pc.Strategy)
	if err != nil {
		return err
	}
	// Observability: the placement-stack histograms are always attached
	// (atomic counters, no retention); the flight recorder is sized by
	// TraceDepth and skipped entirely when it is negative.
	s.schedMetrics = obs.NewSchedMetrics("pitot_place_")
	if pc.TraceDepth >= 0 {
		s.recorder = obs.NewRecorder(pc.TraceDepth)
	}
	cfg := sched.Config{
		NumPlatforms:    pc.Platforms,
		MaxColocation:   pc.MaxColocation,
		MaxInFlight:     pc.MaxInFlight,
		Strategy:        strat,
		WaveChunk:       pc.WaveChunk,
		DegradedPenalty: pc.DegradedPenalty,
		Breaker:         pc.Breaker,
		Metrics:         s.schedMetrics,
		Recorder:        s.recorder,
	}
	placer, err := sched.New(cfg, pol, backendPredictor{s.be})
	if err != nil {
		return err
	}
	s.placer = placer
	s.placementPolicy = pol.Name()
	s.placementStrategy = strat.Name()
	return nil
}

// Placer returns the placement engine, nil unless EnablePlacement ran.
func (s *Server) Placer() *sched.Scheduler { return s.placer }

// PlaceJobs places a wave of jobs through the placement engine on the
// caller's goroutine, updating the serving metrics.
func (s *Server) PlaceJobs(jobs []sched.Job) ([]sched.Assignment, error) {
	if s.placer == nil {
		return nil, ErrPlacementDisabled
	}
	return s.placeDirect(jobs), nil
}

// placeDirect runs one wave and counts its outcomes.
func (s *Server) placeDirect(jobs []sched.Job) []sched.Assignment {
	as := s.placer.PlaceAll(jobs)
	s.recordAssignments(as)
	return as
}

// recordAssignments updates the placement lifecycle counters for one wave.
func (s *Server) recordAssignments(as []sched.Assignment) {
	for _, a := range as {
		switch {
		case a.Rejected:
			s.metrics.placeRejected.Add(1)
		case !a.Placed():
			s.metrics.placeUnplaced.Add(1)
			if a.Reason == sched.ReasonNoHealthy {
				s.metrics.placeNoHealthy.Add(1)
			}
		default:
			s.metrics.placed.Add(1)
		}
	}
}

// CompleteJobs retires placed jobs, freeing their colocation slots and —
// when missed is non-nil (same length as ids) — feeding each execution's
// deadline outcome to the platform circuit breaker. IDs the scheduler
// never issued come back in unknown; IDs already retired (double
// completions, or jobs orphaned by a platform failure) come back in
// stale. Valid IDs complete even when the same request carries bad ones.
func (s *Server) CompleteJobs(ids []sched.JobID, missed []bool) (completed int, unknown, stale []sched.JobID, err error) {
	if s.placer == nil {
		return 0, nil, nil, ErrPlacementDisabled
	}
	for i, id := range ids {
		miss := missed != nil && missed[i]
		_, cerr := s.placer.CompleteOutcome(id, miss)
		switch {
		case cerr == nil:
			completed++
			s.metrics.completed.Add(1)
		case errors.Is(cerr, sched.ErrJobCompleted):
			stale = append(stale, id)
			s.metrics.completeStale.Add(1)
		default:
			unknown = append(unknown, id)
			s.metrics.completeUnknown.Add(1)
		}
	}
	return completed, unknown, stale, nil
}

// FailPlatform marks a platform Down, orphans its resident jobs, and
// immediately re-places the orphans on the surviving platforms as one
// high-priority wave. The returned assignments (one per orphan, in
// eviction order) report where each orphan landed — or why it could not
// be re-placed; unplaced orphans are shed, not retried.
func (s *Server) FailPlatform(p int) ([]sched.Assignment, error) {
	if s.placer == nil {
		return nil, ErrPlacementDisabled
	}
	orphans, err := s.placer.Fail(p)
	if err != nil {
		return nil, err
	}
	s.metrics.failEvents.Add(1)
	if len(orphans) == 0 {
		return nil, nil
	}
	s.metrics.orphaned.Add(int64(len(orphans)))
	jobs := make([]sched.Job, len(orphans))
	for i, o := range orphans {
		jobs[i] = o.Job
	}
	as := s.placeDirect(jobs)
	for _, a := range as {
		if a.Placed() {
			s.metrics.orphanReplaced.Add(1)
		} else {
			s.metrics.orphanLost.Add(1)
		}
	}
	return as, nil
}

// DegradePlatform marks a platform Degraded (placements pay the penalty).
func (s *Server) DegradePlatform(p int) error {
	if s.placer == nil {
		return ErrPlacementDisabled
	}
	if err := s.placer.Degrade(p); err != nil {
		return err
	}
	s.metrics.degradeEvents.Add(1)
	return nil
}

// RecoverPlatform advances a platform toward Healthy (half-open from
// Down/Quarantined, closed from Degraded).
func (s *Server) RecoverPlatform(p int) error {
	if s.placer == nil {
		return ErrPlacementDisabled
	}
	if err := s.placer.Recover(p); err != nil {
		return err
	}
	s.metrics.recoverEvents.Add(1)
	return nil
}

// PlatformHealth returns every platform's health state, nil when
// placement is disabled.
func (s *Server) PlatformHealth() []sched.HealthState {
	if s.placer == nil {
		return nil
	}
	return s.placer.HealthSnapshot()
}
