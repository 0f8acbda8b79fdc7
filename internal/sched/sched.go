// Package sched is the edge-orchestration engine that motivates the paper
// (§1): placing latency-sensitive workloads across a heterogeneous cluster
// using calibrated runtime predictions.
//
// The engine is event-driven: jobs arrive (Place) and complete (Complete),
// so a platform's resident set — and therefore the interference every
// candidate placement must account for — changes over time. There is one
// engine, Scheduler, built by New over a mutex-guarded SlotStore. It
// scores the candidate platforms of a wave's jobs through one predictor
// call (Predictor.ScoreSecondsBatch, asking only for the heads the Policy
// reads), keeps every score in a table until the platform or the
// predictor's scoring epoch changes, selects among feasible platforms with
// a pluggable Strategy, commits each placement with a version-checked slot
// reservation, so that lifecycle calls never wait for scoring, and bounds
// admission so a saturated cluster fails fast instead of queueing
// placements it cannot serve.
//
// Measured runtimes flow back through Observer: a simulator or live
// orchestrator reports each completed job's (workload, platform,
// interferers, seconds) and the predictor fine-tunes online — the paper's
// §6 extension, closing the predict → place → measure → observe loop.
//
// The package also provides two simulation harnesses: Simulate replays a
// static placement against a ground-truth Oracle, and Stream runs the full
// event loop (Poisson arrivals, true-runtime departures, optional online
// feedback) used by cmd/schedsim.
package sched

import (
	"errors"

	"repro/internal/core"
	"repro/internal/obs"
)

// Query identifies one (workload, platform, interferers) prediction — the
// same type the Pitot batch inference path consumes, so batched placement
// scoring needs no conversion.
type Query = core.Query

// Job is one placement request.
type Job struct {
	// Workload index within the dataset; never negative.
	Workload int
	// Deadline in seconds for one execution of the workload.
	Deadline float64
}

// JobID identifies a placed job for the rest of its lifecycle; Complete
// frees its colocation slot.
type JobID uint64

// Predictor scores placement queries: the Pitot facade, or any model that
// offers the same two heads.
//
// The engine keeps every score in its table and serves it again
// until the platform's residents or health change or the scoring epoch
// moves. So for a given epoch the answers must be a pure function of the
// query, and a predictor whose answers can change must move its epoch when
// they do, to a value it has never returned before.
type Predictor interface {
	// ScoreSecondsBatch fills meanOut[i] with the expected runtime of
	// qs[i] and boundOut[i] with its runtime budget sufficient with
	// probability ≥ 1−eps, +Inf where no valid bound exists. A nil buffer
	// skips that head; a non-nil one has len(qs) elements.
	ScoreSecondsBatch(qs []Query, eps float64, meanOut, boundOut []float64)
	// ScoreEpoch is an opaque value that changes whenever the predictor
	// would score the same query differently (a new model snapshot), and
	// never returns to an earlier value: the engine reads it once per
	// chunk, before scoring, and drops the cells a chunk scored across a
	// publish when the next chunk reads a new epoch. The Pitot facade
	// returns its snapshot version, which only grows. A predictor that
	// never changes returns a constant.
	ScoreEpoch() uint64
}

// Measurement is one observed job execution: the runtime actually measured
// on the platform the job ran on, under the co-location it experienced.
type Measurement struct {
	Workload    int
	Platform    int
	Interferers []int
	Seconds     float64
}

// Observer receives measured runtimes so the predictor can fine-tune
// online. The Pitot facade implements it via ObserveSeconds; each call may
// publish a new model snapshot, so in-flight placements keep reading the
// previous one.
type Observer interface {
	ObserveSeconds(ms []Measurement) error
}

// ErrUnknownJob is returned by Complete for an ID the engine never
// issued.
var ErrUnknownJob = errors.New("sched: unknown job")

// ErrJobCompleted is returned by Complete for an ID that was placed but is
// no longer in flight: it already completed, or was orphaned by a platform
// failure. Distinct from ErrUnknownJob so callers can treat duplicates and
// stale completions differently from outright bogus IDs.
var ErrJobCompleted = errors.New("sched: job already completed")

// Unplaced-assignment reasons (Assignment.Reason).
const (
	// ReasonAdmission: admission control refused the job (MaxInFlight).
	ReasonAdmission = "admission"
	// ReasonNoHealthy: no platform was healthy enough to consider — the
	// placeable set (Healthy + Degraded) was empty.
	ReasonNoHealthy = "no-healthy-platform"
	// ReasonCapacity: placeable platforms exist but every one was full.
	ReasonCapacity = "capacity"
	// ReasonInfeasible: candidates were scored but none met the deadline.
	ReasonInfeasible = "infeasible"
	// ReasonConflict: the job's slot reservations kept hitting versions
	// newer than the scored views (lifecycle events landing mid-chunk)
	// more than the commit retry budget (8) allows, and it was shed.
	ReasonConflict = "commit-conflict"
)

// Assignment is the result of placing one job.
type Assignment struct {
	// ID identifies the placed job for Complete; zero when unplaced.
	ID  JobID
	Job Job
	// Platform is -1 if unplaced (infeasible or rejected).
	Platform int
	// Budget is the predicted value the decision was based on.
	Budget float64
	// Interferers are the workloads co-resident on the chosen platform at
	// placement time — the interference this job was scored under (a copy;
	// safe to retain). They are also what a Measurement of this execution
	// should report.
	Interferers []int
	// Rejected marks an admission-control refusal (cluster at MaxInFlight),
	// as opposed to an infeasible job no platform can serve in time.
	Rejected bool
	// Reason explains an unplaced assignment (one of the Reason*
	// constants); empty when the job was placed.
	Reason string
}

// Placed reports whether the job found a platform.
func (a Assignment) Placed() bool { return a.Platform >= 0 }

// Config bounds the scheduler's search and admission.
type Config struct {
	// NumPlatforms in the cluster.
	NumPlatforms int
	// MaxColocation is the maximum number of workloads per platform
	// (paper's dataset observes up to 4 simultaneous workloads).
	MaxColocation int
	// MaxInFlight bounds admission: once this many placed jobs have not
	// yet completed, further Place calls are rejected (Assignment.Rejected)
	// instead of queueing. 0 means no bound beyond platform capacity.
	MaxInFlight int
	// Strategy selects among feasible platforms; nil means LeastLoaded.
	Strategy Strategy
	// WaveChunk bounds how many jobs of a PlaceAll wave are placed per
	// copy of the cluster state: each chunk copies its platform views at
	// its start and scores against them, so completions and health events
	// that land mid-wave are seen by the following chunks (lifecycle calls
	// never wait for a chunk: they take only the slot store's mutex, which
	// scoring does not hold). A concurrent PlaceAll waits at most one
	// chunk. With no concurrent events chunked placement is
	// decision-identical to an unchunked wave. 0 means the default (64);
	// negative places the whole wave as one chunk.
	WaveChunk int
	// DegradedPenalty multiplies the feasibility score of candidates on
	// Degraded platforms: a flaky platform must clear the deadline with
	// padding to spare before it wins a placement. Must be finite and
	// ≥ 1; 0 means the default (1.25).
	DegradedPenalty float64
	// Breaker tunes the per-platform circuit breaker fed by
	// CompleteOutcome; the zero value gets defaults (window 20, automatic
	// trips disabled until Threshold is set).
	Breaker BreakerConfig
	// Metrics, when non-nil, receives latency and size observations from
	// the placement hot paths (predictor-call latency, wave latency,
	// per-chunk placement time, wave size). Nil disables recording: every
	// site is a single nil check, no allocation, no time syscall.
	Metrics *obs.SchedMetrics
	// Recorder, when non-nil, receives typed lifecycle events (place,
	// complete, shed, orphan, …) keyed by JobID — the flight recorder
	// behind /debug/trace. Nil disables with the same zero-cost contract
	// as Metrics.
	Recorder *obs.Recorder
}
