package sched

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Scheduler is the placement engine: one placer over a mutex-guarded
// SlotStore and one predictor. Each chunk of a wave copies every
// platform's view from the store under the store mutex, then scores and
// selects outside it, and commits each placement with a version-checked
// reservation under it. A version conflict at commit (a completion,
// failure or health event landed on the platform since its view was
// copied) copies that platform's view again, rescores its column and
// retries selection, up to maxCommitRetries times before the job is shed
// with ReasonConflict. placeChunk (wave.go) is the one scoring and
// selection path, and waveTable.score its one predictor call.
//
// The lifecycle surface (Complete, Fail, Degrade, Recover, health and
// stats accessors) is the embedded store's: those calls take only the
// store mutex, so they never wait for a chunk's scoring. A Scheduler is
// safe for concurrent use; concurrent PlaceAll calls serialize on its
// placement mutex, one chunk at a time.
type Scheduler struct {
	*SlotStore

	cfg      Config
	policy   Policy
	strategy Strategy
	pred     Predictor

	// chunk is the resolved Config.WaveChunk: max jobs placed per view
	// snapshot in PlaceAll. degradedPenalty multiplies the feasibility score of
	// candidates on Degraded platforms (resolved Config.DegradedPenalty,
	// finite and ≥ 1).
	chunk           int
	degradedPenalty float64

	// builtin identifies the strategy when it is one of the built-in
	// three, so selection calls its Better directly (inlined) instead of
	// through the interface.
	builtin builtinStrategy

	// met/rec are the optional observability hooks (Config.Metrics /
	// Config.Recorder); both nil-safe, both off the decision path. ver
	// reads the predictor's snapshot version for event stamping; nil when
	// the predictor does not expose one.
	met *obs.SchedMetrics
	rec *obs.Recorder
	ver func() uint64

	// placeMu is the placement mutex. It guards the views, whose resident
	// rows the scheduler owns, and the score table, whose cells are
	// stamped with SlotStore versions.
	placeMu sync.Mutex
	views   []platformView // indexed by platform
	table   waveTable

	// shed counts jobs unplaced with ReasonConflict (ConflictStats.Shed).
	shed atomic.Uint64

	// chunkGap, when non-nil, runs between chunk placements (test hook:
	// deterministic mid-wave interleaving).
	chunkGap func()
}

// ConflictStats counts the commit protocol's outcomes across a
// Scheduler's lifetime.
type ConflictStats struct {
	// Attempts is the number of slot reservations tried; Conflicts how
	// many were refused because a lifecycle event had moved the platform
	// past the view its scores were computed against (the conflict-retry
	// rate is Conflicts/Attempts).
	Attempts  uint64
	Conflicts uint64
	// Shed counts jobs unplaced with ReasonConflict after exhausting the
	// retry budget (maxCommitRetries).
	Shed uint64
}

// maxCommitRetries bounds one job's consecutive reserve conflicts before
// it is shed with ReasonConflict.
const maxCommitRetries = 8

// defaultWaveChunk bounds a PlaceAll chunk when Config.WaveChunk is 0:
// large enough to amortize the chunk's scoring call, small enough that a
// lifecycle event is seen by the rest of a 256-job wave within one chunk.
const defaultWaveChunk = 64

// defaultDegradedPenalty inflates the feasibility score on Degraded
// platforms when Config.DegradedPenalty is 0: a degraded platform must
// clear the deadline with 25% headroom to win a placement.
const defaultDegradedPenalty = 1.25

// New creates the placement engine, scoring through pred the heads policy
// reads (see ParsePolicy). It validates cfg and resolves its defaults.
func New(cfg Config, policy Policy, pred Predictor) (*Scheduler, error) {
	if cfg.NumPlatforms <= 0 {
		return nil, fmt.Errorf("sched: no platforms")
	}
	if policy.name == "" {
		return nil, fmt.Errorf("sched: zero Policy (build one with ParsePolicy)")
	}
	if cfg.MaxColocation <= 0 {
		cfg.MaxColocation = 4
	}
	if cfg.Strategy == nil {
		cfg.Strategy = LeastLoaded{}
	}
	if cfg.MaxInFlight < 0 {
		return nil, fmt.Errorf("sched: negative MaxInFlight")
	}
	chunk := cfg.WaveChunk
	if chunk == 0 {
		chunk = defaultWaveChunk
	}
	penalty := cfg.DegradedPenalty
	if penalty == 0 {
		penalty = defaultDegradedPenalty
	}
	if !(penalty >= 1) || math.IsInf(penalty, 1) {
		return nil, fmt.Errorf("sched: DegradedPenalty %v is not a finite number ≥ 1", penalty)
	}
	nP, mc := cfg.NumPlatforms, cfg.MaxColocation
	s := &Scheduler{
		SlotStore:       newSlotStore(cfg),
		cfg:             cfg,
		policy:          policy,
		strategy:        cfg.Strategy,
		pred:            pred,
		chunk:           chunk,
		degradedPenalty: penalty,
		met:             cfg.Metrics,
		rec:             cfg.Recorder,
		views:           make([]platformView, nP),
		table:           waveTable{nP: nP},
	}
	switch cfg.Strategy.(type) {
	case LeastLoaded:
		s.builtin = builtinLeastLoaded
	case BestFit:
		s.builtin = builtinBestFit
	case UtilizationAware:
		s.builtin = builtinUtilization
	}
	if v, ok := pred.(snapshotVersioner); ok {
		s.ver = v.Version
	}
	// Each view's resident row is the scheduler's own, capped at
	// MaxColocation, so copying a platform's state never allocates.
	buf := make([]int, nP*mc)
	for p := range s.views {
		s.views[p].ks = buf[p*mc : p*mc : (p+1)*mc]
	}
	return s, nil
}

// builtinStrategy names the built-in strategies; builtinNone is any other.
type builtinStrategy uint8

const (
	builtinNone builtinStrategy = iota
	builtinLeastLoaded
	builtinBestFit
	builtinUtilization
)

// snapshotVersioner is the optional predictor facet exposing a snapshot
// version; flight-recorder events are stamped with it so a trace ties each
// decision to the model state that made it.
type snapshotVersioner interface{ Version() uint64 }

// snapVersion returns the predictor's current snapshot version, or 0 when
// the predictor does not expose one. Only called on recording paths.
func (s *Scheduler) snapVersion() uint64 {
	if s.ver == nil {
		return 0
	}
	return s.ver()
}

// Place assigns one job: among feasible platforms (score ≤ deadline after
// accounting for the interference the job will experience from residents),
// the configured Strategy picks the winner. The returned assignment is
// unplaced when no platform is feasible, and Rejected when admission
// control refused the job outright (MaxInFlight reached). A one-job wave.
func (s *Scheduler) Place(job Job) Assignment {
	return s.PlaceAll([]Job{job})[0]
}

// PlaceAll places a wave of jobs in arrival order, in chunks of
// Config.WaveChunk jobs. Each chunk decides against the cluster state
// copied at its start plus its own commits, and a completion or health
// event that lands mid-wave is seen by the following chunks — or, when it
// touches a platform the chunk then commits to, by that commit's conflict
// retry. With no concurrent events, decisions are identical to the
// unchunked wave (and to calling Place per job): scores are per-query
// deterministic, so chunk boundaries never change a selection.
func (s *Scheduler) PlaceAll(jobs []Job) []Assignment {
	// Observability is guarded per-site so the disabled path never calls
	// time.Now: one predictable branch per chunk, zero allocations.
	var waveStart time.Time
	if s.met != nil {
		waveStart = time.Now()
		s.met.WaveSize.Observe(float64(len(jobs)))
	}
	out := make([]Assignment, len(jobs))
	chunk := s.chunk
	if chunk < 0 || chunk > len(jobs) {
		chunk = len(jobs)
	}
	for lo := 0; lo < len(jobs); lo += chunk {
		hi := min(lo+chunk, len(jobs))
		s.placeMu.Lock()
		var holdStart time.Time
		if s.met != nil {
			holdStart = time.Now()
		}
		s.placeChunk(jobs[lo:hi], out[lo:hi])
		if s.met != nil {
			s.met.ChunkHold.ObserveSince(holdStart)
		}
		s.placeMu.Unlock()
		if s.chunkGap != nil && hi < len(jobs) {
			s.chunkGap()
		}
	}
	if s.met != nil {
		s.met.WavePlace.ObserveSince(waveStart)
	}
	return out
}

// commit reserves platform p for job against the view it was selected
// from. On success the view holds the committed state and the placement
// is recorded under the store mutex, so a racing Fail's orphan event can
// never precede it.
func (s *Scheduler) commit(p int, job Job) (JobID, []int, reserveStatus) {
	st := s.SlotStore
	if st.reserveGap != nil {
		st.reserveGap(p)
	}
	st.mu.Lock()
	id, inter, status := st.reserveLocked(p, &s.views[p], job)
	if status == reserveOK && s.rec != nil {
		s.rec.Record(obs.Event{Kind: obs.EvPlace, Job: uint64(id), ID: uint64(id),
			Platform: int32(p), Version: s.snapVersion()})
	}
	st.mu.Unlock()
	return id, inter, status
}

// retry handles the attempt-th consecutive commit conflict on p. Past the
// retry budget the job is shed and retry reports false; otherwise p's view
// is copied again and selection runs again — the refreshed view may
// demote p or crown a different winner. The event that moved p has
// already released the store mutex, so the copy needs no backoff.
func (s *Scheduler) retry(p, attempt int) bool {
	if s.rec != nil {
		s.rec.Record(obs.Event{Kind: obs.EvConflict, Platform: int32(p),
			N: int32(attempt), Version: s.snapVersion()})
	}
	if attempt > maxCommitRetries {
		s.shed.Add(1)
		if s.rec != nil {
			s.rec.Record(obs.Event{Kind: obs.EvShed, Reason: obs.ReasonConflict,
				Platform: int32(p), N: int32(attempt), Version: s.snapVersion()})
		}
		return false
	}
	st := s.SlotStore
	st.mu.Lock()
	st.viewLocked(p, &s.views[p])
	st.mu.Unlock()
	return true
}

// ConflictStats returns the commit protocol's counters.
func (s *Scheduler) ConflictStats() ConflictStats {
	st := s.SlotStore
	st.mu.Lock()
	attempts, conflicts := st.attempts, st.conflicts
	st.mu.Unlock()
	return ConflictStats{Attempts: attempts, Conflicts: conflicts, Shed: s.shed.Load()}
}

// ScoreTableStats returns the score table's counters.
func (s *Scheduler) ScoreTableStats() ScoreTableStats { return s.table.stats() }
