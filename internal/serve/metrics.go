package serve

import (
	"sort"
	"sync"
	"sync/atomic"

	pitot "repro"
)

// counter is a cache-line-friendly alias for the hot-path counters.
type counter = atomic.Int64

// maxSnapshotRetention bounds the per-snapshot metrics table: a daemon
// taking periodic /observe traffic publishes a new version per update, and
// without a cap the table (and every /healthz payload) would grow forever.
// Only the newest versions are kept — staleness questions are about the
// recent transition, not months-old snapshots.
const maxSnapshotRetention = 8

// metrics holds the server's internal counters. Everything on the request
// path — including the per-snapshot attribution — is lock-free: plain
// atomics plus a sync.Map whose read path is a single atomic load once a
// version's entry exists. The only mutex guards pruning, which runs at
// most once per published snapshot beyond the retention window.
type metrics struct {
	requests      counter
	rejected      counter
	observes      counter
	observeErrors counter

	// Placement lifecycle (populated only when EnablePlacement ran).
	placed          counter
	placeUnplaced   counter
	placeRejected   counter
	completed       counter
	completeUnknown counter
	completeStale   counter

	// Failure lifecycle: admin fail/degrade/recover events, residents
	// orphaned by failures and whether their re-placement succeeded, and
	// waves shed because the placeable set was empty.
	failEvents     counter
	degradeEvents  counter
	recoverEvents  counter
	orphaned       counter
	orphanReplaced counter
	orphanLost     counter
	placeNoHealthy counter

	perSnap   sync.Map // uint64 (snapshot version) -> *counter (queries)
	snapCount counter  // approximate entry count, drives pruning
	pruneMu   sync.Mutex

	// calVersion[p] is the snapshot version published by the most recent
	// successful Observe that carried a measurement for platform p — the
	// platform's calibration watermark. The current version minus the
	// watermark is how many snapshots the platform's serving bounds lag
	// its freshest measurements (per-platform staleness gauge). Guarded
	// by calMu; Observe is far off the hot path.
	calMu      sync.Mutex
	calVersion map[int]uint64
}

// noteCalibrated advances the calibration watermarks of every platform
// appearing in obs to the given snapshot version.
func (m *metrics) noteCalibrated(obs []pitot.Observation, version uint64) {
	m.calMu.Lock()
	defer m.calMu.Unlock()
	if m.calVersion == nil {
		m.calVersion = make(map[int]uint64)
	}
	for _, o := range obs {
		if v, ok := m.calVersion[o.Platform]; !ok || version > v {
			m.calVersion[o.Platform] = version
		}
	}
}

// calibrationLag returns, for each platform index, how many snapshot
// versions its calibration watermark lags the current version. Platforms
// that never received an Observe lag the full version history: their
// bounds still rest on the initial training calibration.
func (m *metrics) calibrationLag(platforms int, current uint64) []uint64 {
	m.calMu.Lock()
	defer m.calMu.Unlock()
	lag := make([]uint64, platforms)
	for p := range lag {
		v, ok := m.calVersion[p]
		if !ok || v > current {
			// Unobserved (or racing a not-yet-visible publish): lag is the
			// whole history, resp. zero.
			if ok {
				continue
			}
			lag[p] = current
			continue
		}
		lag[p] = current - v
	}
	return lag
}

// recordQuery counts one served query against the snapshot version that
// served it.
func (m *metrics) recordQuery(version uint64) {
	v, ok := m.perSnap.Load(version)
	if !ok {
		var loaded bool
		v, loaded = m.perSnap.LoadOrStore(version, new(counter))
		if !loaded && m.snapCount.Add(1) > maxSnapshotRetention {
			m.prune()
		}
	}
	v.(*counter).Add(1)
}

// prune drops the oldest versions beyond the retention cap. A stale call
// racing the prune of its (ancient) version loses its count — acceptable
// for aged-out telemetry.
func (m *metrics) prune() {
	m.pruneMu.Lock()
	defer m.pruneMu.Unlock()
	var versions []uint64
	m.perSnap.Range(func(k, _ any) bool {
		versions = append(versions, k.(uint64))
		return true
	})
	if len(versions) <= maxSnapshotRetention {
		return
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	for _, v := range versions[:len(versions)-maxSnapshotRetention] {
		m.perSnap.Delete(v)
		m.snapCount.Add(-1)
	}
}

// SnapshotMetrics summarizes the traffic served from one published model
// snapshot — the per-snapshot view that makes staleness visible: after an
// Observe, new calls land on the next version while in-flight ones finish
// on the previous.
type SnapshotMetrics struct {
	Version uint64 `json:"version"`
	Queries int64  `json:"queries"`
}

// Metrics is a point-in-time copy of the server's counters.
type Metrics struct {
	Requests      int64 `json:"requests"`
	Rejected      int64 `json:"rejected"`
	Observes      int64 `json:"observes"`
	ObserveErrors int64 `json:"observe_errors"`
	// InlineFlushes equals Requests: every call is served on its caller's
	// goroutine. The field remains only because the benchmark reads it; it
	// goes with the next change to the benchmark.
	InlineFlushes int64 `json:"-"`

	// Placement lifecycle counters: jobs placed, infeasible (no platform
	// meets the deadline), rejected by admission control, completions, and
	// completion calls for unknown/already-retired jobs. All zero unless
	// placement is enabled.
	Placed          int64 `json:"placed,omitempty"`
	PlaceUnplaced   int64 `json:"place_unplaced,omitempty"`
	PlaceRejected   int64 `json:"place_rejected,omitempty"`
	Completed       int64 `json:"completed,omitempty"`
	CompleteUnknown int64 `json:"complete_unknown,omitempty"`
	// CompleteStale counts completion calls for IDs already retired —
	// double completions and stale completions of orphaned jobs.
	CompleteStale int64 `json:"complete_stale,omitempty"`
	// Failure-lifecycle counters: /fail and /recover admin events, the
	// residents they orphaned (split by re-placement outcome), breaker
	// trips/re-admissions/closes, and placements shed because no healthy
	// platform remained. All zero unless placement is enabled.
	FailEvents      int64  `json:"fail_events,omitempty"`
	DegradeEvents   int64  `json:"degrade_events,omitempty"`
	RecoverEvents   int64  `json:"recover_events,omitempty"`
	Orphaned        int64  `json:"orphaned,omitempty"`
	OrphanReplaced  int64  `json:"orphan_replaced,omitempty"`
	OrphanLost      int64  `json:"orphan_lost,omitempty"`
	PlaceNoHealthy  int64  `json:"place_no_healthy,omitempty"`
	BreakerTrips    uint64 `json:"breaker_trips,omitempty"`
	BreakerReadmits uint64 `json:"breaker_readmits,omitempty"`
	BreakerCloses   uint64 `json:"breaker_closes,omitempty"`
	// PlatformHealth[p] names platform p's health state; nil unless
	// placement is enabled.
	PlatformHealth []string `json:"platform_health,omitempty"`
	// PlaceWaveJobs is always 0: no /place call is fused with another.
	// The field remains only because the benchmark reads it; it goes with
	// the next change to the benchmark.
	PlaceWaveJobs int64 `json:"-"`

	// Commit-protocol counters, set whenever placement is enabled:
	// version-checked slot reservations attempted, reservations refused
	// because a lifecycle event moved the platform after its view was
	// copied, and jobs shed after exhausting their conflict-retry budget.
	ReserveAttempts   uint64 `json:"reserve_attempts,omitempty"`
	ReserveConflicts  uint64 `json:"reserve_conflicts,omitempty"`
	PlaceConflictShed uint64 `json:"place_conflict_shed,omitempty"`

	// Score-table counters, in (platform, workload) cells: scores served
	// from the placement engine's wave score table vs scored through the
	// predictor (post-commit rescores included). Both stay zero on the
	// scalar scoring arm.
	ScoreCacheHits   uint64 `json:"score_cache_hits,omitempty"`
	ScoreCacheMisses uint64 `json:"score_cache_misses,omitempty"`

	// PerSnapshot is ordered by snapshot version; only the newest
	// maxSnapshotRetention versions are retained.
	PerSnapshot []SnapshotMetrics `json:"per_snapshot,omitempty"`
}

// Metrics returns a consistent-enough copy of the server's counters for
// health reporting (individual counters are read atomically; the set is
// not a single linearizable cut).
func (s *Server) Metrics() Metrics {
	m := &s.metrics
	out := Metrics{
		Requests:        m.requests.Load(),
		Rejected:        m.rejected.Load(),
		Observes:        m.observes.Load(),
		ObserveErrors:   m.observeErrors.Load(),
		Placed:          m.placed.Load(),
		PlaceUnplaced:   m.placeUnplaced.Load(),
		PlaceRejected:   m.placeRejected.Load(),
		Completed:       m.completed.Load(),
		CompleteUnknown: m.completeUnknown.Load(),
		CompleteStale:   m.completeStale.Load(),
		FailEvents:      m.failEvents.Load(),
		DegradeEvents:   m.degradeEvents.Load(),
		RecoverEvents:   m.recoverEvents.Load(),
		Orphaned:        m.orphaned.Load(),
		OrphanReplaced:  m.orphanReplaced.Load(),
		OrphanLost:      m.orphanLost.Load(),
		PlaceNoHealthy:  m.placeNoHealthy.Load(),
	}
	out.InlineFlushes = out.Requests
	if s.placer != nil {
		st := s.placer.FailureStats()
		out.BreakerTrips = st.Trips
		out.BreakerReadmits = st.Readmissions
		out.BreakerCloses = st.Closes
		hs := s.placer.HealthSnapshot()
		out.PlatformHealth = make([]string, len(hs))
		for p, h := range hs {
			out.PlatformHealth[p] = h.String()
		}
		cs := s.placer.ConflictStats()
		out.ReserveAttempts = cs.Attempts
		out.ReserveConflicts = cs.Conflicts
		out.PlaceConflictShed = cs.Shed
		ts := s.placer.ScoreTableStats()
		out.ScoreCacheHits = ts.Hits
		out.ScoreCacheMisses = ts.Misses
	}
	m.perSnap.Range(func(k, v any) bool {
		out.PerSnapshot = append(out.PerSnapshot, SnapshotMetrics{Version: k.(uint64), Queries: v.(*counter).Load()})
		return true
	})
	sort.Slice(out.PerSnapshot, func(i, j int) bool {
		return out.PerSnapshot[i].Version < out.PerSnapshot[j].Version
	})
	return out
}

// PlatformCalibrationLag returns, per platform index, how many snapshot
// versions the platform's serving calibration lags its freshest observed
// measurements — 0 for a platform whose measurements are folded into the
// currently published snapshot, the full version count for one never
// observed since startup. This is the data behind the Prometheus
// pitot_platform_calibration_lag gauge.
func (s *Server) PlatformCalibrationLag() []uint64 {
	info := s.Info()
	return s.metrics.calibrationLag(info.Platforms, info.Version)
}
