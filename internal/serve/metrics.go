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
// path — including the per-snapshot attribution used by the inline fast
// path — is lock-free: plain atomics plus a sync.Map whose read path is a
// single atomic load once a version's entry exists. The only mutex guards
// pruning, which runs at most once per published snapshot beyond the
// retention window.
type metrics struct {
	requests       counter
	rejected       counter
	observes       counter
	observeErrors  counter
	fullFlushes    counter
	idleFlushes    counter
	timeoutFlushes counter
	inlineFlushes  counter

	// Placement lifecycle (populated only when EnablePlacement ran).
	// placeWaves/placeWaveJobs count fused accumulation-window waves and
	// the single-job calls they absorbed; placeInline counts single-job
	// calls served on the caller's goroutine because nothing was in
	// flight to fuse with.
	placed          counter
	placeUnplaced   counter
	placeRejected   counter
	completed       counter
	completeUnknown counter
	completeStale   counter
	placeWaves      counter
	placeWaveJobs   counter
	placeInline     counter
	// placeShed counts single-job calls that found the accumulation queue
	// full and fell back to the direct path — overload traffic that fused
	// waves never see, so it must be accounted separately or /place volume
	// is under-reported exactly when the server is busiest.
	placeShed counter

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

	perSnap   sync.Map // uint64 (snapshot version) -> *snapCounters
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

type snapCounters struct {
	batches counter
	queries counter
	maxSize counter
}

func (m *metrics) recordBatch(version uint64, size int) {
	v, ok := m.perSnap.Load(version)
	if !ok {
		var loaded bool
		v, loaded = m.perSnap.LoadOrStore(version, &snapCounters{})
		if !loaded && m.snapCount.Add(1) > maxSnapshotRetention {
			m.prune()
		}
	}
	sc := v.(*snapCounters)
	sc.batches.Add(1)
	sc.queries.Add(int64(size))
	for {
		cur := sc.maxSize.Load()
		if int64(size) <= cur || sc.maxSize.CompareAndSwap(cur, int64(size)) {
			break
		}
	}
}

// prune drops the oldest versions beyond the retention cap. A stale flush
// racing the prune of its (ancient) version loses its counts — acceptable
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
// Observe, new flushes land on the next version while in-flight ones
// finish on the previous.
type SnapshotMetrics struct {
	Version      uint64  `json:"version"`
	Batches      int64   `json:"batches"`
	Queries      int64   `json:"queries"`
	MaxBatchSize int     `json:"max_batch_size"`
	MeanBatch    float64 `json:"mean_batch"`
}

// Metrics is a point-in-time copy of the server's counters.
type Metrics struct {
	Requests      int64 `json:"requests"`
	Rejected      int64 `json:"rejected"`
	Observes      int64 `json:"observes"`
	ObserveErrors int64 `json:"observe_errors"`
	// FullFlushes counts batches flushed at MaxBatch, IdleFlushes batches
	// flushed because the pipeline was idle, TimeoutFlushes batches that
	// waited out a Window behind an in-flight flush, and InlineFlushes
	// single queries served synchronously on the caller's goroutine
	// because there was nothing to co-batch with.
	FullFlushes    int64 `json:"full_flushes"`
	IdleFlushes    int64 `json:"idle_flushes"`
	TimeoutFlushes int64 `json:"timeout_flushes"`
	InlineFlushes  int64 `json:"inline_flushes"`

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
	// PlaceWaves counts fused accumulation-window waves, PlaceWaveJobs
	// the single-job /place calls they absorbed, PlaceInline the
	// single-job calls served inline because nothing was in flight, and
	// PlaceShed the single-job calls shed to the direct path because the
	// accumulation queue was full (overload). All zero unless
	// PlacementConfig.Window is set.
	PlaceWaves    int64 `json:"place_waves,omitempty"`
	PlaceWaveJobs int64 `json:"place_wave_jobs,omitempty"`
	PlaceInline   int64 `json:"place_inline,omitempty"`
	PlaceShed     int64 `json:"place_shed,omitempty"`

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
		FullFlushes:     m.fullFlushes.Load(),
		IdleFlushes:     m.idleFlushes.Load(),
		TimeoutFlushes:  m.timeoutFlushes.Load(),
		InlineFlushes:   m.inlineFlushes.Load(),
		Placed:          m.placed.Load(),
		PlaceUnplaced:   m.placeUnplaced.Load(),
		PlaceRejected:   m.placeRejected.Load(),
		Completed:       m.completed.Load(),
		CompleteUnknown: m.completeUnknown.Load(),
		CompleteStale:   m.completeStale.Load(),
		PlaceWaves:      m.placeWaves.Load(),
		PlaceWaveJobs:   m.placeWaveJobs.Load(),
		PlaceInline:     m.placeInline.Load(),
		PlaceShed:       m.placeShed.Load(),
		FailEvents:      m.failEvents.Load(),
		DegradeEvents:   m.degradeEvents.Load(),
		RecoverEvents:   m.recoverEvents.Load(),
		Orphaned:        m.orphaned.Load(),
		OrphanReplaced:  m.orphanReplaced.Load(),
		OrphanLost:      m.orphanLost.Load(),
		PlaceNoHealthy:  m.placeNoHealthy.Load(),
	}
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
		sc := v.(*snapCounters)
		sm := SnapshotMetrics{
			Version:      k.(uint64),
			Batches:      sc.batches.Load(),
			Queries:      sc.queries.Load(),
			MaxBatchSize: int(sc.maxSize.Load()),
		}
		if sm.Batches > 0 {
			sm.MeanBatch = float64(sm.Queries) / float64(sm.Batches)
		}
		out.PerSnapshot = append(out.PerSnapshot, sm)
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
