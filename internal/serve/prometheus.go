package serve

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// WritePrometheus renders the server's counters and snapshot gauges in the
// Prometheus plain-text exposition format (version 0.0.4) — the scrape
// surface behind GET /metrics. Counter semantics match Metrics; snapshot
// attribution appears as version-labeled series over the retained window.
func (s *Server) WritePrometheus(w io.Writer) error {
	m := s.Metrics()
	info := s.Info()
	var b strings.Builder

	c := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	c("pitot_requests_total", "Prediction requests admitted (estimate and bound).", m.Requests)
	c("pitot_rejected_total", "Requests rejected by admission control (MaxQueue calls in flight).", m.Rejected)
	c("pitot_observes_total", "Observe calls forwarded to the predictor.", m.Observes)
	c("pitot_observe_errors_total", "Observe calls that returned an error.", m.ObserveErrors)
	if s.placer != nil {
		c("pitot_placed_total", "Jobs placed on a platform.", m.Placed)
		c("pitot_place_unplaced_total", "Jobs with no feasible platform.", m.PlaceUnplaced)
		c("pitot_place_rejected_total", "Jobs rejected by placement admission control.", m.PlaceRejected)
		c("pitot_completed_total", "Placed jobs retired via /complete.", m.Completed)
		c("pitot_complete_unknown_total", "Completion calls for IDs the scheduler never issued.", m.CompleteUnknown)
		c("pitot_complete_stale_total", "Completion calls for already-retired jobs (duplicates or orphans).", m.CompleteStale)
		c("pitot_fail_events_total", "Platform failures injected via /fail.", m.FailEvents)
		c("pitot_degrade_events_total", "Platform degradations injected via /fail.", m.DegradeEvents)
		c("pitot_recover_events_total", "Platform recoveries via /recover.", m.RecoverEvents)
		c("pitot_orphaned_total", "Resident jobs orphaned by platform failures.", m.Orphaned)
		c("pitot_orphan_replaced_total", "Orphaned jobs re-placed on a surviving platform.", m.OrphanReplaced)
		c("pitot_orphan_lost_total", "Orphaned jobs shed (no surviving platform could take them).", m.OrphanLost)
		c("pitot_place_no_healthy_total", "Jobs shed because no healthy platform remained.", m.PlaceNoHealthy)
		c("pitot_breaker_trips_total", "Circuit-breaker quarantine trips.", int64(m.BreakerTrips))
		c("pitot_breaker_readmits_total", "Half-open re-admissions of quarantined platforms.", int64(m.BreakerReadmits))
		c("pitot_breaker_closes_total", "Probations closed back to healthy.", int64(m.BreakerCloses))
		c("pitot_place_reserve_attempts_total", "Version-checked slot reservations attempted by the placement engine.", int64(m.ReserveAttempts))
		c("pitot_place_conflicts_total", "Slot reservations refused because a lifecycle event moved the platform after its view was copied.", int64(m.ReserveConflicts))
		c("pitot_place_conflict_shed_total", "Jobs shed after exhausting their conflict-retry budget.", int64(m.PlaceConflictShed))
		c("pitot_place_score_cache_hits_total", "Placement score cells (platform, workload) served from the wave score table.", int64(m.ScoreCacheHits))
		c("pitot_place_score_cache_misses_total", "Placement score cells (platform, workload) scored through the predictor.", int64(m.ScoreCacheMisses))
		fmt.Fprintf(&b, "# HELP pitot_place_in_flight Placed jobs not yet completed.\n# TYPE pitot_place_in_flight gauge\npitot_place_in_flight %d\n",
			s.placer.InFlight())
		// Placement-stack latency histograms (attached by EnablePlacement):
		// batched scoring, whole-wave placement, per-chunk placement-lock
		// hold, and the wave-size distribution.
		if s.schedMetrics != nil {
			s.schedMetrics.ScoreBatch.WritePrometheus(&b)
			s.schedMetrics.WavePlace.WritePrometheus(&b)
			s.schedMetrics.ChunkHold.WritePrometheus(&b)
			s.schedMetrics.WaveSize.WritePrometheus(&b)
		}
		// 0=healthy 1=degraded 2=quarantined 3=down, matching sched.HealthState.
		fmt.Fprintf(&b, "# HELP pitot_platform_health Platform health state (0=healthy 1=degraded 2=quarantined 3=down).\n# TYPE pitot_platform_health gauge\n")
		for p, h := range s.placer.HealthSnapshot() {
			fmt.Fprintf(&b, "pitot_platform_health{platform=\"%d\"} %d\n", p, h)
		}
	}

	// Per-platform calibration staleness: how many snapshot versions each
	// platform's serving bounds lag the freshest measurements observed for
	// it (never-observed platforms lag the whole version history).
	fmt.Fprintf(&b, "# HELP pitot_platform_calibration_lag Snapshot versions the platform's calibration lags its freshest observed measurements.\n# TYPE pitot_platform_calibration_lag gauge\n")
	for p, lag := range s.PlatformCalibrationLag() {
		fmt.Fprintf(&b, "pitot_platform_calibration_lag{platform=\"%d\"} %d\n", p, lag)
	}

	// End-to-end request-latency histograms on the ungated serving surface.
	s.hists.estimate.WritePrometheus(&b)
	s.hists.bound.WritePrometheus(&b)
	s.hists.place.WritePrometheus(&b)
	s.hists.observeFlush.WritePrometheus(&b)

	fmt.Fprintf(&b, "# HELP pitot_uptime_seconds Time since the server started.\n# TYPE pitot_uptime_seconds gauge\npitot_uptime_seconds %g\n",
		time.Since(s.start).Seconds())
	fmt.Fprintf(&b, "# HELP pitot_build_info Build metadata (constant 1; version from -ldflags).\n# TYPE pitot_build_info gauge\npitot_build_info{version=%q} 1\n",
		s.cfg.BuildVersion)

	fmt.Fprintf(&b, "# HELP pitot_snapshot_version Currently published model snapshot version.\n# TYPE pitot_snapshot_version gauge\npitot_snapshot_version %d\n", info.Version)
	fmt.Fprintf(&b, "# HELP pitot_snapshot_observations Dataset size of the published snapshot.\n# TYPE pitot_snapshot_observations gauge\npitot_snapshot_observations %d\n", info.Observations)

	fmt.Fprintf(&b, "# HELP pitot_snapshot_queries_total Queries served per model snapshot (retained window).\n# TYPE pitot_snapshot_queries_total counter\n")
	for _, sm := range m.PerSnapshot {
		fmt.Fprintf(&b, "pitot_snapshot_queries_total{version=\"%d\"} %d\n", sm.Version, sm.Queries)
	}

	_, err := io.WriteString(w, b.String())
	return err
}
