package serve

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sched"
)

// histState tracks per-histogram-family invariants while the parser walks
// the family's sample block.
type histState struct {
	lastLe    float64 // last bucket upper bound seen (must ascend)
	lastCum   float64 // last cumulative bucket value seen (must be monotone)
	infCum    float64 // the +Inf bucket's value
	infSeen   bool
	sumSeen   bool
	count     float64
	countSeen bool
}

// parseExposition validates Prometheus text exposition format 0.0.4
// structure: every sample's metric name is declared by a # HELP and a
// # TYPE (HELP first) before its first sample, declarations are unique,
// and a metric's samples are contiguous — no samples after another
// metric's declarations begin. Histogram families additionally must emit
// strictly ascending le bounds with monotone non-decreasing cumulative
// counts, a +Inf bucket, and _sum/_count samples with +Inf == _count.
// Returns sample counts keyed by family name (histogram _bucket/_sum/
// _count samples all count toward their family).
func parseExposition(t *testing.T, body string) map[string]int {
	t.Helper()
	helped := map[string]bool{}
	typed := map[string]string{}
	samples := map[string]int{}
	hists := map[string]*histState{}
	current := "" // metric family whose sample block is open
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			if helped[name] {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			helped[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			name, kind := fields[0], fields[1]
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("line %d: unexpected type %q for %s", ln+1, kind, name)
			}
			if !helped[name] {
				t.Fatalf("line %d: TYPE for %s precedes its HELP", ln+1, name)
			}
			if _, dup := typed[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			typed[name] = kind
			if kind == "histogram" {
				hists[name] = &histState{lastLe: math.Inf(-1)}
			}
			current = name
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		default:
			// Sample: name{labels} value — strip the label set if present.
			nameEnd := strings.IndexAny(line, "{ ")
			if nameEnd < 0 {
				t.Fatalf("line %d: malformed sample %q", ln+1, line)
			}
			name := line[:nameEnd]
			if !strings.HasPrefix(name, "pitot_") {
				t.Fatalf("line %d: metric %s outside the pitot_ namespace", ln+1, name)
			}
			// Histogram samples carry the family's name plus a _bucket,
			// _sum, or _count suffix; resolve them to their family.
			family := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, suf)
				if base != name && typed[base] == "histogram" {
					family = base
					break
				}
			}
			kind, ok := typed[family]
			if !ok {
				t.Fatalf("line %d: sample for %s has no preceding # TYPE", ln+1, name)
			}
			if kind == "histogram" && family == name {
				t.Fatalf("line %d: bare sample %s inside histogram family", ln+1, name)
			}
			if family != current {
				t.Fatalf("line %d: sample for %s outside its contiguous block (current family %s)", ln+1, name, current)
			}
			valStart := strings.LastIndexByte(line, ' ')
			val, err := strconv.ParseFloat(line[valStart+1:], 64)
			if err != nil {
				t.Fatalf("line %d: unparseable value in %q: %v", ln+1, line, err)
			}
			if st := hists[family]; st != nil {
				switch {
				case strings.HasSuffix(name, "_bucket"):
					leStart := strings.Index(line, `le="`)
					if leStart < 0 {
						t.Fatalf("line %d: histogram bucket without le label: %q", ln+1, line)
					}
					leStr := line[leStart+len(`le="`):]
					leEnd := strings.IndexByte(leStr, '"')
					if leEnd < 0 {
						t.Fatalf("line %d: unterminated le label: %q", ln+1, line)
					}
					le, err := strconv.ParseFloat(leStr[:leEnd], 64)
					if err != nil {
						t.Fatalf("line %d: unparseable le %q: %v", ln+1, leStr[:leEnd], err)
					}
					if le <= st.lastLe {
						t.Fatalf("line %d: bucket bounds not ascending (%g after %g)", ln+1, le, st.lastLe)
					}
					if val < st.lastCum {
						t.Fatalf("line %d: cumulative bucket counts decreased (%g after %g)", ln+1, val, st.lastCum)
					}
					st.lastLe, st.lastCum = le, val
					if math.IsInf(le, 1) {
						st.infSeen, st.infCum = true, val
					}
				case strings.HasSuffix(name, "_sum"):
					st.sumSeen = true
				case strings.HasSuffix(name, "_count"):
					st.countSeen, st.count = true, val
				}
			}
			samples[family]++
		}
	}
	for name, st := range hists {
		if samples[name] == 0 {
			continue // declared but sample-less family (legal)
		}
		if !st.infSeen {
			t.Errorf("histogram %s has no +Inf bucket", name)
		}
		if !st.sumSeen || !st.countSeen {
			t.Errorf("histogram %s missing _sum/_count (sum=%v count=%v)", name, st.sumSeen, st.countSeen)
		}
		if st.infSeen && st.countSeen && st.infCum != st.count {
			t.Errorf("histogram %s: +Inf bucket %g != _count %g", name, st.infCum, st.count)
		}
	}
	// A declared family with zero samples is legal (per-version series
	// before any traffic), so only structural violations fail above.
	return samples
}

// TestPrometheusExpositionWellFormed audits the full /metrics surface with
// every gated series enabled: the commit protocol's conflict counters,
// lifecycle counters, breaker counters, and per-platform gauges must all
// carry # HELP and # TYPE and parse as exposition format.
func TestPrometheusExpositionWellFormed(t *testing.T) {
	pred, ds := testPredictor(t)
	s := New(pred, Config{})
	defer s.Close()
	if err := s.EnablePlacement(PlacementConfig{
		Policy: "bound", Eps: 0.1, MaxColocation: 2,
	}); err != nil {
		t.Fatal(err)
	}

	// Exercise the gated paths so counters are live, not just declared:
	// place a wave, complete part of it, fail and recover a platform.
	var jobs []sched.Job
	for w := 0; w < 4; w++ {
		b, err := pred.Bound(w, w%ds.NumPlatforms(), nil, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, sched.Job{Workload: w, Deadline: b * 3})
	}
	as, err := s.PlaceJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) > 0 && as[0].Placed() {
		if _, _, _, err := s.CompleteJobs([]sched.JobID{as[0].ID}, []bool{false}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.FailPlatform(0); err != nil {
		t.Fatal(err)
	}
	if err := s.RecoverPlatform(0); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, b.String())

	for _, want := range []string{
		"pitot_requests_total",
		"pitot_placed_total",
		"pitot_completed_total",
		"pitot_fail_events_total",
		"pitot_breaker_trips_total",
		"pitot_place_reserve_attempts_total",
		"pitot_place_conflicts_total",
		"pitot_place_conflict_shed_total",
		"pitot_place_in_flight",
		// Score-table counters, exported whenever placement is on.
		"pitot_place_score_cache_hits_total",
		"pitot_place_score_cache_misses_total",
		"pitot_platform_health",
		"pitot_platform_calibration_lag",
		"pitot_snapshot_version",
		"pitot_uptime_seconds",
		"pitot_build_info",
		// Latency/size histogram families (PR 9): the placement stack...
		"pitot_place_score_batch_seconds",
		"pitot_place_wave_seconds",
		"pitot_place_chunk_hold_seconds",
		"pitot_place_wave_jobs",
		// ...and the ungated end-to-end request surface.
		"pitot_http_estimate_seconds",
		"pitot_http_bound_seconds",
		"pitot_http_place_seconds",
		"pitot_observe_flush_seconds",
	} {
		if samples[want] == 0 {
			t.Errorf("series %s missing from exposition", want)
		}
	}
	// The score table evicts nothing and is looked up inline: the old
	// cache's eviction, invalidation, entry and lookup-latency families
	// are gone, and so is the deleted approximate kernel's scoring-mode
	// gauge (the prefix matches every pitot_fast… family). One engine
	// places, so the replica gauge and the shard rebalance counter are
	// gone too. Every call is served on its caller's goroutine, so the
	// micro-batcher's flush counters, the /place accumulation window's
	// counters and the per-snapshot batch count are gone as well.
	for _, gone := range []string{
		"pitot_place_score_cache_evictions_total",
		"pitot_place_score_cache_invalidations_total",
		"pitot_place_score_cache_entries",
		"pitot_place_score_cache_lookup_seconds",
		"pitot_fast",
		"pitot_place_replicas",
		"pitot_place_rebalances_total",
		"pitot_flushes_full_total",
		"pitot_flushes_idle_total",
		"pitot_flushes_timeout_total",
		"pitot_flushes_inline_total",
		"pitot_place_waves_total",
		"pitot_place_wave_jobs_total",
		"pitot_place_inline_total",
		"pitot_place_shed_total",
		"pitot_snapshot_batches_total",
	} {
		if strings.Contains(b.String(), gone) {
			t.Errorf("retired series %s still exported", gone)
		}
	}
	if samples["pitot_platform_health"] != ds.NumPlatforms() {
		t.Errorf("pitot_platform_health has %d samples, want one per platform (%d)",
			samples["pitot_platform_health"], ds.NumPlatforms())
	}
	// The wave actually placed through the instrumented path, so the
	// placement histograms must hold live observations, not just a ladder.
	if s.schedMetrics.WavePlace.Count() == 0 || s.schedMetrics.WaveSize.Count() == 0 {
		t.Errorf("placement wave histograms empty after PlaceJobs (wave=%d size=%d)",
			s.schedMetrics.WavePlace.Count(), s.schedMetrics.WaveSize.Count())
	}
}

// TestPrometheusExpositionWithoutPlacement pins the ungated surface: with
// placement disabled no pitot_place*/pitot_platform_health series leak,
// and the format still parses.
func TestPrometheusExpositionWithoutPlacement(t *testing.T) {
	pred, _ := testPredictor(t)
	s := New(pred, Config{})
	defer s.Close()
	var b strings.Builder
	if err := s.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	samples := parseExposition(t, b.String())
	for name := range samples {
		if strings.HasPrefix(name, "pitot_place") || name == "pitot_platform_health" {
			t.Errorf("placement-gated series %s leaked with placement disabled", name)
		}
	}
	if samples["pitot_requests_total"] == 0 {
		t.Error("pitot_requests_total missing")
	}
	// The request-latency histograms are ungated: they must be exposed (with
	// a full ladder) even before placement is enabled or traffic arrives.
	for _, want := range []string{
		"pitot_http_estimate_seconds",
		"pitot_http_bound_seconds",
		"pitot_http_place_seconds",
		"pitot_observe_flush_seconds",
		"pitot_uptime_seconds",
		"pitot_build_info",
	} {
		if samples[want] == 0 {
			t.Errorf("ungated series %s missing from exposition", want)
		}
	}
}
