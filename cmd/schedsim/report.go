// Machine-readable artifacts of the streaming simulation: the per-trial
// failure/retry/miss scorecard (-scorecard-json) and the flight-recorder
// Chrome trace dump (-trace-out), each self-validated before schedsim
// exits so CI can gate on them without external tooling.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"repro/internal/obs"
	"repro/internal/sched"
)

// scorecardRow is one replay outcome in the -scorecard-json report — a
// trial row (Trial >= 0) or the cross-trial aggregate (Trial == -1). Field
// semantics match sched.StreamResult.
type scorecardRow struct {
	Trial              int     `json:"trial"`
	Arrived            int     `json:"arrived"`
	Placed             int     `json:"placed"`
	Unplaced           int     `json:"unplaced"`
	Rejected           int     `json:"rejected"`
	Completed          int     `json:"completed"`
	Missed             int     `json:"missed"`
	MissRate           float64 `json:"miss_rate"`
	AvgHeadroom        float64 `json:"avg_headroom"`
	RetryQueued        int     `json:"retry_queued"`
	Retries            int     `json:"retries"`
	RetryPlaced        int     `json:"retry_placed"`
	Failures           int     `json:"failures,omitempty"`
	Degrades           int     `json:"degrades,omitempty"`
	Orphaned           int     `json:"orphaned,omitempty"`
	OrphanReplaced     int     `json:"orphan_replaced,omitempty"`
	OrphanLost         int     `json:"orphan_lost,omitempty"`
	OrphanLatencyMean  float64 `json:"orphan_latency_mean_s,omitempty"`
	OrphanLatencyMax   float64 `json:"orphan_latency_max_s,omitempty"`
	BreakerTrips       int     `json:"breaker_trips,omitempty"`
	BreakerReadmits    int     `json:"breaker_readmits,omitempty"`
	BreakerCloses      int     `json:"breaker_closes,omitempty"`
	FailWindowPlaced   int     `json:"fail_window_placed,omitempty"`
	FailWindowMissed   int     `json:"fail_window_missed,omitempty"`
	FailWindowMissRate float64 `json:"fail_window_miss_rate,omitempty"`
}

func toScorecardRow(trial int, r sched.StreamResult) scorecardRow {
	return scorecardRow{
		Trial:              trial,
		Arrived:            r.Arrived,
		Placed:             r.Placed,
		Unplaced:           r.Unplaced,
		Rejected:           r.Rejected,
		Completed:          r.Completed,
		Missed:             r.Missed,
		MissRate:           r.MissRate,
		AvgHeadroom:        r.AvgHeadroom,
		RetryQueued:        r.RetryQueued,
		Retries:            r.Retries,
		RetryPlaced:        r.RetryPlaced,
		Failures:           r.Failures,
		Degrades:           r.Degrades,
		Orphaned:           r.Orphaned,
		OrphanReplaced:     r.OrphanReplaced,
		OrphanLost:         r.OrphanLost,
		OrphanLatencyMean:  r.OrphanLatencyMean,
		OrphanLatencyMax:   r.OrphanLatencyMax,
		BreakerTrips:       r.BreakerTrips,
		BreakerReadmits:    r.BreakerReadmits,
		BreakerCloses:      r.BreakerCloses,
		FailWindowPlaced:   r.FailWindowPlaced,
		FailWindowMissed:   r.FailWindowMissed,
		FailWindowMissRate: r.FailWindowMissRate,
	}
}

// scorecardPolicy is one swept policy's aggregate plus its trial rows.
type scorecardPolicy struct {
	Policy    string         `json:"policy"`
	Aggregate scorecardRow   `json:"aggregate"`
	Trials    []scorecardRow `json:"trials"`
}

// scorecard is the top-level -scorecard-json document (same shape family
// as the -bench-json policy sweep: a "bench" name plus run parameters).
type scorecard struct {
	Bench      string            `json:"bench"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Seed       int64             `json:"seed"`
	JobsPer    int               `json:"jobs_per_trial"`
	Trials     int               `json:"trials"`
	Platforms  int               `json:"platforms"`
	Strategy   string            `json:"strategy"`
	Eps        float64           `json:"eps"`
	Chaos      bool              `json:"chaos"`
	Policies   []scorecardPolicy `json:"policies"`
}

func newScorecard(seed int64, jobs, trials, platforms int, strategy string, eps float64, chaos bool) *scorecard {
	return &scorecard{
		Bench:      "stream_scorecard",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		JobsPer:    jobs,
		Trials:     trials,
		Platforms:  platforms,
		Strategy:   strategy,
		Eps:        eps,
		Chaos:      chaos,
	}
}

func (sc *scorecard) add(policy string, agg sched.StreamResult, trials []sched.StreamResult) {
	p := scorecardPolicy{Policy: policy, Aggregate: toScorecardRow(-1, agg)}
	for tr, r := range trials {
		p.Trials = append(p.Trials, toScorecardRow(tr, r))
	}
	sc.Policies = append(sc.Policies, p)
}

func (sc *scorecard) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sc); err != nil {
		f.Close()
		return fmt.Errorf("scorecard-json: %w", err)
	}
	return f.Close()
}

// writeTrace dumps the flight recorder as a Chrome trace-event file and
// self-validates the artifact by re-reading it: the file must parse, carry
// events, and conserve the placement lifecycle (every place instant pairs
// with a complete or orphan instant). Validation is skipped with a warning
// when the ring overflowed — a truncated window cannot balance.
func writeTrace(path string, rec *obs.Recorder) error {
	evs := rec.Events()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, evs); err != nil {
		f.Close()
		return fmt.Errorf("trace-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("trace-out: re-read: %w", err)
	}
	var trace obs.ChromeTrace
	if err := json.Unmarshal(raw, &trace); err != nil {
		return fmt.Errorf("trace-out: %s is not valid trace JSON: %w", path, err)
	}
	if len(trace.TraceEvents) == 0 {
		return fmt.Errorf("trace-out: %s contains no events", path)
	}
	counts := map[string]int{}
	spans := 0
	for _, e := range trace.TraceEvents {
		switch e.Ph {
		case "i":
			counts[e.Name]++
		case "X":
			spans++
		default:
			return fmt.Errorf("trace-out: unexpected phase %q in %s", e.Ph, path)
		}
	}
	fmt.Printf("\ntrace: %d events -> %s (place %d, complete %d, orphan %d, retry %d, shed %d, spans %d)\n",
		len(trace.TraceEvents), path,
		counts["place"], counts["complete"], counts["orphan"], counts["retry"], shedCount(counts), spans)
	if rec.Dropped() > 0 {
		fmt.Printf("trace: ring overflowed (%d events dropped) — lifecycle conservation not checked\n", rec.Dropped())
		return nil
	}
	if counts["place"] == 0 {
		return fmt.Errorf("trace-out: no place events recorded")
	}
	if got, want := counts["complete"]+counts["orphan"], counts["place"]; got != want {
		return fmt.Errorf("trace-out: lifecycle not conserved: complete %d + orphan %d != place %d",
			counts["complete"], counts["orphan"], want)
	}
	return nil
}

// shedCount sums the per-reason shed instants ("shed", "shed/<reason>").
func shedCount(counts map[string]int) int {
	n := 0
	for name, c := range counts {
		if name == "shed" || len(name) > 5 && name[:5] == "shed/" {
			n += c
		}
	}
	return n
}

// writeBenchJSON persists a bench report (-bench-json) as indented JSON.
func writeBenchJSON(path string, report any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
