package sched

import "fmt"

// Candidate is one feasible placement option under consideration: the
// platform, the policy's scores for it, and the platform's load (resident
// count) before this job joins. Score is the feasibility value (compared
// against the deadline; the assignment's Budget) and Rank what strategies
// order candidates by, each read from the predictor head the Policy names
// for it: equal for the single-head policies (up to the degraded padding
// on Score), the bound and the (padded) mean for the mixed-head ones.
type Candidate struct {
	Platform int
	Score    float64
	Rank     float64
	Load     int
	// Degraded marks a candidate on a Degraded platform: its Score was
	// padded by Config.DegradedPenalty, and the built-in strategies prefer
	// healthy platforms when their primary criterion ties.
	Degraded bool
}

// Strategy selects among feasible candidates by their Rank, Load and
// Degraded flag. Better reports whether a strictly beats b for the job;
// the engine scans platforms in ascending index order and keeps the first
// best, so any complete non-strict order yields deterministic placements.
// The three built-in strategies are compared inline; any other goes
// through this interface.
type Strategy interface {
	Name() string
	Better(job Job, a, b Candidate) bool
}

// LeastLoaded picks the platform with the fewest residents, breaking ties
// by the loosest ranking score — spreading load and keeping fast platforms
// free for tight deadlines. This is the classic headroom-preserving
// default.
type LeastLoaded struct{}

// Name implements Strategy.
func (LeastLoaded) Name() string { return "least-loaded" }

// Better implements Strategy.
func (LeastLoaded) Better(job Job, a, b Candidate) bool {
	return leastLoadedBetter(pickOf(a), pickOf(b))
}

func leastLoadedBetter(a, b pick) bool {
	if a.load != b.load {
		return a.load < b.load
	}
	if a.degraded != b.degraded {
		return !a.degraded
	}
	return a.rank > b.rank
}

// BestFit picks the feasible platform whose ranking score sits closest to
// the deadline (minimal headroom): jobs pack onto just-fast-enough
// platforms, preserving the fastest ones for jobs that genuinely need
// them. Under a mixed-head policy this is "best-fit on the mean, feasible
// on the bound": packing density comes from the cheap estimate while the
// deadline guarantee stays conformal.
type BestFit struct{}

// Name implements Strategy.
func (BestFit) Name() string { return "best-fit" }

// Better implements Strategy.
func (BestFit) Better(job Job, a, b Candidate) bool {
	return bestFitBetter(job.Deadline, pickOf(a), pickOf(b))
}

func bestFitBetter(deadline float64, a, b pick) bool {
	ha, hb := deadline-a.rank, deadline-b.rank
	if ha != hb {
		return ha < hb
	}
	if a.degraded != b.degraded {
		return !a.degraded
	}
	return a.load < b.load
}

// UtilizationAware minimizes the platform's projected occupancy — the
// ranking score weighted by the post-placement resident count — a proxy
// for total predicted busy-time that balances runtime cost against
// crowding.
type UtilizationAware struct{}

// Name implements Strategy.
func (UtilizationAware) Name() string { return "utilization" }

// Better implements Strategy.
func (UtilizationAware) Better(job Job, a, b Candidate) bool {
	return utilizationBetter(pickOf(a), pickOf(b))
}

func utilizationBetter(a, b pick) bool {
	ua, ub := a.rank*float64(a.load+1), b.rank*float64(b.load+1)
	if ua != ub {
		return ua < ub
	}
	if a.degraded != b.degraded {
		return !a.degraded
	}
	return a.load < b.load
}

// pick is what the built-in strategies compare: a candidate's ranking
// score, load and degraded flag. Small enough for the compiler to keep in
// registers, so the wave path's selection scan compares picks directly
// instead of copying whole Candidates into each Better call.
type pick struct {
	rank     float64
	load     int
	degraded bool
}

func pickOf(c Candidate) pick { return pick{rank: c.Rank, load: c.Load, degraded: c.Degraded} }

// ParseStrategy resolves a strategy by name: "least-loaded", "best-fit",
// or "utilization".
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "least-loaded":
		return LeastLoaded{}, nil
	case "best-fit":
		return BestFit{}, nil
	case "utilization":
		return UtilizationAware{}, nil
	}
	return nil, fmt.Errorf("sched: unknown strategy %q (want least-loaded, best-fit, or utilization)", name)
}
