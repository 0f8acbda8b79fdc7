package sched

import (
	"fmt"
	"math"
)

// head names one of the predictor's two outputs: the expected runtime or
// the conformal (1−eps) budget.
type head uint8

const (
	headMean head = iota
	headBound
)

// Policy says which predictor head a placement decision reads for each of
// its two facets, feasibility (compared against the deadline, and reported
// as the assignment's Budget) and ranking (what strategies order the
// feasible platforms by), and the pad factor every mean read is multiplied
// by (1 for the unpadded policies). ParsePolicy builds one by name; the
// zero value is not a policy, and New rejects it.
type Policy struct {
	name       string
	feas, rank head
	factor     float64
	eps        float64
}

// Name is the policy's display name, as reported in stream results.
func (p Policy) Name() string { return p.name }

// NeedsBounds reports whether the policy reads the conformal bound head,
// which only a quantile-trained predictor serves.
func (p Policy) NeedsBounds() bool { return p.reads(headBound) }

func (p Policy) reads(h head) bool { return p.feas == h || p.rank == h }

// ParsePolicy resolves a policy by name: "mean" (the expected runtime for
// both facets, which underestimates tail latency), "padded" (the mean
// times factor, a heuristic with no calibration guarantee), "bound" (the
// conformal (1−eps)-sufficient budget, a per-job probabilistic deadline
// guarantee), or the mixed-head "mean-bound" and "padded-bound"
// (feasibility on the bound, ranking on the mean or the padded mean, so
// e.g. BestFit packs on mean headroom under the bound's guarantee).
// factor must be a positive finite number, or 0 for the default 1.3; the
// bound policies need eps in (0,1).
func ParsePolicy(name string, eps, factor float64) (Policy, error) {
	if factor == 0 {
		factor = 1.3
	}
	if !(factor > 0) || math.IsInf(factor, 1) {
		return Policy{}, fmt.Errorf("sched: pad factor must be a positive finite number, got %v", factor)
	}
	var p Policy
	switch name {
	case "mean":
		p = Policy{name: "mean", feas: headMean, rank: headMean, factor: 1}
	case "padded":
		p = Policy{name: fmt.Sprintf("mean*%.1f", factor), feas: headMean, rank: headMean, factor: factor}
	case "bound":
		p = Policy{name: fmt.Sprintf("bound(eps=%.2f)", eps), feas: headBound, rank: headBound, factor: 1}
	case "mean-bound":
		p = Policy{name: fmt.Sprintf("mean|bound(eps=%.2f)", eps), feas: headBound, rank: headMean, factor: 1}
	case "padded-bound":
		p = Policy{name: fmt.Sprintf("padded*%.1f|bound(eps=%.2f)", factor, eps),
			feas: headBound, rank: headMean, factor: factor}
	default:
		return Policy{}, fmt.Errorf("sched: unknown policy %q (want mean, padded, bound, mean-bound, or padded-bound)", name)
	}
	if p.NeedsBounds() {
		if !(eps > 0 && eps < 1) {
			return Policy{}, fmt.Errorf("sched: %s policy needs eps in (0,1), got %v", name, eps)
		}
		p.eps = eps
	}
	return p, nil
}
