package sched

import (
	"errors"
	"fmt"
)

// HealthState is a platform's position in the failure lifecycle. Healthy
// and Degraded platforms accept placements (Degraded ones with a
// bound-padding penalty, Config.DegradedPenalty); Quarantined and Down
// platforms are excluded from every candidate set. The transitions are
// driven by the scheduler's failure events:
//
//	Fail     → Down         (residents orphaned)
//	Degrade  → Degraded     (flaky but alive; residents stay)
//	Recover  → half-open probation (from Down/Quarantined) or Healthy
//	           (from Degraded)
//	breaker  → Quarantined  (observed miss rate over the window crossed
//	           the threshold, or a miss during probation)
type HealthState uint8

const (
	// Healthy platforms take placements at full capacity, unpenalized.
	Healthy HealthState = iota
	// Degraded platforms take placements with the feasibility score
	// inflated by Config.DegradedPenalty — a flaky platform has to clear
	// the deadline with padding to spare. Half-open probation is a
	// Degraded state with a colocation cap of one trial job.
	Degraded
	// Quarantined platforms are excluded from placement: the circuit
	// breaker tripped (or an operator quarantined them). Residents keep
	// running; completions are still accepted.
	Quarantined
	// Down platforms failed: their residents were orphaned and the
	// platform takes no placements until recovered.
	Down
)

// String implements fmt.Stringer.
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Quarantined:
		return "quarantined"
	case Down:
		return "down"
	}
	return fmt.Sprintf("health(%d)", uint8(h))
}

// Placeable reports whether a platform in this state may receive jobs.
func (h HealthState) Placeable() bool { return h == Healthy || h == Degraded }

// ErrPlatformOutOfRange is returned by the failure-event methods for a
// platform index outside [0, NumPlatforms).
var ErrPlatformOutOfRange = errors.New("sched: platform index out of range")

// ErrPlatformUnavailable is returned by Degrade for a platform that is
// Down or Quarantined (recover it first).
var ErrPlatformUnavailable = errors.New("sched: platform unavailable")

// Orphan is one resident lost to a platform failure: the job's retired ID
// (Complete on it returns ErrJobCompleted) and the Job itself, so callers
// can funnel it back into placement as high-priority rescheduling work.
type Orphan struct {
	ID  JobID
	Job Job
}

// BreakerConfig tunes the per-platform circuit breaker: a sliding window
// of observed outcomes (reported via CompleteOutcome) trips the platform
// into Quarantined when the window miss rate crosses Threshold. Recover
// re-admits the platform half-open: one trial job at a time, with
// Probation consecutive on-deadline completions required to close back to
// Healthy, and any miss during probation re-tripping the quarantine.
type BreakerConfig struct {
	// Window is the number of recent outcomes tracked per platform
	// (default 20).
	Window int
	// Threshold trips the breaker when misses/outcomes over the window
	// reaches it (with at least MinSamples outcomes). 0 disables
	// automatic trips; probation semantics still apply after Recover.
	Threshold float64
	// MinSamples is the minimum outcomes in the window before a trip is
	// considered (default Window/2, at least 1).
	MinSamples int
	// Probation is the number of consecutive on-deadline completions a
	// half-open platform needs to close back to Healthy (default 3).
	Probation int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Window <= 0 {
		c.Window = 20
	}
	if c.MinSamples <= 0 {
		c.MinSamples = c.Window / 2
		if c.MinSamples < 1 {
			c.MinSamples = 1
		}
	}
	if c.Probation <= 0 {
		c.Probation = 3
	}
	return c
}

// healthCore is one platform's failure-lifecycle state plus its breaker
// window, guarded by the slot store's mutex. The outcome ring is allocated
// lazily on first use.
type healthCore struct {
	state     HealthState
	probation bool // half-open: state==Degraded, colocation capped at 1
	probLeft  int  // consecutive successes still needed to close

	outcomes     []bool // ring of recent outcomes, true = missed deadline
	next, filled int
	misses       int
}

// fail transitions to Down, reporting false when already Down (a no-op).
func (h *healthCore) fail() bool {
	if h.state == Down {
		return false
	}
	h.state = Down
	h.probation = false
	h.resetWindow()
	return true
}

// degrade marks the platform Degraded. Applied is false for the no-op
// (already plainly Degraded); an explicit Degrade during probation converts
// the half-open trial into a plain degraded platform (full capacity,
// padded). Callers must reject Down/Quarantined platforms first.
func (h *healthCore) degrade() (applied bool) {
	switch h.state {
	case Healthy:
		h.state = Degraded
		return true
	case Degraded:
		if h.probation {
			h.probation = false
			return true
		}
	}
	return false
}

// recover advances toward Healthy: Down/Quarantined re-enter half-open
// probation (readmitted), Degraded closes to Healthy (closedProbation when
// it was a half-open trial). Callers skip the Healthy no-op.
func (h *healthCore) recover(probation int) (readmitted, closedProbation bool) {
	switch h.state {
	case Down, Quarantined:
		h.state = Degraded
		h.probation = true
		h.probLeft = probation
		h.resetWindow()
		return true, false
	case Degraded:
		closedProbation = h.probation
		h.state = Healthy
		h.probation = false
		h.resetWindow()
	}
	return false, closedProbation
}

// noteOutcome feeds one observed execution outcome through the probation
// and breaker-window state, reporting a quarantine trip (threshold
// crossing, or a miss during probation) or a probation closing healthy.
func (h *healthCore) noteOutcome(miss bool, br BreakerConfig) (tripped, closed bool) {
	if h.state == Down || h.state == Quarantined {
		// Stragglers completing on a failed/quarantined platform carry no
		// signal about its future admission.
		return false, false
	}
	if h.probation {
		if miss {
			h.state = Quarantined
			h.probation = false
			h.resetWindow()
			return true, false
		}
		h.probLeft--
		if h.probLeft <= 0 {
			h.state = Healthy
			h.probation = false
			h.resetWindow()
			return false, true
		}
		return false, false
	}
	if br.Threshold <= 0 {
		return false, false
	}
	if h.outcomes == nil {
		h.outcomes = make([]bool, br.Window)
	}
	if h.filled == len(h.outcomes) {
		if h.outcomes[h.next] {
			h.misses--
		}
	} else {
		h.filled++
	}
	h.outcomes[h.next] = miss
	if miss {
		h.misses++
	}
	h.next = (h.next + 1) % len(h.outcomes)
	if h.filled >= br.MinSamples &&
		float64(h.misses) >= br.Threshold*float64(h.filled) {
		h.state = Quarantined
		h.resetWindow()
		return true, false
	}
	return false, false
}

// FailureStats counts the scheduler's failure-lifecycle events since
// construction.
type FailureStats struct {
	// Fails/Degrades/Recovers count applied failure events (no-ops —
	// failing a Down platform, recovering a Healthy one — are excluded).
	Fails    uint64
	Degrades uint64
	Recovers uint64
	// Orphaned counts residents displaced by Fail.
	Orphaned uint64
	// Trips counts quarantine entries: breaker threshold crossings plus
	// re-trips from a miss during probation. Readmissions counts half-open
	// entries (Recover on a Down/Quarantined platform); Closes counts
	// probations completing back to Healthy.
	Trips        uint64
	Readmissions uint64
	Closes       uint64
}

func (h *healthCore) resetWindow() {
	h.next, h.filled, h.misses = 0, 0, 0
}
