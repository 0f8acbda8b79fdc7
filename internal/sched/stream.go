package sched

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/obs"
)

// StreamConfig configures one streaming replay: a Poisson arrival process
// of deadline jobs placed against the live cluster state, with true-runtime
// departures freeing colocation slots and, optionally, measured runtimes
// fed back to the predictor online.
type StreamConfig struct {
	// Jobs is the total number of arrivals.
	Jobs int
	// ArrivalRate is the mean number of arrivals per (simulated) second;
	// inter-arrival times are exponential. Default 1.
	ArrivalRate float64
	// FeedbackEvery flushes buffered measurements to the Observer after
	// every that many completions (0 disables the count trigger).
	FeedbackEvery int
	// FeedbackInterval flushes buffered measurements whenever at least
	// this much simulated time has passed since the previous flush (0
	// disables the time trigger). On sparse completion streams the count
	// trigger alone can starve the Observer for long stretches; the time
	// trigger amortizes Observe cost per wall-clock instead of per
	// completion. Both triggers may be armed together; feedback is off
	// when both are zero or the Observer is nil.
	FeedbackInterval float64
	// RetryLimit re-queues a job whose placement failed (admission
	// rejection or no feasible platform) instead of dropping it: after
	// the next completion frees capacity, queued jobs are retried in FIFO
	// order, up to this many retry attempts each. 0 drops failed jobs
	// immediately (no retry queue) — except orphans of a platform
	// failure, which always get one rescheduling attempt.
	RetryLimit int
	// RetryBackoff spaces retry attempts with capped exponential backoff
	// instead of retrying on the next completion: the k-th retry of a job
	// waits RetryBackoff·2^(k−1) simulated seconds, capped at
	// RetryBackoffMax — or, when RetryBackoffMax is 0, at the default
	// defaultBackoffCapFactor·RetryBackoff, so a high retry limit cannot
	// silently push a deferral past the replay horizon and strand the job.
	// The delay is jittered by a uniform factor in [0.5, 1.5) drawn from
	// the stream rng — deterministic per seed, but staggered, so a
	// recovering cluster is not thundering-herded by every deferred job
	// at once. 0 keeps the completion-triggered FIFO behavior.
	RetryBackoff    float64
	RetryBackoffMax float64
	// BreakerCooldown re-admits a breaker-quarantined platform half-open
	// after this much simulated time. 0 leaves tripped platforms
	// quarantined until a chaos recovery (or forever).
	BreakerCooldown float64
	// Chaos enables the seeded failure injector; nil runs a failure-free
	// replay (bit-identical to streams before the failure model existed).
	Chaos *ChaosConfig
	// Recorder, when non-nil, receives the stream's lifecycle events
	// (enqueue, place, retry, orphan, complete, shed) keyed by the 1-based
	// arrival index — stable across re-placements, unlike the JobID a
	// re-placed orphan gets reissued. Event.ID carries the scheduler JobID
	// of each placement. Independent of Config.Recorder (scheduler-keyed);
	// attach one, not both, unless you want both key spaces in one ring.
	// Recording never touches the stream's rng, so traced replays place
	// identically to untraced ones.
	Recorder *obs.Recorder
}

// ChaosConfig is the stream's deterministic failure injector: each failure
// group (a set of platforms sharing a fault domain — a rack, a power
// domain) cycles down and up with exponential times, MTTF mean time to
// failure and MTTR mean time to repair. Every draw comes from a dedicated
// rng seeded with Seed, so chaos never perturbs the arrival/job stream:
// the same replay with chaos off places the same jobs at the same times.
type ChaosConfig struct {
	// MTTF is each group's mean (simulated) seconds between repair and the
	// next failure. Chaos is off unless MTTF > 0.
	MTTF float64
	// MTTR is the group's mean seconds from failure to repair; default
	// MTTF/10.
	MTTR float64
	// Groups are the correlated failure domains; every platform in a
	// group fails and recovers together. Nil means every platform is its
	// own group (independent failures).
	Groups [][]int
	// DegradeProb is the chance a failing platform goes flaky (Degraded:
	// residents keep running, placements get the penalty) instead of
	// hard-Down (residents orphaned).
	DegradeProb float64
	// Seed seeds the injector's private rng.
	Seed int64
}

// StreamResult aggregates one streaming replay (or several, via
// AggregateStream).
type StreamResult struct {
	Policy   string
	Strategy string
	Arrived  int
	// Placed counts placement commits, including re-placements of orphaned
	// jobs — under chaos one arrival can be placed more than once. Every
	// arrival ends in exactly one of Completed/Unplaced/Rejected, and
	// every placement in Completed or Orphaned:
	//
	//	Arrived == Completed + Unplaced + Rejected
	//	Placed  == Completed + Orphaned   (nothing lost, nothing duplicated)
	Placed   int
	Unplaced int
	// Rejected counts admission-control refusals (cluster at MaxInFlight).
	Rejected  int
	Completed int
	// Missed counts completions whose true runtime exceeded the deadline;
	// MissRate is Missed/Completed — the per-execution quantity the bound
	// policy's eps controls. (Identical to the historical Missed/Placed on
	// failure-free replays, where every placement completes.)
	Missed   int
	MissRate float64
	// AvgHeadroom is the mean (deadline−runtime)/deadline over completed
	// jobs with finite positive deadlines.
	AvgHeadroom float64
	headroomSum float64
	headroomN   int
	// PostPlaced/PostMissed restrict to jobs placed after the first online
	// feedback update was absorbed — the "after Observe" miss rate the
	// feedback loop is judged on. Zero-valued without feedback.
	PostPlaced   int
	PostMissed   int
	PostMissRate float64
	// Observed counts measurements fed back to the Observer.
	Observed int
	// RetryQueued counts jobs that entered the retry queue after a failed
	// placement; Retries counts placement re-attempts made for them;
	// RetryPlaced counts the subset eventually placed by a retry.
	// RetryRate is RetryPlaced/RetryQueued — the fraction of would-be
	// drops the deferral queue saved. All zero when RetryLimit is 0.
	// Orphan rescheduling is tracked separately (Orphan* fields).
	RetryQueued int
	Retries     int
	RetryPlaced int
	RetryRate   float64

	// Failure-lifecycle scorecard; all zero on failure-free replays.
	// Failures/Degrades/Recovers count applied scheduler failure events;
	// Orphaned counts residents displaced by platform failures,
	// OrphanReplaced the subset re-placed on a surviving platform, and
	// OrphanLost the subset dropped (also counted in Unplaced/Rejected, so
	// arrival conservation still balances). OrphanLatencyMean/Max measure
	// simulated seconds from orphaning to re-placement.
	Failures       int
	Degrades       int
	Recovers       int
	Orphaned       int
	OrphanReplaced int
	OrphanLost     int
	orphanLatSum   float64

	OrphanLatencyMean float64
	OrphanLatencyMax  float64
	// BreakerTrips/Readmits/Closes count circuit-breaker quarantine
	// entries, half-open re-admissions, and probations closed back to
	// Healthy.
	BreakerTrips    int
	BreakerReadmits int
	BreakerCloses   int
	// FailWindowPlaced/Missed restrict to completions of jobs placed
	// while at least one platform was impaired (not Healthy) — the
	// during-failure miss rate the failure model is judged on.
	FailWindowPlaced   int
	FailWindowMissed   int
	FailWindowMissRate float64
}

func (r *StreamResult) finalize() {
	if r.Completed > 0 {
		r.MissRate = float64(r.Missed) / float64(r.Completed)
	}
	if r.headroomN > 0 {
		r.AvgHeadroom = r.headroomSum / float64(r.headroomN)
	}
	if r.PostPlaced > 0 {
		r.PostMissRate = float64(r.PostMissed) / float64(r.PostPlaced)
	}
	if r.RetryQueued > 0 {
		r.RetryRate = float64(r.RetryPlaced) / float64(r.RetryQueued)
	}
	if r.OrphanReplaced > 0 {
		r.OrphanLatencyMean = r.orphanLatSum / float64(r.OrphanReplaced)
	}
	if r.FailWindowPlaced > 0 {
		r.FailWindowMissRate = float64(r.FailWindowMissed) / float64(r.FailWindowPlaced)
	}
}

// defaultBackoffCapFactor caps the retry backoff exponential at
// 2^6 = 64× the base delay when RetryBackoffMax is unset: six doublings
// of spacing is past the point where further backoff helps a simulated
// cluster drain, and an explicit cap keeps notBefore within reach of the
// replay horizon regardless of RetryLimit.
const defaultBackoffCapFactor = 64

// backoffDelay returns the jittered exponential delay inserted before a
// job's tries-th placement attempt re-enters the queue. The uncapped
// exponential was a stranding bug: with RetryBackoffMax unset, a job on
// its 30th retry would be deferred 2^29 backoff units — far past any
// horizon — and silently dropped at stream end.
func (cfg StreamConfig) backoffDelay(tries int, rng *rand.Rand) float64 {
	d := cfg.RetryBackoff * math.Pow(2, float64(tries-1))
	lim := cfg.RetryBackoffMax
	if lim <= 0 {
		lim = cfg.RetryBackoff * defaultBackoffCapFactor
	}
	if d > lim {
		d = lim
	}
	return d * (0.5 + rng.Float64())
}

// JobSource generates the i-th arriving job of a trial.
type JobSource func(rng *rand.Rand, i int) Job

// eventKind discriminates the simulation clock's entries.
type eventKind uint8

const (
	evArrival eventKind = iota
	evComplete
	evFail    // chaos: a failure group goes down/flaky
	evRecover // chaos: a failure group comes back
	evRetry   // a backoff deadline passed; deferred jobs may be eligible
	evReadmit // breaker cooldown expired; re-admit a quarantined platform
)

// event is one entry of the simulation clock.
type event struct {
	t    float64
	seq  int // tie-break: deterministic order for simultaneous events
	kind eventKind
	// evArrival: the arriving job's index. evComplete: the arrival index
	// of the completing placement (flight-recorder tracking key).
	jobIdx int
	// evComplete: the runtime was drawn at placement time (so the rng
	// stream is placement-ordered), but all miss/headroom accounting
	// happens when the completion lands — an orphaned execution never
	// completes and must not count.
	id         JobID
	m          Measurement
	deadline   float64
	post       bool // placed after the first feedback update
	failWindow bool // placed while ≥1 platform was impaired
	// evFail/evRecover
	group int
	// evReadmit
	platform int
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// retryEntry is one deferred job: a failed placement waiting in the retry
// queue, or an orphan of a platform failure waiting in the (higher
// priority) orphan queue.
type retryEntry struct {
	job        Job
	idx        int  // arrival index (flight-recorder tracking key)
	tries      int  // placement attempts made so far (an arrival counts; an orphaning does not)
	rejected   bool // last failure was an admission rejection, not infeasibility
	orphan     bool
	orphanedAt float64 // orphaning time (orphan-reschedule latency baseline)
	notBefore  float64 // backoff: earliest time the next attempt may run
}

// Stream runs one event-driven replay: jobs arrive with exponential
// inter-arrival times, each placement's true runtime is drawn from the
// oracle under the interference it was placed into, its completion frees
// the colocation slot, and (with obs non-nil and a feedback trigger armed)
// measured runtimes are flushed to the Observer in batches — after which
// the predictor serves updated estimates and recalibrated bounds to
// subsequent placements. With RetryLimit > 0, failed placements re-enter
// after the next completion (or after a backoff delay, with RetryBackoff)
// instead of being dropped, modeling a real orchestrator's deferral queue.
//
// With Chaos configured, platforms fail and recover on a seeded schedule:
// failing a platform orphans its resident jobs into the high-priority
// orphan queue (served before ordinary retries), completions feed the
// circuit breaker via CompleteOutcome, and tripped platforms re-admit
// half-open after BreakerCooldown. Job conservation holds throughout —
// Arrived == Completed + Unplaced + Rejected and Placed == Completed +
// Orphaned. Deterministic given rng and ChaosConfig.Seed.
func Stream(cfg StreamConfig, s *Scheduler, oracle Oracle, source JobSource, observer Observer, rng *rand.Rand) (StreamResult, error) {
	res := StreamResult{Policy: s.policy.Name(), Strategy: s.cfg.Strategy.Name()}
	if cfg.Jobs <= 0 {
		return res, nil
	}
	rate := cfg.ArrivalRate
	if rate <= 0 {
		rate = 1
	}
	feedback := observer != nil && (cfg.FeedbackEvery > 0 || cfg.FeedbackInterval > 0)
	// Flight recorder: events are keyed by 1-based arrival index (stable
	// across orphan re-placements); idxOf maps a live placement's JobID
	// back to it. Maintained only when recording — the disabled path costs
	// one nil check per site.
	rec := cfg.Recorder
	var idxOf map[JobID]int
	if rec != nil {
		idxOf = make(map[JobID]int)
	}
	key := func(idx int) uint64 { return uint64(idx) + 1 }
	chaos := cfg.Chaos
	if chaos != nil && chaos.MTTF <= 0 {
		chaos = nil
	}
	var (
		h          eventHeap
		seq        int
		pending    []Measurement
		post       bool // at least one feedback update has been absorbed
		lastFlush  float64
		retryQ     []retryEntry
		orphanQ    []retryEntry
		orphanDead map[JobID]struct{} // orphaned IDs whose stale completion events must be ignored
		remaining  = cfg.Jobs         // arrivals without a terminal outcome yet
		chaosRng   *rand.Rand
		groups     [][]int
		mttr       float64
	)
	push := func(e event) {
		e.seq = seq
		seq++
		heap.Push(&h, e)
	}
	if chaos != nil {
		chaosRng = rand.New(rand.NewSource(chaos.Seed))
		orphanDead = make(map[JobID]struct{})
		mttr = chaos.MTTR
		if mttr <= 0 {
			mttr = chaos.MTTF / 10
		}
		groups = chaos.Groups
		if len(groups) == 0 {
			groups = make([][]int, s.cfg.NumPlatforms)
			for p := range groups {
				groups[p] = []int{p}
			}
		}
		for g := range groups {
			push(event{kind: evFail, t: chaosRng.ExpFloat64() * chaos.MTTF, group: g})
		}
	}
	// attempt places one job at simulated time t, drawing its true runtime
	// and scheduling the completion (which carries the accounting) on
	// success. Shared by fresh arrivals, retries, and orphan rescheduling.
	attempt := func(t float64, job Job, idx int) (placed, rejected bool) {
		a := s.Place(job)
		if a.Rejected {
			return false, true
		}
		if !a.Placed() {
			return false, false
		}
		res.Placed++
		if rec != nil {
			idxOf[a.ID] = idx
			rec.Record(obs.Event{Kind: obs.EvPlace, Job: key(idx), ID: uint64(a.ID),
				Platform: int32(a.Platform), Version: s.snapVersion()})
		}
		rt := oracle.TrueSeconds(job.Workload, a.Platform, a.Interferers)
		push(event{
			kind: evComplete, t: t + rt, id: a.ID, jobIdx: idx,
			deadline:   job.Deadline,
			post:       post,
			failWindow: chaos != nil && s.Impaired() > 0,
			m:          Measurement{Workload: job.Workload, Platform: a.Platform, Interferers: a.Interferers, Seconds: rt},
		})
		return true, false
	}
	// drop finalizes an entry that will never be retried again, counting
	// it under its last failure mode.
	drop := func(e retryEntry) {
		if e.rejected {
			res.Rejected++
		} else {
			res.Unplaced++
		}
		if e.orphan {
			res.OrphanLost++
		}
		if rec != nil {
			reason := obs.ReasonInfeasible
			if e.rejected {
				reason = obs.ReasonAdmission
			}
			rec.Record(obs.Event{Kind: obs.EvShed, Job: key(e.idx), Reason: reason,
				Platform: -1, N: int32(e.tries)})
		}
		remaining--
	}
	// fail re-queues a failed placement attempt, or drops it once the
	// retry budget is spent. Orphans always get at least one rescheduling
	// attempt, even with no retry queue configured.
	fail := func(t float64, e retryEntry, rejected bool) {
		e.rejected = rejected
		budget := cfg.RetryLimit
		if e.orphan && budget == 0 {
			budget = 1
		}
		if budget <= 0 || e.tries > budget {
			drop(e)
			return
		}
		if e.tries == 1 && !e.orphan {
			res.RetryQueued++
		}
		e.notBefore = t
		if cfg.RetryBackoff > 0 && e.tries >= 1 {
			e.notBefore = t + cfg.backoffDelay(e.tries, rng)
			push(event{kind: evRetry, t: e.notBefore})
		}
		if e.orphan {
			orphanQ = append(orphanQ, e)
		} else {
			retryQ = append(retryQ, e)
		}
	}
	// tryRetries re-attempts every eligible deferred job, orphans first:
	// rescheduling work displaced by a failure outranks jobs the cluster
	// merely had no room for. Entries still inside their backoff window
	// stay queued.
	tryRetries := func(t float64) {
		for _, qp := range []*[]retryEntry{&orphanQ, &retryQ} {
			waiting := *qp
			if len(waiting) == 0 {
				continue
			}
			*qp = nil
			for _, re := range waiting {
				if re.notBefore > t {
					*qp = append(*qp, re)
					continue
				}
				if !re.orphan {
					res.Retries++
					if rec != nil {
						rec.Record(obs.Event{Kind: obs.EvRetry, Job: key(re.idx),
							Platform: -1, N: int32(re.tries)})
					}
				}
				placed, rejected := attempt(t, re.job, re.idx)
				if placed {
					if re.orphan {
						res.OrphanReplaced++
						lat := t - re.orphanedAt
						res.orphanLatSum += lat
						if lat > res.OrphanLatencyMax {
							res.OrphanLatencyMax = lat
						}
					} else {
						res.RetryPlaced++
					}
					continue
				}
				re.tries++
				fail(t, re, rejected)
			}
		}
	}
	push(event{kind: evArrival, t: rng.ExpFloat64() / rate, jobIdx: 0})
	for h.Len() > 0 && remaining > 0 {
		e := heap.Pop(&h).(event)
		switch e.kind {
		case evArrival:
			if e.jobIdx+1 < cfg.Jobs {
				push(event{kind: evArrival, t: e.t + rng.ExpFloat64()/rate, jobIdx: e.jobIdx + 1})
			}
			job := source(rng, e.jobIdx)
			res.Arrived++
			if rec != nil {
				rec.Record(obs.Event{Kind: obs.EvEnqueue, Job: key(e.jobIdx),
					Platform: -1, Version: s.snapVersion()})
			}
			if placed, rejected := attempt(e.t, job, e.jobIdx); !placed {
				fail(e.t, retryEntry{job: job, idx: e.jobIdx, tries: 1}, rejected)
			}
		case evComplete:
			if _, dead := orphanDead[e.id]; dead {
				// The platform died under this execution: the job was
				// orphaned into the reschedule path, and this stale
				// completion must neither free a slot nor feed back a
				// measurement that never finished.
				delete(orphanDead, e.id)
				continue
			}
			miss := e.m.Seconds > e.deadline
			tripped, err := s.CompleteOutcome(e.id, miss)
			if err != nil {
				return res, fmt.Errorf("sched: stream completion: %w", err)
			}
			if rec != nil {
				delete(idxOf, e.id)
				rec.Record(obs.Event{Kind: obs.EvComplete, Job: key(e.jobIdx),
					ID: uint64(e.id), Platform: int32(e.m.Platform)})
			}
			res.Completed++
			remaining--
			if miss {
				res.Missed++
			}
			if !math.IsNaN(e.deadline) && !math.IsInf(e.deadline, 0) && e.deadline > 0 {
				res.headroomSum += (e.deadline - e.m.Seconds) / e.deadline
				res.headroomN++
			}
			if e.post {
				res.PostPlaced++
				if miss {
					res.PostMissed++
				}
			}
			if e.failWindow {
				res.FailWindowPlaced++
				if miss {
					res.FailWindowMissed++
				}
			}
			if tripped && cfg.BreakerCooldown > 0 {
				push(event{kind: evReadmit, t: e.t + cfg.BreakerCooldown, platform: e.m.Platform})
			}
			if feedback {
				pending = append(pending, e.m)
				flushNow := (cfg.FeedbackEvery > 0 && len(pending) >= cfg.FeedbackEvery) ||
					(cfg.FeedbackInterval > 0 && e.t-lastFlush >= cfg.FeedbackInterval)
				if flushNow {
					if err := observer.ObserveSeconds(pending); err != nil {
						return res, fmt.Errorf("sched: stream feedback: %w", err)
					}
					res.Observed += len(pending)
					pending = nil
					post = true
					lastFlush = e.t
				}
			}
			// The completion freed capacity: retry deferred jobs.
			tryRetries(e.t)
		case evFail:
			for _, p := range groups[e.group] {
				if s.Health(p) == Down {
					continue
				}
				if chaos.DegradeProb > 0 && chaosRng.Float64() < chaos.DegradeProb {
					// Flaky, not dead: residents keep running, placements
					// pay the degraded penalty. Quarantined platforms
					// cannot degrade; leave them to the recovery event.
					_ = s.Degrade(p)
					continue
				}
				orphans, _ := s.Fail(p)
				for _, o := range orphans {
					orphanDead[o.ID] = struct{}{}
					res.Orphaned++
					idx := 0
					if rec != nil {
						idx = idxOf[o.ID]
						delete(idxOf, o.ID)
						rec.Record(obs.Event{Kind: obs.EvOrphan, Job: key(idx),
							ID: uint64(o.ID), Platform: int32(p)})
					}
					orphanQ = append(orphanQ, retryEntry{
						job: o.Job, idx: idx, orphan: true, orphanedAt: e.t, notBefore: e.t,
					})
				}
			}
			push(event{kind: evRecover, t: e.t + chaosRng.ExpFloat64()*mttr, group: e.group})
			// Reschedule orphans immediately on the surviving platforms.
			tryRetries(e.t)
		case evRecover:
			for _, p := range groups[e.group] {
				if s.Health(p) != Healthy {
					_ = s.Recover(p)
				}
			}
			push(event{kind: evFail, t: e.t + chaosRng.ExpFloat64()*chaos.MTTF, group: e.group})
			tryRetries(e.t)
		case evRetry:
			tryRetries(e.t)
		case evReadmit:
			// Half-open re-admission after the breaker cooldown — unless a
			// chaos recovery already re-admitted the platform.
			if s.Health(e.platform) == Quarantined {
				_ = s.Recover(e.platform)
				if rec != nil {
					rec.Record(obs.Event{Kind: obs.EvReadmit, Platform: int32(e.platform)})
				}
			}
			tryRetries(e.t)
		}
	}
	// Jobs still deferred when the replay ended (no completion or backoff
	// deadline left to retry after) are dropped with their last failure
	// mode.
	for _, re := range orphanQ {
		drop(re)
	}
	for _, re := range retryQ {
		drop(re)
	}
	st := s.FailureStats()
	res.Failures = int(st.Fails)
	res.Degrades = int(st.Degrades)
	res.Recovers = int(st.Recovers)
	res.BreakerTrips = int(st.Trips)
	res.BreakerReadmits = int(st.Readmissions)
	res.BreakerCloses = int(st.Closes)
	res.finalize()
	return res, nil
}

// StreamTrials runs independent replays of run and aggregates them. With
// parallel set, trials execute concurrently — safe when the trials share a
// predictor read-only (predictor reads are lock-free); feedback trials
// mutate the predictor and should run sequentially.
func StreamTrials(trials int, parallel bool, run func(trial int) (StreamResult, error)) ([]StreamResult, StreamResult, error) {
	if trials <= 0 {
		trials = 1
	}
	results := make([]StreamResult, trials)
	errs := make([]error, trials)
	if parallel {
		var wg sync.WaitGroup
		for tr := 0; tr < trials; tr++ {
			wg.Add(1)
			go func(tr int) {
				defer wg.Done()
				results[tr], errs[tr] = run(tr)
			}(tr)
		}
		wg.Wait()
	} else {
		for tr := 0; tr < trials; tr++ {
			results[tr], errs[tr] = run(tr)
		}
	}
	for _, err := range errs {
		if err != nil {
			return results, StreamResult{}, err
		}
	}
	return results, AggregateStream(results), nil
}

// AggregateStream sums the counts of several replays and recomputes the
// derived rates.
func AggregateStream(rs []StreamResult) StreamResult {
	var agg StreamResult
	for i, r := range rs {
		if i == 0 {
			agg.Policy, agg.Strategy = r.Policy, r.Strategy
		}
		agg.Arrived += r.Arrived
		agg.Placed += r.Placed
		agg.Unplaced += r.Unplaced
		agg.Rejected += r.Rejected
		agg.Completed += r.Completed
		agg.Missed += r.Missed
		agg.headroomSum += r.headroomSum
		agg.headroomN += r.headroomN
		agg.PostPlaced += r.PostPlaced
		agg.PostMissed += r.PostMissed
		agg.Observed += r.Observed
		agg.RetryQueued += r.RetryQueued
		agg.Retries += r.Retries
		agg.RetryPlaced += r.RetryPlaced
		agg.Failures += r.Failures
		agg.Degrades += r.Degrades
		agg.Recovers += r.Recovers
		agg.Orphaned += r.Orphaned
		agg.OrphanReplaced += r.OrphanReplaced
		agg.OrphanLost += r.OrphanLost
		agg.orphanLatSum += r.orphanLatSum
		if r.OrphanLatencyMax > agg.OrphanLatencyMax {
			agg.OrphanLatencyMax = r.OrphanLatencyMax
		}
		agg.BreakerTrips += r.BreakerTrips
		agg.BreakerReadmits += r.BreakerReadmits
		agg.BreakerCloses += r.BreakerCloses
		agg.FailWindowPlaced += r.FailWindowPlaced
		agg.FailWindowMissed += r.FailWindowMissed
	}
	agg.finalize()
	return agg
}
