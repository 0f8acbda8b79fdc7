package sched

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// platformView is what placement needs to know about one platform: the
// slot version its scores are stamped with, the resident workloads (the
// interference set, in a row the Scheduler owns), load, effective cap
// and health. The Scheduler copies the views at chunk start and after each
// of its commits and conflicts, so a chunk's decisions are a pure function
// of its views.
type platformView struct {
	ver       uint64
	ks        []int
	load      int
	cap       int
	placeable bool
	degraded  bool
}

// open reports whether the platform can take one more job.
func (v *platformView) open() bool { return v.placeable && v.load < v.cap }

// scores is one (platform, workload) cell's policy facets: feasibility
// and ranking (equal on single-head policies).
type scores struct {
	feas, rank float64
}

// waveTable is the Scheduler's dense score table plus its chunk
// scratch. Every score it computes is stored in a cell; a later chunk
// serves the cell instead of asking the predictor again as long as the
// platform's slot version and the scoring epoch both still match. A
// platform's scores are a pure function of its resident set and the
// predictor snapshot: any change to residents or health bumps the slot
// version, and an Observe publish moves the epoch.
//
// Each cell is stamped with the platform's slot version plus one (ver; 0
// marks a cell never written, so it matches no view even at slot version
// 0 and epoch 0). The epoch is stamped on the table as a whole: a chunk
// reads it once, before it scores, and one that reads a different epoch
// unstamps every cell first. A publish that lands while a chunk scores can
// leave cells of the new snapshot under the old epoch; since an epoch
// never returns to an earlier value (see Predictor), the next chunk reads
// a different one and unstamps them. Stamps and scores live in separate
// arrays, each one row of NumPlatforms per workload: a chunk's lookups
// read only the 8-byte stamps, a job's selection scan reads one
// contiguous row of scores, and growth appends rows. The table grows to
// the largest workload index seen. The placement mutex guards it.
type waveTable struct {
	nP    int
	nW    int
	ver   []uint64
	val   []scores
	epoch uint64

	// hits counts cells served from the table, misses cells scored through
	// the predictor — both in (platform, workload) cells, post-commit
	// rescores included. Atomics so stats readers need no placement lock.
	hits   atomic.Uint64
	misses atomic.Uint64

	distinct []int
	last     []int
	qs       []Query
	mean     []float64
	bound    []float64
}

// grow extends the table to hold workload index w.
func (t *waveTable) grow(w int) {
	if w < t.nW {
		return
	}
	n := (w + 1 - t.nW) * t.nP
	t.ver = append(t.ver, make([]uint64, n)...)
	t.val = append(t.val, make([]scores, n)...)
	t.nW = w + 1
}

// setEpoch makes epoch the table's epoch, unstamping every cell if it
// differs from the one they were scored under.
func (t *waveTable) setEpoch(epoch uint64) {
	if epoch != t.epoch {
		clear(t.ver)
		t.epoch = epoch
	}
}

// dedupJobs collapses the chunk's jobs to their distinct workloads in
// first-appearance order, into t.distinct, and records in t.last[i] the
// index of the last job with workload t.distinct[i], so a rescore after
// job j needs only the workloads whose last job comes after j, with no
// second pass over the jobs. It reports the largest index (-1 for no
// jobs). The scan is quadratic in the distinct count, which is bounded by
// the chunk size — a few dozen well-predicted comparisons, no map.
func (t *waveTable) dedupJobs(jobs []Job) int {
	t.distinct, t.last = t.distinct[:0], t.last[:0]
	maxW := -1
	for j, job := range jobs {
		w := job.Workload
		i := 0
		for i < len(t.distinct) && t.distinct[i] != w {
			i++
		}
		if i < len(t.distinct) {
			t.last[i] = j
			continue
		}
		t.distinct = append(t.distinct, w)
		t.last = append(t.last, j)
		maxW = max(maxW, w)
	}
	return maxW
}

// lookupColumn queues a query for every distinct workload of the chunk's
// jobs from index from on whose cell on platform p is not current for view
// v, returning the grown queue and how many cells were served.
func (t *waveTable) lookupColumn(qs []Query, p int, v *platformView, from int) ([]Query, int) {
	stamp := v.ver + 1
	hits := 0
	for i, w := range t.distinct {
		if t.last[i] < from {
			continue
		}
		if t.ver[w*t.nP+p] == stamp {
			hits++
			continue
		}
		qs = append(qs, Query{Workload: w, Platform: p, Interferers: v.ks})
	}
	return qs, hits
}

// score runs the queued queries through the predictor — the engine's one
// predictor call, asking only for the heads the policy reads, and timed in
// Metrics.ScoreBatch — and stores every result, stamped with its
// platform's view version.
func (t *waveTable) score(s *Scheduler) {
	n := len(t.qs)
	if cap(t.mean) < n {
		t.mean = make([]float64, n)
		t.bound = make([]float64, n)
	}
	pol := &s.policy
	var mean, bound []float64
	if pol.reads(headMean) {
		mean = t.mean[:n]
	}
	if pol.reads(headBound) {
		bound = t.bound[:n]
	}
	var start time.Time
	if s.met != nil {
		start = time.Now()
	}
	s.pred.ScoreSecondsBatch(t.qs, pol.eps, mean, bound)
	if s.met != nil {
		s.met.ScoreBatch.ObserveSince(start)
	}
	for i := range mean {
		mean[i] *= pol.factor
	}
	feas, rank := mean, mean
	if pol.feas == headBound {
		feas = bound
	}
	if pol.rank == headBound {
		rank = bound
	}
	views := s.views
	for i := range t.qs {
		q := &t.qs[i]
		at := q.Workload*t.nP + q.Platform
		t.val[at] = scores{feas: feas[i], rank: rank[i]}
		t.ver[at] = views[q.Platform].ver + 1
	}
}

// prescore makes every cell the chunk's first selection reads current:
// the chunk's distinct workloads on every open platform, served from the
// table where the stamps match and scored in one batched call otherwise,
// queries platform-major so each platform's interference term is folded
// once. Returns the cells served and scored.
func (s *Scheduler) prescore() (hits, misses int) {
	t, views := &s.table, s.views
	qs := t.qs[:0]
	for p := range views {
		v := &views[p]
		if !v.open() {
			continue
		}
		var h int
		qs, h = t.lookupColumn(qs, p, v, 0)
		hits += h
	}
	t.qs = qs
	if len(qs) > 0 {
		t.score(s)
	}
	if s.rec != nil {
		s.rec.Record(obs.Event{Kind: obs.EvScore, Platform: -1, N: int32(len(qs)),
			Cached: int32(hits), Version: s.snapVersion()})
	}
	return hits, len(qs)
}

// rescore makes platform p's cells current for the chunk's jobs from index
// from on after a commit or a conflict refresh changed its view: one small
// batch over the distinct workloads still to place.
func (s *Scheduler) rescore(p, from int) (hits, misses int) {
	t := &s.table
	qs, hits := t.lookupColumn(t.qs[:0], p, &s.views[p], from)
	t.qs = qs
	if len(qs) > 0 {
		t.score(s)
	}
	return hits, len(qs)
}

// selectBest is the one-pass selection over the open platforms, in
// ascending order: the feasibility score is padded on Degraded platforms (Rank keeps
// the raw prediction, because strategies read it as runtime and a padded
// rank would make degraded platforms look slower — and therefore more
// attractive — to LeastLoaded and BestFit alike; the preference for
// healthy platforms is the strategies' explicit Degraded tie-break), NaN
// (unplaceable), +Inf (no valid bound) and past-deadline scores are
// infeasible, and the strategy keeps the first best of the rest. best
// .Platform is -1 when nothing is feasible; placeable counts platforms
// healthy enough to consider and open those with a free slot.
func (s *Scheduler) selectBest(job Job) (best Candidate, placeable, open int) {
	t, views := &s.table, s.views
	bestP, bestScore := -1, 0.0
	var bestPick pick
	row := t.val[job.Workload*t.nP : (job.Workload+1)*t.nP]
	for p := range views {
		v := &views[p]
		if !v.placeable {
			continue
		}
		placeable++
		if v.load >= v.cap {
			continue
		}
		open++
		cell := &row[p]
		score := cell.feas
		if v.degraded {
			score *= s.degradedPenalty
		}
		if math.IsNaN(score) || math.IsInf(score, 1) || score > job.Deadline {
			continue
		}
		c := pick{rank: cell.rank, load: v.load, degraded: v.degraded}
		if bestP >= 0 {
			var better bool
			switch s.builtin {
			case builtinLeastLoaded:
				better = leastLoadedBetter(c, bestPick)
			case builtinBestFit:
				better = bestFitBetter(job.Deadline, c, bestPick)
			case builtinUtilization:
				better = utilizationBetter(c, bestPick)
			default:
				better = s.strategy.Better(job, candidate(p, score, c), candidate(bestP, bestScore, bestPick))
			}
			if !better {
				continue
			}
		}
		bestP, bestScore, bestPick = p, score, c
	}
	return candidate(bestP, bestScore, bestPick), placeable, open
}

// candidate rebuilds the Candidate behind a pick on platform p whose
// (padded) feasibility score is score.
func candidate(p int, score float64, c pick) Candidate {
	return Candidate{Platform: p, Score: score, Rank: c.rank, Load: c.load, Degraded: c.degraded}
}

// unplacedReason explains a failed selection: placeable is how many
// platforms were healthy enough to consider, open how many of those had a
// free slot and were scored.
func unplacedReason(placeable, open int) string {
	switch {
	case placeable == 0:
		return ReasonNoHealthy
	case open == 0:
		return ReasonCapacity
	}
	return ReasonInfeasible
}

// placeChunk places one chunk of jobs in arrival order under the
// placement mutex, filling out[i] for jobs[i]. It copies every platform's
// view under the store mutex, then prescores the chunk's distinct
// workloads through the table, and each job is one selection pass over
// the table; a commit (or a conflict refresh) changes one platform's view,
// and only that platform's cells are rescored for the jobs still to place.
// A job no platform can take is recorded as shed, with its reason.
//
// Scores are per-query deterministic, so a chunk decides exactly as if it
// had scored every (job, platform) pair against the current views: chunk
// boundaries and cells served from earlier chunks never change a
// selection.
func (s *Scheduler) placeChunk(jobs []Job, out []Assignment) {
	t, views, st := &s.table, s.views, s.SlotStore
	st.mu.Lock()
	for p := range views {
		st.viewLocked(p, &views[p])
	}
	st.mu.Unlock()
	t.grow(t.dedupJobs(jobs))
	t.setEpoch(s.pred.ScoreEpoch())
	hits, misses := s.prescore()
	for j, job := range jobs {
		if !st.admits() {
			out[j] = Assignment{Job: job, Platform: -1, Budget: math.Inf(1), Rejected: true, Reason: ReasonAdmission}
			continue
		}
		for attempt := 1; ; attempt++ {
			best, placeable, open := s.selectBest(job)
			if best.Platform < 0 {
				reason := unplacedReason(placeable, open)
				if s.rec != nil {
					s.rec.Record(obs.Event{Kind: obs.EvShed, Reason: obs.ParseReason(reason),
						Platform: -1, Version: s.snapVersion()})
				}
				out[j] = Assignment{Job: job, Platform: -1, Budget: math.Inf(1), Reason: reason}
				break
			}
			p := best.Platform
			id, inter, status := s.commit(p, job)
			if status == reserveConflict {
				if !s.retry(p, attempt) {
					out[j] = Assignment{Job: job, Platform: -1, Budget: math.Inf(1), Reason: ReasonConflict}
					break
				}
				if views[p].open() {
					h, m := s.rescore(p, j)
					hits, misses = hits+h, misses+m
				}
				continue
			}
			if status == reserveAdmission {
				out[j] = Assignment{Job: job, Platform: -1, Budget: math.Inf(1), Rejected: true, Reason: ReasonAdmission}
				break
			}
			out[j] = Assignment{ID: id, Job: job, Platform: p, Budget: best.Score, Interferers: inter}
			if j+1 < len(jobs) && views[p].open() {
				h, m := s.rescore(p, j+1)
				hits, misses = hits+h, misses+m
			}
			break
		}
	}
	t.hits.Add(uint64(hits))
	t.misses.Add(uint64(misses))
}

// ScoreTableStats counts score-table traffic in (platform, workload)
// cells: Hits were served from the table, Misses scored through the
// predictor (post-commit rescores included).
type ScoreTableStats struct {
	Hits   uint64
	Misses uint64
}

func (t *waveTable) stats() ScoreTableStats {
	return ScoreTableStats{Hits: t.hits.Load(), Misses: t.misses.Load()}
}
