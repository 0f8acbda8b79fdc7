package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Replica is one scheduler frontend of a ReplicaSet. Each chunk of a wave
// copies its shard's views from the SlotStore under the store mutex, then
// scores and selects outside it, and commits each placement with a
// version-checked reservation under it. A version conflict at commit
// (another replica placed, a completion landed, a health event fired)
// refreshes the platform's view, re-scores the affected column, and
// retries selection with bounded backoff, up to MaxCommitRetries before
// the job is shed with ReasonConflict.
//
// A Replica is safe for concurrent use; concurrent PlaceAll calls on the
// same replica serialize on its private mutex (use distinct replicas for
// parallel placement). The mutex guards the replica's views, whose
// resident rows the replica owns, and its score table, whose cells are
// stamped with SlotStore versions.
type Replica struct {
	set *ReplicaSet
	idx int

	mu    sync.Mutex
	views []platformView // indexed by platform
	table waveTable

	commits   atomic.Uint64
	conflicts atomic.Uint64
	shed      atomic.Uint64

	// chunkGap, when non-nil, runs between chunk placements (test hook:
	// deterministic mid-wave interleaving).
	chunkGap func()
}

// Place assigns one job: among feasible platforms (score ≤ deadline after
// accounting for the interference the job will experience from residents),
// the configured Strategy picks the winner. The returned assignment is
// unplaced when no platform is feasible, and Rejected when admission
// control refused the job outright (MaxInFlight reached). A one-job wave.
func (r *Replica) Place(job Job) Assignment {
	return r.PlaceAll([]Job{job})[0]
}

// PlaceAll places a wave of jobs in arrival order, in chunks of
// Config.WaveChunk jobs. Each chunk decides against the cluster state
// copied at its start plus its own commits, and a completion or health
// event that lands mid-wave is seen by the following chunks — or, when it
// touches a platform the chunk then commits to, by that commit's conflict
// retry. With no concurrent events, decisions are identical to the
// unchunked wave (and to calling Place per job): scores are per-query
// deterministic, so chunk boundaries never change a selection.
func (r *Replica) PlaceAll(jobs []Job) []Assignment {
	e := &r.set.engine
	// Observability is guarded per-site so the disabled path never calls
	// time.Now: one predictable branch per chunk, zero allocations.
	var waveStart time.Time
	if e.met != nil {
		waveStart = time.Now()
		e.met.WaveSize.Observe(float64(len(jobs)))
	}
	out := make([]Assignment, len(jobs))
	chunk := e.chunk
	if chunk < 0 || chunk > len(jobs) {
		chunk = len(jobs)
	}
	for lo := 0; lo < len(jobs); lo += chunk {
		hi := min(lo+chunk, len(jobs))
		r.mu.Lock()
		var holdStart time.Time
		if e.met != nil {
			holdStart = time.Now()
		}
		r.placeChunk(jobs[lo:hi], out[lo:hi])
		if e.met != nil {
			e.met.ChunkHold.ObserveSince(holdStart)
		}
		r.mu.Unlock()
		r.set.noteChunk()
		if r.chunkGap != nil && hi < len(jobs) {
			r.chunkGap()
		}
	}
	if e.met != nil {
		e.met.WavePlace.ObserveSince(waveStart)
	}
	return out
}

// placeChunk places one chunk under the replica mutex, filling out[i] for
// jobs[i]: the shard's views are copied under the store mutex, then the
// engine's chunk path scores, selects and commits against them.
func (r *Replica) placeChunk(jobs []Job, out []Assignment) {
	set := r.set
	shard := set.shardFor(r.idx)
	st := set.SlotStore
	st.mu.Lock()
	for _, p := range shard {
		st.viewLocked(p, &r.views[p])
	}
	st.mu.Unlock()
	set.placeChunk(r, jobs, out, shard)
}

// commit reserves platform p for job against the view it was selected
// from. On success the view holds the committed state and the placement
// is recorded under the store mutex, so a racing Fail's orphan event can
// never precede it.
func (r *Replica) commit(p int, job Job) (JobID, []int, reserveStatus) {
	set := r.set
	st := set.SlotStore
	if st.reserveGap != nil {
		st.reserveGap(p)
	}
	st.mu.Lock()
	id, inter, status := st.reserveLocked(p, &r.views[p], job)
	if status == reserveOK && set.rec != nil {
		set.rec.Record(obs.Event{Kind: obs.EvPlace, Job: uint64(id), ID: uint64(id),
			Platform: int32(p), Version: set.snapVersion()})
	}
	st.mu.Unlock()
	if status == reserveOK {
		r.commits.Add(1)
	}
	return id, inter, status
}

// retry handles the attempt-th consecutive commit conflict on p. Past the
// retry budget the job is shed and retry reports false; otherwise, after
// the backoff, p's view is copied again and selection runs again — the
// refreshed view may demote p or crown a different winner.
func (r *Replica) retry(p, attempt int) bool {
	set := r.set
	r.conflicts.Add(1)
	if set.rec != nil {
		set.rec.Record(obs.Event{Kind: obs.EvConflict, Platform: int32(p),
			N: int32(attempt), Version: set.snapVersion()})
	}
	if attempt > set.maxRetries {
		r.shed.Add(1)
		if set.rec != nil {
			set.rec.Record(obs.Event{Kind: obs.EvShed, Reason: obs.ReasonConflict,
				Platform: int32(p), N: int32(attempt), Version: set.snapVersion()})
		}
		return false
	}
	set.backoff(attempt)
	st := set.SlotStore
	st.mu.Lock()
	st.viewLocked(p, &r.views[p])
	st.mu.Unlock()
	return true
}

// backoff spaces the k-th consecutive reserve retry: yield-only when no
// base delay is configured, capped exponential otherwise. Bounded by
// design — the caller sheds the job after MaxCommitRetries.
func (rs *ReplicaSet) backoff(k int) {
	if rs.commitBackoff <= 0 {
		runtime.Gosched()
		return
	}
	d := rs.commitBackoff << uint(k-1)
	if d > rs.commitBackoffMax || d <= 0 {
		d = rs.commitBackoffMax
	}
	time.Sleep(d)
}
